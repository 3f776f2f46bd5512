#include "hip/perf_model.hh"

#include <algorithm>

#include "common/log.hh"
#include "fabric/fabric.hh"
#include "trace/tracer.hh"

namespace upm::hip {

PerfModel::PerfModel(const core::SystemConfig &config,
                     const mem::MemGeometry &geometry,
                     const Hooks &hooks)
    : cfg(config), geom(geometry), ic(geom, cfg.infinityCache),
      gpuCaches({{"L1", cfg.gpuCache.l1Capacity, cfg.gpuCache.l1Latency},
                 {"L2", cfg.gpuCache.l2Capacity, cfg.gpuCache.l2Latency}},
                cfg.gpuCache.icLatency, cfg.gpuCache.hbmLatency),
      cpuCaches({{"L1", cfg.cpuCache.l1Capacity, cfg.cpuCache.l1Latency},
                 {"L2", cfg.cpuCache.l2Capacity, cfg.cpuCache.l2Latency},
                 {"L3", cfg.cpuCache.l3Capacity, cfg.cpuCache.l3Latency}},
                cfg.cpuCache.icLatency, cfg.cpuCache.hbmLatency),
      tr(hooks.tr)
{
}

RegionProfile
PerfModel::profileRegion(const vm::AddressSpace &as, vm::VirtAddr base,
                         std::uint64_t size) const
{
    RegionProfile profile;
    profile.bytes = size;
    profile.pagesTotal = ceilDiv(size, mem::kPageSize);

    const vm::Vma *vma = as.findVma(base);
    if (vma == nullptr)
        panic("profileRegion of unmapped address 0x%llx",
              static_cast<unsigned long long>(base));
    profile.onDemand = vma->policy.onDemand;
    profile.pinned = vma->policy.pinned;
    profile.uncachedGpu = vma->policy.uncachedGpu;
    profile.gpuMapped = vma->policy.gpuMapped;

    auto frames = as.framesOf(base, size);
    profile.pagesPresent = frames.size();
    profile.stackBalance = geom.stackBalance(frames);
    profile.scatteredFraction = vma->scatteredFraction();
    profile.icHitFraction = socketCaches.size() > 1
                                ? socketIcHitFraction(frames)
                                : ic.hitFraction(frames);

    if (fab != nullptr && framesPerSocket > 0 &&
        vma->policy.socketPolicy != vm::SocketPolicy::ReplicateRO) {
        // Remote-page mix against the accessing socket. ReplicateRO
        // regions read their local replica, so they stay fully local.
        unsigned access = as.currentSocket();
        std::uint64_t remote = 0;
        std::uint64_t far_pages = 0;
        double hop_sum = 0.0;
        for (vm::FrameId frame : frames) {
            unsigned owner =
                static_cast<unsigned>(frame / framesPerSocket);
            if (owner >= fab->numSockets())
                owner = fab->numSockets() - 1;
            if (owner == access)
                continue;
            ++remote;
            hop_sum += static_cast<double>(
                fab->hopDistance(access, owner));
            if (fab->farDirection(access, owner))
                ++far_pages;
        }
        if (remote > 0) {
            profile.remoteFraction =
                static_cast<double>(remote) /
                static_cast<double>(frames.size());
            profile.avgRemoteHops =
                hop_sum / static_cast<double>(remote);
            profile.farRemoteFraction =
                static_cast<double>(far_pages) /
                static_cast<double>(remote);
            if (tr != nullptr) {
                tr->emitAt(access, trace::EventKind::RemoteAccess,
                           access, remote, far_pages, 0, 0,
                           profile.avgRemoteHops);
            }
        }
    }

    // Fragment span: pages-weighted harmonic mean across the GPU PTEs
    // of the range, i.e. translations needed per page. Missing GPU
    // PTEs (on-demand regions before first GPU touch) count as span 1.
    vm::Vpn begin = vm::vpnOf(base);
    vm::Vpn end = vm::vpnOf(base + size + mem::kPageSize - 1);
    std::uint64_t gpu_pages = 0;
    double translations = 0.0;
    as.gpuTable().forEachFragmentRun(
        begin, end,
        [&](vm::Vpn, std::uint64_t len, std::uint8_t frag) {
            gpu_pages += len;
            // Accumulate per page (not len/2^frag in one shot) so the
            // partial sums -- and thus the reported doubles -- match
            // the per-PTE walk bit for bit.
            double inv = 1.0 / static_cast<double>(1ull << frag);
            for (std::uint64_t i = 0; i < len; ++i)
                translations += inv;
        });
    profile.pagesGpuMapped = gpu_pages;
    std::uint64_t span1_pages = profile.pagesTotal - gpu_pages;
    translations += static_cast<double>(span1_pages);
    if (profile.pagesTotal > 0 && translations > 0.0) {
        profile.avgFragmentSpan =
            static_cast<double>(profile.pagesTotal) / translations;
    }
    if (tr != nullptr) {
        tr->emit(trace::EventKind::IcQuery, profile.pagesTotal, size,
                 profile.pagesPresent, gpu_pages, 0,
                 profile.icHitFraction);
    }
    return profile;
}

double
PerfModel::socketIcHitFraction(
    const std::vector<mem::FrameId> &frames) const
{
    if (frames.empty())
        return 1.0;
    // Partition the working set by owning shard (global frame id /
    // frames-per-socket) and rebase each partition to shard-local
    // ids: each socket's cache covers only the load on its own
    // stacks. Frames past the last shard clamp onto it, matching
    // NodeMemory::socketOfFrame.
    std::vector<std::vector<mem::FrameId>> per_socket(
        socketCaches.size());
    for (mem::FrameId frame : frames) {
        std::size_t owner =
            framesPerSocket > 0
                ? static_cast<std::size_t>(frame / framesPerSocket)
                : 0;
        if (owner >= per_socket.size())
            owner = per_socket.size() - 1;
        per_socket[owner].push_back(
            frame - static_cast<mem::FrameId>(owner) * framesPerSocket);
    }
    double covered = 0.0;
    for (std::size_t s = 0; s < per_socket.size(); ++s) {
        if (per_socket[s].empty())
            continue;
        covered += socketCaches[s]->coveredBytes(
            geom.stackLoad(per_socket[s]));
    }
    double total =
        static_cast<double>(frames.size()) * mem::kPageSize;
    return covered / total;
}

double
PerfModel::gpuStreamBandwidth(const RegionProfile &profile) const
{
    const auto &bw = cfg.bandwidth;
    if (profile.uncachedGpu)
        return bw.gpuUncachedBw;

    // Translation requests per byte: one per gpuBytesPerTranslation of
    // 4 KiB-fragment memory, reduced proportionally by fragment reach.
    double requests_per_byte =
        1.0 / (bw.gpuBytesPerTranslation * profile.avgFragmentSpan);
    double time_per_byte = 1.0 / bw.gpuIssuePeak +
                           requests_per_byte / bw.gpuWalkerThroughput;
    double eff = 1.0 / time_per_byte;

    // XNACK retry mode costs throughput on on-demand memory.
    if (profile.onDemand)
        eff *= bw.gpuXnackFactor;

    // The paper finds GPU bandwidth insensitive to first-touch agent;
    // only the raw memory peak bounds it beyond the terms above.
    eff = std::min(eff, bw.memPeak);
    return fabricMix(eff, profile);
}

double
PerfModel::fabricMix(double local_bw, const RegionProfile &profile) const
{
    if (fab == nullptr || profile.remoteFraction <= 0.0)
        return local_bw;
    // Harmonic mix: a stream touching local and remote pages in
    // sequence spends time proportional to fraction / bandwidth on
    // each, so the blended rate is the weighted harmonic mean of the
    // local rate and the (much lower, hop-tapered, direction-
    // asymmetric) xGMI cap.
    double remote_bw = fab->bandwidthForHops(profile.avgRemoteHops,
                                             profile.farRemoteFraction);
    double inv = (1.0 - profile.remoteFraction) / local_bw +
                 profile.remoteFraction / remote_bw;
    return 1.0 / inv;
}

double
PerfModel::cpuStreamBandwidth(const RegionProfile &profile,
                              unsigned threads) const
{
    const auto &bw = cfg.bandwidth;
    threads = std::max(1u, std::min(threads, cfg.numCpuCores));

    double issue = bw.cpuPerCoreBw * static_cast<double>(threads);
    // Scattered placements oversubscribe a subset of channels/IC
    // slices, lowering the achievable fabric cap (case B: 181 GB/s).
    double cap = bw.cpuFabricCap *
                 (1.0 - bw.cpuScatterBwLoss * profile.scatteredFraction);

    // Biased placements saturate their hot channels early: past the
    // peak thread count, extra threads only add queueing.
    if (profile.scatteredFraction > 0.5 &&
        threads > cfg.bandwidth.cpuBiasedPeakThreads) {
        unsigned extra = threads - cfg.bandwidth.cpuBiasedPeakThreads;
        cap *= 1.0 - bw.cpuBiasedDeclinePerThread *
                         static_cast<double>(extra);
    }
    return fabricMix(std::min(issue, cap), profile);
}

SimTime
PerfModel::gpuChaseLatency(const RegionProfile &profile) const
{
    // GPU chase latency is allocator-insensitive in the paper; the
    // hardware walker hides fragment differences behind the (long)
    // dependent-load path, so only the working set matters.
    SimTime latency =
        gpuCaches.avgLatency(profile.bytes, profile.icHitFraction);
    if (fab != nullptr && profile.remoteFraction > 0.0) {
        latency += profile.remoteFraction *
                   fab->latencyForHops(profile.avgRemoteHops,
                                       profile.farRemoteFraction);
    }
    return latency;
}

SimTime
PerfModel::cpuChaseLatency(const RegionProfile &profile) const
{
    // Scattered placements hit biased Infinity Cache sets on the CPU
    // path (paper Section 5.4); the GPU path is insensitive (Fig. 2).
    double ic_hit = profile.icHitFraction *
                    (1.0 - cfg.bandwidth.icScatterPenalty *
                               profile.scatteredFraction);
    SimTime latency = cpuCaches.avgLatency(profile.bytes, ic_hit);
    if (fab != nullptr && profile.remoteFraction > 0.0) {
        latency += profile.remoteFraction *
                   fab->latencyForHops(profile.avgRemoteHops,
                                       profile.farRemoteFraction);
    }
    return latency;
}

SimTime
PerfModel::gpuStreamTime(const RegionProfile &profile,
                         std::uint64_t bytes) const
{
    return static_cast<double>(bytes) / gpuStreamBandwidth(profile);
}

SimTime
PerfModel::gpuComputeTime(double flops) const
{
    return flops / cfg.compute.gpuFp64Flops;
}

SimTime
PerfModel::cpuComputeTime(double flops, unsigned threads) const
{
    threads = std::max(1u, std::min(threads, cfg.numCpuCores));
    return flops / (cfg.compute.cpuCoreFlops *
                    static_cast<double>(threads));
}

SimTime
PerfModel::cpuStreamTime(const RegionProfile &profile, std::uint64_t bytes,
                         unsigned threads) const
{
    return static_cast<double>(bytes) /
           cpuStreamBandwidth(profile, threads);
}

} // namespace upm::hip
