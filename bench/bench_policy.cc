/**
 * @file
 * UPMPolicy A/B sweep: eviction policy x workload x memory pressure.
 *
 * The paper's UVM baseline (Section 2.1) pays for overcommit in
 * eviction and re-migration; *which* pages get evicted is a policy
 * choice the hard-coded LRU hid. This bench turns that choice into a
 * measured grid: every policy::EvictionKind runs the same three
 * workloads at in-capacity and oversubscribed pressures on the
 * uvm::UvmSimulator, and the JSON report records the deterministic
 * sim-time and migration counters per point.
 *
 * Workloads:
 *  - stream:  windowed sequential passes; LRU's worst case (it evicts
 *             exactly the pages the next pass needs first).
 *  - hotcold: a hot quarter touched 4x per iteration plus a full cold
 *             scan; frequency/reuse-aware policies keep the hot set.
 *  - pingpong: GPU/CPU alternation on one slice; direction traffic.
 *
 * A second phase A/Bs MigrationKind::Off vs HotCold through a wired
 * PolicyEngine: CPU warm-up accrues access counts, migrationStep()
 * promotes the hot set ahead of GPU demand, and a stale phase drains
 * demotions.
 *
 * Gate flags (CI):
 *  - --check-wins: at least two non-LRU policies must strictly beat
 *    LRU on some metric at some oversubscribed grid point.
 *  - --soak: randomized promote/demote soak (seeded by --inject-seed)
 *    checking engine-vs-simulator residency conservation every cycle.
 *
 * All grid points are independent sims on the deterministic worker
 * pool: results are byte-identical at any --workers.
 */

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "trace/chrome_export.hh"
#include "uvm/uvm.hh"

using namespace upm;

namespace {

using policy::EvictionKind;

constexpr EvictionKind kAllPolicies[] = {
    EvictionKind::Lru,
    EvictionKind::Lfu,
    EvictionKind::Random,
    EvictionKind::Predictive,
};

enum class Workload { Stream, HotCold, PingPong };

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Stream: return "stream";
      case Workload::HotCold: return "hotcold";
      case Workload::PingPong: return "pingpong";
    }
    return "?";
}

constexpr Workload kWorkloads[] = {Workload::Stream, Workload::HotCold,
                                   Workload::PingPong};

/** One (policy, workload, pressure) grid outcome. */
struct GridResult
{
    SimTime coldNs = 0.0;    //!< first pass / iteration (compulsory)
    SimTime steadyNs = 0.0;  //!< every later pass / iteration
    std::uint64_t evictions = 0;
    std::uint64_t refaults = 0;  //!< device migrations beyond unique
    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
};

/** Windowed sequential passes over the whole working set. */
GridResult
runStream(uvm::UvmSimulator &sim, std::uint64_t handle,
          std::uint64_t working_set)
{
    GridResult out;
    const std::uint64_t window =
        std::max<std::uint64_t>(working_set / 16, mem::kPageSize);
    constexpr unsigned kPasses = 4;
    for (unsigned pass = 0; pass < kPasses; ++pass) {
        SimTime t = 0.0;
        for (std::uint64_t off = 0; off < working_set; off += window) {
            t += sim.gpuAccess(handle, off,
                               std::min(window, working_set - off));
        }
        (pass == 0 ? out.coldNs : out.steadyNs) += t;
    }
    return out;
}

/** Hot quarter touched 4x per iteration + full windowed cold scan. */
GridResult
runHotCold(uvm::UvmSimulator &sim, std::uint64_t handle,
           std::uint64_t working_set)
{
    GridResult out;
    const std::uint64_t hot =
        std::max<std::uint64_t>(working_set / 4, mem::kPageSize);
    const std::uint64_t cold = working_set - hot;
    const std::uint64_t window =
        std::max<std::uint64_t>(cold / 8, mem::kPageSize);
    constexpr unsigned kIters = 6;
    for (unsigned iter = 0; iter < kIters; ++iter) {
        SimTime t = 0.0;
        // Four hot touches per iteration: the hot set's access
        // frequency and reuse distance separate from the cold scan's.
        for (unsigned k = 0; k < 4; ++k)
            t += sim.gpuAccess(handle, 0, hot);
        for (std::uint64_t off = 0; off < cold; off += window) {
            t += sim.gpuAccess(handle, hot + off,
                               std::min(window, cold - off));
        }
        (iter == 0 ? out.coldNs : out.steadyNs) += t;
    }
    return out;
}

/** GPU/CPU alternation on one half-capacity slice. */
GridResult
runPingPong(uvm::UvmSimulator &sim, std::uint64_t handle,
            std::uint64_t working_set)
{
    GridResult out;
    const std::uint64_t slice = std::max<std::uint64_t>(
        std::min(working_set,
                 sim.deviceCapacityPages() * mem::kPageSize) /
            2,
        mem::kPageSize);
    constexpr unsigned kIters = 8;
    for (unsigned iter = 0; iter < kIters; ++iter) {
        SimTime t = sim.gpuAccess(handle, 0, slice);
        t += sim.cpuAccess(handle, 0, slice);
        (iter == 0 ? out.coldNs : out.steadyNs) += t;
    }
    return out;
}

GridResult
runGridPoint(EvictionKind eviction, Workload workload, double pressure,
             std::uint64_t capacity)
{
    uvm::UvmSimulator sim(capacity, eviction,
                          policy::PolicyConfig().seed);
    const std::uint64_t working_set = static_cast<std::uint64_t>(
        static_cast<double>(capacity) * pressure);
    const std::uint64_t handle = sim.allocManaged(working_set);

    GridResult out;
    std::uint64_t unique_pages =
        ceilDiv(working_set, mem::kPageSize);
    switch (workload) {
      case Workload::Stream:
        out = runStream(sim, handle, working_set);
        break;
      case Workload::HotCold:
        out = runHotCold(sim, handle, working_set);
        break;
      case Workload::PingPong:
        out = runPingPong(sim, handle, working_set);
        // Only the slice's pages ever reach the device.
        unique_pages = std::min(
            unique_pages,
            ceilDiv(std::max<std::uint64_t>(
                        std::min(working_set, capacity) / 2,
                        mem::kPageSize),
                    mem::kPageSize));
        break;
    }
    out.evictions = sim.evictions();
    out.toDevice = sim.pagesMigratedToDevice();
    out.toHost = sim.pagesMigratedToHost();
    out.refaults = out.toDevice > unique_pages
                       ? out.toDevice - unique_pages
                       : 0;
    return out;
}

/** One migration A/B outcome (engine-driven prefetch vs demand). */
struct MigResult
{
    SimTime prefetchNs = 0.0;  //!< migrationStep() drain time
    SimTime gpuNs = 0.0;       //!< GPU hot-phase time after prefetch
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t fastAfter = 0;  //!< engine Fast residency at the end
};

/**
 * CPU warm-up accrues hot-page access counts; with HotCold migration
 * the engine promotes the hot quarter onto the device before the GPU
 * phase, which then runs fault-free. A stale phase afterwards drains
 * demotions of the now-cold hot set.
 */
MigResult
runMigrationPoint(policy::MigrationKind migration,
                  std::uint64_t capacity)
{
    policy::PolicyConfig pcfg;
    pcfg.enabled = true;
    pcfg.migration = migration;
    policy::PolicyEngine engine(pcfg);

    uvm::UvmSimulator sim(capacity, EvictionKind::Lru, pcfg.seed);
    sim.setPolicyEngine(&engine);

    const std::uint64_t total = capacity / 2;  // fits: no evictions
    const std::uint64_t hot = capacity / 4;
    const std::uint64_t handle = sim.allocManaged(total);

    MigResult out;
    // Warm: 6 CPU touches push each hot page past hotThreshold.
    for (unsigned i = 0; i < 6; ++i)
        sim.cpuAccess(handle, 0, hot);
    // Prefetch: drain bounded migration batches until quiescent.
    for (unsigned guard = 0; guard < 100000; ++guard) {
        SimTime t = sim.migrationStep();
        if (t <= 0.0)
            break;
        out.prefetchNs += t;
    }
    // GPU hot phase: resident already when migration prefetched it.
    out.gpuNs = sim.gpuAccess(handle, 0, hot);
    // Stale phase: 17 unrelated ticks age the hot set past coldTicks,
    // then demotion batches drain it back to the host.
    for (unsigned i = 0; i < 17; ++i)
        sim.gpuAccess(handle, hot, mem::kPageSize);
    for (unsigned guard = 0; guard < 100000; ++guard) {
        if (sim.migrationStep() <= 0.0)
            break;
    }
    out.promotions = engine.stats().promotions;
    out.demotions = engine.stats().demotions;
    out.fastAfter = engine.residentIn(policy::Tier::Fast);
    return out;
}

/**
 * Randomized promote/demote soak: seeded GPU/CPU access storms plus
 * migration steps on an oversubscribed region, with the engine's
 * residency books checked against the simulator every cycle.
 * @return number of invariant violations (0 = pass).
 */
std::uint64_t
runSoak(std::uint64_t seed, unsigned cycles, std::uint64_t capacity)
{
    policy::PolicyConfig pcfg;
    pcfg.enabled = true;
    pcfg.migration = policy::MigrationKind::HotCold;
    policy::PolicyEngine engine(pcfg);

    uvm::UvmSimulator sim(capacity, EvictionKind::Lru, seed);
    sim.setPolicyEngine(&engine);

    const std::uint64_t total = capacity + capacity / 2;
    const std::uint64_t total_pages = ceilDiv(total, mem::kPageSize);
    const std::uint64_t handle = sim.allocManaged(total);

    SplitMix64 rng(seed);
    std::uint64_t violations = 0;
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        const std::uint64_t page = rng.next() % total_pages;
        const std::uint64_t span =
            1 + rng.next() % std::min<std::uint64_t>(512, total_pages);
        const std::uint64_t off = page * mem::kPageSize;
        const std::uint64_t bytes =
            std::min(span * mem::kPageSize, total - off);
        switch (rng.next() % 4) {
          case 0:
            sim.cpuAccess(handle, off, bytes);
            break;
          case 3:
            sim.migrationStep();
            break;
          default:
            sim.gpuAccess(handle, off, bytes);
            break;
        }
        const std::uint64_t fast =
            engine.residentIn(policy::Tier::Fast);
        const std::uint64_t slow =
            engine.residentIn(policy::Tier::Slow);
        if (fast != sim.deviceResidentPages()) {
            std::printf("SOAK FAIL cycle %u: engine Fast %llu != "
                        "device resident %llu\n",
                        cycle, static_cast<unsigned long long>(fast),
                        static_cast<unsigned long long>(
                            sim.deviceResidentPages()));
            ++violations;
        }
        if (fast + slow != total_pages) {
            std::printf("SOAK FAIL cycle %u: Fast %llu + Slow %llu != "
                        "%llu pages (dual residency or leak)\n",
                        cycle, static_cast<unsigned long long>(fast),
                        static_cast<unsigned long long>(slow),
                        static_cast<unsigned long long>(total_pages));
            ++violations;
        }
        if (violations >= 8)
            break;  // enough evidence; stop flooding the log
    }
    return violations;
}

int
run(int argc, char **argv)
{
    bool check_wins = false;
    bool soak = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-wins") == 0)
            check_wins = true;
        else if (std::strcmp(argv[i], "--soak") == 0)
            soak = true;
        else
            rest.push_back(argv[i]);
    }
    auto opt = bench::Options::parse(
        static_cast<int>(rest.size()), rest.data(),
        /*allow_audit=*/false, /*allow_inject=*/true,
        /*allow_oversubscribe=*/false, /*allow_sockets=*/false,
        /*allow_policy=*/true);
    setQuiet(true);
    bench::banner("UPMPolicy A/B sweep (Section 2.1 baseline)",
                  "eviction policy x workload x pressure, plus "
                  "hot/cold migration A/B");

    const std::uint64_t capacity = opt.smoke ? 64 * MiB : 256 * MiB;

    if (soak) {
        const unsigned cycles = opt.smoke ? 400 : 1500;
        std::printf("migration soak: seed 0x%llx, %u cycles, "
                    "capacity %s, 1.5x oversubscribed\n",
                    static_cast<unsigned long long>(opt.injectSeed),
                    cycles, bench::fmtBytes(capacity).c_str());
        std::uint64_t violations =
            runSoak(opt.injectSeed, cycles, capacity);
        if (violations > 0) {
            std::printf("soak FAILED: %llu invariant violation(s)\n",
                        static_cast<unsigned long long>(violations));
            return 1;
        }
        std::printf("soak passed: residency conserved every cycle\n");
        return 0;
    }

    if (check_wins && opt.policySet) {
        std::fprintf(stderr,
                     "--check-wins needs the full policy sweep; drop "
                     "--policy\n");
        return 2;
    }

    const std::vector<EvictionKind> policies =
        opt.policySet ? std::vector<EvictionKind>{opt.policyKind}
                      : std::vector<EvictionKind>(
                            kAllPolicies,
                            kAllPolicies + std::size(kAllPolicies));
    const std::vector<double> pressures =
        opt.smoke ? std::vector<double>{0.75, 1.25}
                  : std::vector<double>{0.75, 1.00, 1.25, 1.50};
    constexpr std::size_t n_workloads = std::size(kWorkloads);

    bench::JsonReporter json("policy", opt.jsonPath);

    // The full grid, one independent simulator per point.
    const std::size_t n_points =
        policies.size() * n_workloads * pressures.size();
    std::vector<GridResult> grid(n_points);
    exec::globalPool().parallelFor(n_points, [&](std::size_t t) {
        const std::size_t pi = t / (n_workloads * pressures.size());
        const std::size_t wi =
            (t / pressures.size()) % n_workloads;
        const std::size_t fi = t % pressures.size();
        grid[t] = runGridPoint(policies[pi], kWorkloads[wi],
                               pressures[fi], capacity);
    });

    auto at = [&](std::size_t pi, std::size_t wi,
                  std::size_t fi) -> const GridResult & {
        return grid[(pi * n_workloads + wi) * pressures.size() + fi];
    };

    std::printf("grid (device memory %s)\n",
                bench::fmtBytes(capacity).c_str());
    std::printf("%-10s %-10s %9s %12s %12s %10s %10s\n", "workload",
                "policy", "pressure", "cold", "steady", "evictions",
                "refaults");
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        for (std::size_t fi = 0; fi < pressures.size(); ++fi) {
            for (std::size_t pi = 0; pi < policies.size(); ++pi) {
                const GridResult &r = at(pi, wi, fi);
                std::printf(
                    "%-10s %-10s %8.2fx %12s %12s %10llu %10llu\n",
                    workloadName(kWorkloads[wi]),
                    policy::evictionKindName(policies[pi]),
                    pressures[fi], bench::fmtTime(r.coldNs).c_str(),
                    bench::fmtTime(r.steadyNs).c_str(),
                    static_cast<unsigned long long>(r.evictions),
                    static_cast<unsigned long long>(r.refaults));
                json.point()
                    .param("workload",
                           std::string(workloadName(kWorkloads[wi])))
                    .param("policy",
                           std::string(policy::evictionKindName(
                               policies[pi])))
                    .param("pressure",
                           strprintf("%.2f", pressures[fi]))
                    .param("capacity_bytes", capacity)
                    .metric("cold_ns", r.coldNs)
                    .metric("steady_ns", r.steadyNs)
                    .metric("evictions", r.evictions)
                    .metric("refaults", r.refaults)
                    .metric("pages_to_device", r.toDevice)
                    .metric("pages_to_host", r.toHost);
            }
        }
    }

    // Migration A/B: off vs hot/cold prefetch, serial (two points).
    std::printf("\nmigration A/B (hot quarter, CPU-warmed)\n");
    std::printf("%-10s %12s %12s %12s %10s %10s\n", "migration",
                "prefetch", "gpu phase", "total", "promoted",
                "demoted");
    const policy::MigrationKind kModes[] = {
        policy::MigrationKind::Off, policy::MigrationKind::HotCold};
    MigResult mig[2];
    for (int m = 0; m < 2; ++m) {
        mig[m] = runMigrationPoint(kModes[m], capacity);
        const MigResult &r = mig[m];
        std::printf("%-10s %12s %12s %12s %10llu %10llu\n",
                    policy::migrationKindName(kModes[m]),
                    bench::fmtTime(r.prefetchNs).c_str(),
                    bench::fmtTime(r.gpuNs).c_str(),
                    bench::fmtTime(r.prefetchNs + r.gpuNs).c_str(),
                    static_cast<unsigned long long>(r.promotions),
                    static_cast<unsigned long long>(r.demotions));
        json.point()
            .param("workload", std::string("migration"))
            .param("policy", std::string("lru"))
            .param("migration",
                   std::string(policy::migrationKindName(kModes[m])))
            .param("capacity_bytes", capacity)
            .metric("prefetch_ns", r.prefetchNs)
            .metric("gpu_phase_ns", r.gpuNs)
            .metric("total_ns", r.prefetchNs + r.gpuNs)
            .metric("promotions", r.promotions)
            .metric("demotions", r.demotions)
            .metric("fast_resident_after", r.fastAfter);
    }

    int failures = 0;
    // Sanity on every sweep: HotCold must actually promote and demote,
    // and its GPU hot phase must run fault-free (prefetched).
    if (mig[1].promotions == 0 || mig[1].demotions == 0) {
        std::printf("FAIL: HotCold migration made no moves\n");
        ++failures;
    }
    if (mig[1].gpuNs >= mig[0].gpuNs) {
        std::printf("FAIL: prefetched GPU phase not faster than "
                    "demand paging\n");
        ++failures;
    }

    if (check_wins) {
        // Gate: >=2 non-LRU policies strictly beat LRU on >=1 metric
        // at >=1 oversubscribed grid point.
        std::set<std::string> winners;
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            if (policies[pi] == EvictionKind::Lru)
                continue;
            for (std::size_t wi = 0; wi < n_workloads; ++wi) {
                for (std::size_t fi = 0; fi < pressures.size(); ++fi) {
                    if (pressures[fi] <= 1.0)
                        continue;
                    const GridResult &r = at(pi, wi, fi);
                    const GridResult &lru = at(0, wi, fi);
                    if (r.steadyNs < lru.steadyNs ||
                        r.refaults < lru.refaults ||
                        r.evictions < lru.evictions) {
                        winners.insert(
                            policy::evictionKindName(policies[pi]));
                    }
                }
            }
        }
        std::printf("\npolicy wins vs lru (oversubscribed points): ");
        for (const std::string &w : winners)
            std::printf("%s ", w.c_str());
        std::printf("\n");
        if (winners.size() < 2) {
            std::printf("FAIL: want >=2 policies beating lru, got "
                        "%zu\n",
                        winners.size());
            ++failures;
        }
    }

    json.write();

    if (!opt.tracePath.empty()) {
        // Traced capture: a standalone engine + simulator re-run the
        // migration scenario and an oversubscribed hotcold point, so
        // PolicyMigrate and PolicyEvict land on the bus. The sweep
        // itself stays untraced (numbers must not move with --trace).
        trace::TraceConfig tcfg;
        tcfg.enabled = true;
        tcfg.layerMask = opt.traceMask;
        tcfg.ring = opt.traceRing;
        if (opt.traceRingCap > 0)
            tcfg.ringCapacity = opt.traceRingCap;
        trace::Tracer tracer(tcfg);

        policy::PolicyConfig pcfg;
        pcfg.enabled = true;
        pcfg.migration = policy::MigrationKind::HotCold;
        policy::PolicyEngine engine(pcfg, {.tr = &tracer});

        uvm::UvmSimulator sim(64 * MiB, EvictionKind::Lru, pcfg.seed);
        sim.setPolicyEngine(&engine);
        const std::uint64_t ws = 80 * MiB;  // oversubscribed: evicts
        const std::uint64_t h = sim.allocManaged(ws);
        for (unsigned i = 0; i < 6; ++i)
            sim.cpuAccess(h, 0, 16 * MiB);
        for (unsigned guard = 0; guard < 100000; ++guard) {
            if (sim.migrationStep() <= 0.0)
                break;
        }
        for (unsigned pass = 0; pass < 2; ++pass) {
            for (std::uint64_t off = 0; off < ws; off += 8 * MiB)
                sim.gpuAccess(h, off, std::min<std::uint64_t>(
                                          8 * MiB, ws - off));
        }
        bool ok = tracer.ringSink() != nullptr
                      ? tracer.ringSink()->dump(opt.tracePath)
                      : trace::writeChromeTrace(opt.tracePath,
                                                tracer.events());
        if (!ok)
            fatal("cannot write trace to %s", opt.tracePath.c_str());
        std::printf("UPMTrace: %llu event(s) -> %s\n",
                    static_cast<unsigned long long>(tracer.emitted()),
                    opt.tracePath.c_str());
    }

    if (failures > 0) {
        std::printf("\n%d policy check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall policy checks passed\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return run(argc, argv);
}
