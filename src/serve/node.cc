#include "serve/node.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "hip/kernel.hh"
#include "mem/geometry.hh"
#include "trace/tracer.hh"

namespace upm::serve {

namespace {

/** Derive an independent per-purpose stream from the root seed. */
SplitMix64
streamFor(std::uint64_t seed, std::uint64_t salt)
{
    SplitMix64 mixer(seed ^ salt);
    return SplitMix64(mixer.next());
}

std::uint64_t
pagesOf(std::uint64_t bytes)
{
    return (bytes + mem::kPageSize - 1) / mem::kPageSize;
}

} // namespace

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::KeyValue: return "kv";
      case RequestKind::LlmInfer: return "llm";
    }
    return "?";
}

void
ServeStats::checkAccounting() const
{
    std::uint64_t accounted =
        completed + rejected + deadlineShed + cancelled + oomFailed;
    if (accounted != arrivals) {
        panic("ServeStats: %llu arrivals but %llu dispositions "
              "(completed %llu, rejected %llu, deadline-shed %llu, "
              "cancelled %llu, oom-failed %llu)",
              static_cast<unsigned long long>(arrivals),
              static_cast<unsigned long long>(accounted),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(deadlineShed),
              static_cast<unsigned long long>(cancelled),
              static_cast<unsigned long long>(oomFailed));
    }
    if (timedOut > completed)
        panic("ServeStats: %llu SLO misses exceed %llu completions",
              static_cast<unsigned long long>(timedOut),
              static_cast<unsigned long long>(completed));
}

ServeNode::ServeNode(core::System &system, const ServeConfig &config,
                     ServeObserver *observer)
    : sys(system), cfg(config), tenants(config.numTenants),
      arrivalRng(streamFor(config.seed, 0x6172'7269'7665ull)),
      mixRng(streamFor(config.seed, 0x6d69'78ull)),
      sizeRng(streamFor(config.seed, 0x7369'7a65ull)),
      inj(system.injector()), tr(system.tracer()), obs(observer)
{
    if (cfg.numTenants == 0)
        panic("ServeNode: numTenants must be positive");
    if (cfg.arrivalRateHz <= 0.0)
        panic("ServeNode: arrivalRateHz must be positive");
    if (cfg.kvSliceBytes == 0 || cfg.arenaBytes < cfg.kvSliceBytes)
        panic("ServeNode: arena must hold at least one KV slice");
    if (cfg.degradedArenaBytes == 0 ||
        cfg.degradedArenaBytes > cfg.arenaBytes)
        panic("ServeNode: degraded arena must be in (0, arenaBytes]");
    if (cfg.processLifetime == 0)
        panic("ServeNode: processLifetime must be positive");
}

ServeNode::~ServeNode() = default;

double
ServeNode::pressure() const
{
    const mem::NodeMemory &node = sys.nodeMemory();
    double total = static_cast<double>(node.totalFrames());
    return 1.0 - static_cast<double>(node.freeFrames()) / total;
}

Request
ServeNode::makeRequest(SimTime arrival_ns)
{
    Request r;
    r.id = nextRequestId++;
    r.tenant = static_cast<unsigned>(mixRng.nextBelow(cfg.numTenants));
    r.kind = mixRng.nextDouble() < cfg.llmFraction
                 ? RequestKind::LlmInfer
                 : RequestKind::KeyValue;
    r.arrivalNs = arrival_ns;
    return r;
}

void
ServeNode::run()
{
    if (ran)
        panic("ServeNode::run: a node serves one stream; make another");
    ran = true;

    const double mean_gap_ns = 1.0e9 / cfg.arrivalRateHz;
    for (std::uint64_t i = 0; i < cfg.numRequests; ++i) {
        // Exponential inter-arrival gaps: an open-loop Poisson stream.
        nowNs += -mean_gap_ns * std::log(1.0 - arrivalRng.nextDouble());
        arrive(makeRequest(nowNs), nowNs);
        if (inj) {
            // Chaos: a request storm lands extra arrivals on the same
            // timestamp (a burst the admission controller must absorb).
            unsigned extra = inj->requestStorm();
            for (unsigned k = 0; k < extra; ++k) {
                ++st.stormArrivals;
                arrive(makeRequest(nowNs), nowNs);
            }
        }
    }

    // Drain: queued requests only dispatch when pressure falls, and
    // pressure only falls through degradation -- so degrade, pump, and
    // when stuck jump time to the front deadline (which sheds it with
    // a structured Timeout). Every pass retires at least one entry.
    while (!queue.empty()) {
        maybeDegrade(nowNs);
        pumpQueue(nowNs);
        if (!queue.empty()) {
            nowNs = std::max(nowNs, queue.front().deadlineNs);
            pumpQueue(nowNs);
        }
    }

    // Retire every surviving process so a post-run finalizeAudit()
    // sees only the primary address space's memory.
    for (unsigned i = 0; i < tenants.size(); ++i) {
        if (tenants[i].proc == nullptr)
            continue;
        std::uint64_t pages = 0;
        retireProcess(i, false, pages);
        ++st.processesRetired;
        st.pagesReclaimedRetire += pages;
    }
    st.checkAccounting();
}

void
ServeNode::arrive(const Request &req, SimTime now_ns)
{
    ++st.arrivals;
    maybeDegrade(now_ns);
    pumpQueue(now_ns);
    double p = pressure();
    if (p >= cfg.rejectPressure) {
        shed(req, Status::ResourceExhausted);
        return;
    }
    // FIFO fairness: once anything is queued, newcomers queue behind
    // it even if pressure momentarily dipped.
    if (p >= cfg.queuePressure || !queue.empty()) {
        if (queue.size() >= cfg.maxQueueDepth) {
            shed(req, Status::ResourceExhausted);
            return;
        }
        queue.push_back({req, now_ns, now_ns + cfg.queueDeadlineNs});
        ++st.queued;
        if (obs)
            obs->onAdmit(req, true);
        return;
    }
    if (obs)
        obs->onAdmit(req, false);
    dispatch(req, now_ns, false, 0.0);
}

void
ServeNode::pumpQueue(SimTime now_ns)
{
    while (!queue.empty()) {
        const QueuedRequest &front = queue.front();
        if (front.deadlineNs <= now_ns) {
            Request req = front.req;
            queue.pop_front();
            shed(req, Status::Timeout);
            continue;
        }
        if (pressure() < cfg.queuePressure) {
            QueuedRequest qr = queue.front();
            queue.pop_front();
            dispatch(qr.req, now_ns, true, now_ns - qr.enqueuedNs);
            continue;
        }
        break;
    }
}

void
ServeNode::shed(const Request &req, Status why)
{
    if (why == Status::Timeout)
        ++st.deadlineShed;
    else
        ++st.rejected;
    if (tr)
        tr->emit(trace::EventKind::RequestShed, req.id, req.tenant,
                 static_cast<std::uint64_t>(why), queue.size());
    if (obs)
        obs->onShed(req, why);
    st.endNs = std::max(st.endNs, nowNs);
}

void
ServeNode::dispatch(const Request &req, SimTime start_ns, bool was_queued,
                    SimTime wait_ns)
{
    Tenant &tenant = tenants[req.tenant];
    if (was_queued)
        st.queueWait.add(wait_ns);
    if (tenant.proc == nullptr)
        spawnProcess(req.tenant);
    if (tr)
        tr->emit(trace::EventKind::RequestBegin, req.id, req.tenant,
                 static_cast<std::uint64_t>(req.kind));

    // Chaos: an injected kill takes the tenant's process down at
    // dispatch; everything it held is reclaimed through the normal
    // free paths and the request reports a structured Cancelled.
    if (inj && inj->killProcess(tenant.proc->pid())) {
        std::uint64_t pages = 0;
        retireProcess(req.tenant, true, pages);
        ++st.processesCrashed;
        st.pagesReclaimedCrash += pages;
        ++st.cancelled;
        SimTime latency = start_ns - req.arrivalNs;
        if (tr)
            tr->emit(trace::EventKind::RequestEnd, req.id, req.tenant,
                     static_cast<std::uint64_t>(Status::Cancelled), 0, 0,
                     latency);
        if (obs)
            obs->onComplete(req, Status::Cancelled, latency);
        st.endNs = std::max(st.endNs, start_ns);
        return;
    }

    // Per-tenant serialization: one process serves one request at a
    // time; a burst on one tenant queues behind its own readyAt.
    SimTime begin = std::max(start_ns, tenant.readyAt);
    SimTime duration = 0.0;
    unsigned retries = 0;
    dispatching = static_cast<int>(req.tenant);
    Status status = serveBody(tenant, req, duration, retries);
    dispatching = -1;

    SimTime finish = begin + duration;
    tenant.readyAt = finish;
    SimTime latency = finish - req.arrivalNs;
    if (status == Status::OutOfMemory) {
        // The bounded retry ladder (with its degradation escalations)
        // could not find memory: a structured hard failure, never a
        // panic.
        ++st.oomFailed;
    } else {
        ++st.completed;
        if (status == Status::Success && latency > cfg.requestTimeoutNs)
            status = Status::Timeout;  // work done, SLO missed
        if (status == Status::Timeout)
            ++st.timedOut;
        st.latency.add(latency);
        ++tenant.served;
    }
    if (tr)
        tr->emit(trace::EventKind::RequestEnd, req.id, req.tenant,
                 static_cast<std::uint64_t>(status), retries, 0, latency);
    if (obs)
        obs->onComplete(req, status, latency);
    st.endNs = std::max(st.endNs, finish);

    // Churn: a process exits cleanly after its lifetime quota and the
    // tenant respawns a fresh one at its next request.
    if (tenant.proc != nullptr && tenant.served >= cfg.processLifetime) {
        std::uint64_t pages = 0;
        retireProcess(req.tenant, false, pages);
        ++st.processesRetired;
        st.pagesReclaimedRetire += pages;
    }
}

Status
ServeNode::serveBody(Tenant &tenant, const Request &req, SimTime &duration,
                     unsigned &retries)
{
    duration = 0.0;
    double backoff = cfg.retryBackoffNs;
    for (unsigned attempt = 0;; ++attempt) {
        Status status = req.kind == RequestKind::KeyValue
                            ? serveKeyValue(tenant, duration)
                            : serveLlm(tenant, duration);
        if (status != Status::OutOfMemory || attempt >= cfg.maxRetries)
            return status;
        // Retry with backoff; each retry escalates degradation one
        // tier to actively make room rather than spinning.
        duration += backoff;
        backoff *= cfg.retryBackoffGrowth;
        ++retries;
        ++st.retries;
        escalateDegrade(nowNs);
    }
}

Status
ServeNode::ensureArena(Tenant &tenant)
{
    if (tenant.arena != 0)
        return Status::Success;
    // hipMalloc populates up front, so exhaustion is a clean
    // recoverable tryAllocate failure (no mid-fault OOM).
    std::uint64_t want =
        tier >= 1 ? cfg.degradedArenaBytes : cfg.arenaBytes;
    Status status = tenant.proc->runtime().tryAllocate(
        alloc::AllocatorKind::HipMalloc, want, tenant.arena);
    if (status == Status::Success)
        tenant.arenaBytes = want;
    return status;
}

Status
ServeNode::serveKeyValue(Tenant &tenant, SimTime &duration)
{
    // All host-clock charges inside this request -- arena build (the
    // churn cost a fresh process pays), streaming, frees -- land in
    // the latency through the clock delta.
    hip::Runtime &rt = tenant.proc->runtime();
    SimTime t0 = rt.now();
    Status status = ensureArena(tenant);
    if (status != Status::Success) {
        duration += rt.now() - t0;
        return status;
    }
    std::uint64_t bytes = std::min(cfg.kvSliceBytes, tenant.arenaBytes);
    std::uint64_t slices = tenant.arenaBytes / bytes;
    std::uint64_t offset = sizeRng.nextBelow(slices) * bytes;
    rt.cpuStream(tenant.arena + offset, bytes, 1);
    duration += rt.now() - t0;
    // Explicit fault-machinery charge: the per-request TLB/mapping
    // work, and UPMInject's path into the latency distribution (a
    // dropped HMM completion surfaces here as a structured Timeout).
    vm::FaultService svc = tenant.proc->faultHandler().service(
        vm::FaultType::Cpu, pagesOf(bytes));
    duration += svc.time;
    return svc.status;
}

Status
ServeNode::serveLlm(Tenant &tenant, SimTime &duration)
{
    hip::Runtime &rt = tenant.proc->runtime();
    SimTime t0 = rt.now();
    Status status = ensureArena(tenant);
    if (status != Status::Success) {
        duration += rt.now() - t0;
        return status;
    }

    // Per-request KV cache: committed for the request, freed at the
    // end whatever the outcome (no leak on the Timeout path).
    hip::DevPtr kv = 0;
    status = rt.tryAllocate(alloc::AllocatorKind::HipMalloc,
                            cfg.kvCacheBytes, kv);
    if (status != Status::Success) {
        duration += rt.now() - t0;
        return status;
    }

    hip::KernelDesc prefill;
    prefill.name = "llm_prefill";
    prefill.gridThreads = cfg.kvCacheBytes / 64;
    prefill.flops = static_cast<double>(cfg.kvCacheBytes);
    prefill.buffers = {
        {tenant.arena, std::min(tenant.arenaBytes, cfg.kvCacheBytes)},
        {kv, cfg.kvCacheBytes},
    };
    rt.launchKernel(prefill, nullptr);

    hip::KernelDesc decode;
    decode.name = "llm_decode";
    decode.gridThreads = cfg.kvCacheBytes / 256;
    decode.flops = 2.0 * static_cast<double>(cfg.kvCacheBytes);
    decode.buffers = {{kv, cfg.kvCacheBytes}};
    rt.launchKernel(decode, nullptr);

    vm::FaultService svc = tenant.proc->faultHandler().service(
        vm::FaultType::GpuMajor, pagesOf(cfg.kvCacheBytes));
    duration += svc.time;

    // The inference waits for its result: the synchronize edge orders
    // the kernels before any later CPU access to the arena (UPMSan's
    // race detector tracks exactly these happens-before edges), and
    // it drains the kernel time into the host clock so the delta
    // below covers allocation, kernels and the free.
    rt.deviceSynchronize();
    rt.freeChecked(kv);
    duration += rt.now() - t0;
    return svc.status;
}

void
ServeNode::spawnProcess(unsigned tenant_index)
{
    Tenant &tenant = tenants[tenant_index];
    tenant.proc = sys.createProcess();
    tenant.arena = 0;
    tenant.arenaBytes = 0;
    tenant.served = 0;
    ++st.processesSpawned;
    if (tr)
        tr->emit(trace::EventKind::ProcessSpawn, tenant.proc->pid(),
                 tenant_index, sys.processes().size());
    if (obs)
        obs->onProcessSpawn(tenant.proc->pid(), tenant_index);
}

void
ServeNode::retireProcess(unsigned tenant_index, bool crashed,
                         std::uint64_t &pages_out)
{
    Tenant &tenant = tenants[tenant_index];
    std::uint64_t pid = tenant.proc->pid();
    // Reclaim through the normal free paths (releaseAll + munmap of
    // stragglers) so UPMSan's shadow and the buddy free lists observe
    // ordinary frees; the Process destructor re-runs it idempotently.
    pages_out = tenant.proc->reclaim();
    tenant.proc.reset();
    tenant.arena = 0;
    tenant.arenaBytes = 0;
    tenant.served = 0;
    if (tr)
        tr->emit(trace::EventKind::ProcessExit, pid, tenant_index,
                 crashed ? 1 : 0, pages_out);
    if (obs)
        obs->onProcessExit(pid, tenant_index, crashed, pages_out);
}

void
ServeNode::maybeDegrade(SimTime now_ns)
{
    if (pressure() < cfg.rearmPressure) {
        tier = 0;
        return;
    }
    const double thresholds[3] = {cfg.tier1Pressure, cfg.tier2Pressure,
                                  cfg.tier3Pressure};
    while (tier < 3 && pressure() >= thresholds[tier])
        enterTier(tier + 1, now_ns);
    // Queued work is the strongest signal: if requests are waiting on
    // memory the node actively makes room one tier at a time, even
    // before the absolute thresholds trip -- otherwise pressure in
    // [queuePressure, tier1Pressure) would starve the queue into
    // deadline sheds with reclaimable memory sitting idle.
    if (!queue.empty() && tier < 3 && pressure() >= cfg.queuePressure)
        enterTier(tier + 1, now_ns);
    // Sustained tier-3 regime: entry may have found nothing to evict
    // (or not enough); keep sweeping idle processes while the pressure
    // holds above the threshold and there is something to take.
    if (tier == 3 && pressure() >= cfg.tier3Pressure) {
        for (unsigned i = 0; i < tenants.size(); ++i) {
            const Tenant &tenant = tenants[i];
            if (tenant.proc != nullptr && tenant.readyAt <= now_ns &&
                static_cast<int>(i) != dispatching) {
                enterTier(3, now_ns);
                break;
            }
        }
    }
}

void
ServeNode::escalateDegrade(SimTime now_ns)
{
    if (tier < 3)
        enterTier(tier + 1, now_ns);
}

void
ServeNode::enterTier(unsigned next_tier, SimTime now_ns)
{
    std::uint64_t pages = 0;
    std::uint64_t affected = 0;
    if (next_tier == 1) {
        // Tier 1: shrink per-process arenas. Oversized arenas are
        // freed now and lazily reallocated at the degraded size on the
        // tenant's next request.
        for (Tenant &tenant : tenants) {
            if (tenant.proc == nullptr || tenant.arena == 0 ||
                tenant.arenaBytes <= cfg.degradedArenaBytes) {
                continue;
            }
            pages += pagesOf(tenant.arenaBytes);
            tenant.proc->runtime().freeChecked(tenant.arena);
            tenant.arena = 0;
            tenant.arenaBytes = 0;
            ++affected;
        }
    } else if (next_tier == 2) {
        // Tier 2: demote every ReplicateRO replica back to its home
        // copy (replicas are pure performance state).
        for (Tenant &tenant : tenants) {
            if (tenant.proc == nullptr)
                continue;
            std::uint64_t freed =
                tenant.proc->addressSpace().demoteReplicas();
            pages += freed;
            if (freed)
                ++affected;
        }
    } else if (next_tier == 3) {
        // Tier 3: evict idle processes outright. MI300A UPM has no
        // GPU-driven page eviction (the paper's Section 6 point), so
        // the only lever left before hard OOM is whole-process
        // reclamation. The tenant mid-dispatch is never idle.
        for (unsigned i = 0; i < tenants.size(); ++i) {
            Tenant &tenant = tenants[i];
            if (tenant.proc == nullptr || tenant.readyAt > now_ns ||
                static_cast<int>(i) == dispatching) {
                continue;
            }
            std::uint64_t reclaimed = 0;
            retireProcess(i, false, reclaimed);
            pages += reclaimed;
            ++st.processesEvicted;
            ++affected;
        }
    }
    tier = next_tier;
    ++st.degradeEvents[next_tier - 1];
    st.pagesReclaimedDegrade += pages;
    if (tr)
        tr->emit(trace::EventKind::Degrade, next_tier, pages, affected, 0,
                 0, pressure());
    if (obs)
        obs->onDegrade(next_tier, pages);
}

} // namespace upm::serve
