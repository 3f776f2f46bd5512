/**
 * @file
 * UPMServe: a long-lived multi-tenant serving node over one System.
 *
 * The characterization benches run one workload to completion; a
 * serving node runs *forever*, multiplexing thousands of short-lived
 * simulated processes (core::Process) over the same shared HBM shards
 * while an open-loop arrival stream pushes memcached/YCSB-style and
 * LLM-inference-style requests at it. The interesting failure modes
 * are all resource-exhaustion shapes the one-shot benches never see:
 * admission under memory pressure, queue deadlines, allocation retry,
 * graceful degradation before hard OOM, and full reclamation when a
 * process dies mid-churn.
 *
 * Determinism contract: the node is a serial discrete-time simulation.
 * Virtual time, the arrival process, the tenant/kind mix and every
 * size draw derive from ServeConfig::seed through per-purpose
 * SplitMix64 streams; chaos (process kills, request storms) comes from
 * UPMInject's per-site streams, themselves pure functions of the
 * injection seed. One (System, ServeConfig) pair therefore produces
 * one request history bit-for-bit -- at any worker count, with tracing
 * on or off, and with or without a ServeObserver attached.
 *
 * Every failed request surfaces a structured Status: admission reject
 * and queue overflow are ResourceExhausted, queue-deadline and SLO
 * misses are Timeout, injected kills are Cancelled, and allocation
 * failure that survives the bounded retry ladder is OutOfMemory. No
 * panics, no silent drops: ServeStats::checkAccounting() proves every
 * arrival reached exactly one disposition.
 */

#ifndef UPM_SERVE_NODE_HH
#define UPM_SERVE_NODE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "core/process.hh"
#include "core/system.hh"
#include "serve/config.hh"
#include "serve/observer.hh"
#include "serve/request.hh"

namespace upm::serve {

/** Everything the node counted; see checkAccounting() for the
 *  conservation law tying the counters together. */
struct ServeStats
{
    /** Arrival-to-finish latency of every dispatched request that ran
     *  to completion (SLO misses included -- they did the work). */
    SampleStats latency;
    /** Time spent queued by requests that were eventually dispatched. */
    SampleStats queueWait;

    std::uint64_t arrivals = 0;
    /** Extra arrivals injected by request storms (subset of arrivals). */
    std::uint64_t stormArrivals = 0;
    /** Requests that went through the queue before dispatch. */
    std::uint64_t queued = 0;

    // Dispositions. Every arrival lands in exactly one bucket.
    std::uint64_t completed = 0;     //!< ran to completion (incl. SLO miss)
    std::uint64_t rejected = 0;      //!< ResourceExhausted at admission
    std::uint64_t deadlineShed = 0;  //!< Timeout while queued
    std::uint64_t cancelled = 0;     //!< injected process kill mid-dispatch
    std::uint64_t oomFailed = 0;     //!< OutOfMemory after the retry ladder

    /** Completed requests whose latency broke requestTimeoutNs; these
     *  report Status::Timeout but still count as completed. */
    std::uint64_t timedOut = 0;
    /** Allocation retries performed across all requests. */
    std::uint64_t retries = 0;

    /** Times each degradation tier (1..3) was entered. */
    std::uint64_t degradeEvents[3] = {0, 0, 0};
    std::uint64_t pagesReclaimedDegrade = 0;
    std::uint64_t pagesReclaimedCrash = 0;
    std::uint64_t pagesReclaimedRetire = 0;

    std::uint64_t processesSpawned = 0;
    std::uint64_t processesRetired = 0;  //!< clean lifetime exits
    std::uint64_t processesCrashed = 0;  //!< injected kills
    std::uint64_t processesEvicted = 0;  //!< tier-3 idle eviction

    /** Simulated time of the last disposition (ns). */
    SimTime endNs = 0.0;

    /**
     * The conservation law: arrivals == completed + rejected +
     * deadlineShed + cancelled + oomFailed. Panics (with the counter
     * breakdown) if any arrival was silently dropped or double
     * counted.
     */
    void checkAccounting() const;
};

/**
 * The serving node. Construct over a wired System (whose auditor /
 * injector / tracer the spawned processes inherit), then run(). The
 * node owns every process it spawns and retires them all before run()
 * returns, so a post-run System::finalizeAudit() sees only the memory
 * the primary address space holds.
 */
class ServeNode
{
  public:
    /** @param observer optional ServeObserver; null means no
     *  callbacks. Observers observe -- outcomes are byte-identical
     *  either way. */
    ServeNode(core::System &system, const ServeConfig &config,
              ServeObserver *observer = nullptr);
    ~ServeNode();

    ServeNode(const ServeNode &) = delete;
    ServeNode &operator=(const ServeNode &) = delete;

    /**
     * Generate and serve the whole configured arrival stream, drain
     * the queue, and retire every process. Callable once.
     */
    void run();

    const ServeStats &stats() const { return st; }
    const ServeConfig &config() const { return cfg; }

    /** Memory pressure right now: 1 - free/total over all shards. */
    double pressure() const;

    /** Degradation tier currently armed (0 = none, 1..3). */
    unsigned degradeTier() const { return tier; }

    /** The policy engine serving this node: the System's own
     *  (SystemConfig::policy), which every spawned process is built
     *  with; null when policy is off. */
    policy::PolicyEngine *policyEngine() const
    {
        return sys.policyEngine();
    }

  private:
    /** One tenant: a persistent identity served by churning processes. */
    struct Tenant
    {
        std::unique_ptr<core::Process> proc;
        /** Arena in proc's runtime; 0 until first use (and again
         *  after tier-1 shrink or process exit). */
        hip::DevPtr arena = 0;
        std::uint64_t arenaBytes = 0;
        /** Requests served by the current process (lifetime counter). */
        std::uint64_t served = 0;
        /** Virtual time the tenant's process is busy until. */
        SimTime readyAt = 0.0;
    };

    struct QueuedRequest
    {
        Request req;
        SimTime enqueuedNs = 0.0;
        SimTime deadlineNs = 0.0;
    };

    Request makeRequest(SimTime arrival_ns);
    void arrive(const Request &req, SimTime now_ns);
    /** Dispatch what the pressure allows, shed what the deadlines
     *  demand; called before every admission decision. */
    void pumpQueue(SimTime now_ns);
    void dispatch(const Request &req, SimTime start_ns, bool was_queued,
                  SimTime wait_ns);
    void shed(const Request &req, Status why);

    /** Serve the request body on @p tenant's live process; returns
     *  the modelled duration through @p duration, the ladder's retry
     *  count through @p retries, and the structured outcome. Runs the
     *  bounded OOM retry ladder internally. */
    Status serveBody(Tenant &tenant, const Request &req,
                     SimTime &duration, unsigned &retries);
    Status serveKeyValue(Tenant &tenant, SimTime &duration);
    Status serveLlm(Tenant &tenant, SimTime &duration);
    /** Arena at the tier-adjusted size; OutOfMemory on failure. */
    Status ensureArena(Tenant &tenant);

    void spawnProcess(unsigned tenant_index);
    /** @p crashed selects the exit flavour for trace/stats. */
    void retireProcess(unsigned tenant_index, bool crashed,
                       std::uint64_t &pages_out);

    /** Escalate through every tier the current pressure demands;
     *  re-arms to tier 0 below rearmPressure. */
    void maybeDegrade(SimTime now_ns);
    /** Force exactly one more tier (the OOM retry path). */
    void escalateDegrade(SimTime now_ns);
    void enterTier(unsigned next_tier, SimTime now_ns);

    core::System &sys;
    ServeConfig cfg;
    ServeStats st;

    std::vector<Tenant> tenants;
    std::deque<QueuedRequest> queue;

    /** Virtual node time (ns); advances with arrivals and the drain. */
    SimTime nowNs = 0.0;
    std::uint64_t nextRequestId = 0;
    unsigned tier = 0;
    bool ran = false;
    /** Tenant index currently mid-dispatch (tier-3 eviction must not
     *  pull the process out from under it), or -1. */
    int dispatching = -1;

    // Per-purpose deterministic streams, derived from cfg.seed.
    SplitMix64 arrivalRng;
    SplitMix64 mixRng;
    SplitMix64 sizeRng;

    /** UPMInject hook; null (no chaos) unless the System injects. */
    inject::Injector *inj = nullptr;
    /** UPMTrace hook; null (no overhead) unless the System traces. */
    trace::Tracer *tr = nullptr;
    /** ServeObserver hook; null (no overhead) unless given at
     *  construction. */
    ServeObserver *obs = nullptr;
};

} // namespace upm::serve

#endif // UPM_SERVE_NODE_HH
