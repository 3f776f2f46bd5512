/**
 * @file
 * Workload `serve`: bench_serving's steady, churn and pressure
 * scenarios at full scale, audited, one fresh System per scenario.
 *
 * Covers serve, hip, alloc, vm and mem with process churn (churn
 * creates and destroys an AddressSpace per request) and the UPMSan
 * race detector, the dominant host cost. uvm and policy stay idle.
 */

#include <memory>
#include <string>

#include "audit/auditor.hh"
#include "bench.hh"
#include "common/units.hh"
#include "core/system.hh"
#include "exec/task_pool.hh"
#include "serve/node.hh"
#include "trace/event.hh"

namespace upmbench {

namespace {

using namespace upm;

struct Scenario
{
    const char *label;
    std::uint64_t capacityBytes;
    /** Held by the primary process to park the node's base pressure. */
    std::uint64_t ballastBytes;
    std::uint64_t requests;
    unsigned tenants;
    std::uint64_t lifetime;
    double rateHz;
};

// bench_serving's first three scenarios, full scale.
constexpr Scenario kScenarios[] = {
    {"steady", 512 * MiB, 0, 4096, 8, 64, 50.0e3},
    {"churn", 512 * MiB, 0, 4096, 8, 1, 50.0e3},
    {"pressure", 256 * MiB, 120 * MiB, 2048, 16, 32, 50.0e3},
};
constexpr std::size_t kNumScenarios = std::size(kScenarios);

/** Free-list nodes a scenario may add before it counts as fragmented
 *  (bench_serving's bound). */
constexpr std::uint64_t kMaxFreeListGrowth = 16;

struct Mode
{
    bool audited = true;
    bool upmtrace = false;
    bool leakFrame = false;
};

/** Outcome of one scenario on one fresh System. */
struct Unit
{
    serve::ServeStats st;
    std::uint64_t frameLeaks = 0;
    std::uint64_t violations = 0;
    std::uint64_t trackedPages = 0;
    std::uint64_t freeListGrowth = 0;
    std::uint64_t schedEvents = 0;
    std::uint64_t traceEvents[trace::kNumLayers] = {};
    std::string error;
    double setupS = 0.0;
    double runS = 0.0;  //!< ServeNode::run alone
    PhaseClock measured;

    /** Simulated outputs the auditor must not change. */
    std::uint64_t simDigest() const
    {
        Digest d;
        for (std::uint64_t v :
             {st.arrivals, st.stormArrivals, st.queued, st.completed,
              st.rejected, st.deadlineShed, st.cancelled, st.oomFailed,
              st.timedOut, st.retries, st.degradeEvents[0],
              st.degradeEvents[1], st.degradeEvents[2],
              st.pagesReclaimedDegrade, st.pagesReclaimedCrash,
              st.pagesReclaimedRetire, st.processesSpawned,
              st.processesRetired, st.processesCrashed,
              st.processesEvicted, freeListGrowth, schedEvents})
            d.add(v);
        d.add(st.endNs);
        d.add(static_cast<std::uint64_t>(st.latency.count()));
        if (st.latency.count() != 0) {
            d.add(st.latency.percentile(50.0));
            d.add(st.latency.percentile(99.0));
            d.add(st.latency.p999());
            d.add(st.latency.mean());
        }
        if (st.queueWait.count() != 0)
            d.add(st.queueWait.mean());
        d.add(error);
        return d.value();
    }

    /** simDigest plus the audit outcome. */
    std::uint64_t digest() const
    {
        Digest d;
        d.add(simDigest());
        d.add(frameLeaks);
        d.add(violations);
        d.add(trackedPages);
        return d.value();
    }
};

Unit
runScenario(const Scenario &s, std::uint64_t seed, const Mode &mode,
            std::uint64_t unit_id)
{
    Unit u;
    SpanScope unit_span(kUnitSpan, s.label, unit_id);
    PhaseClock setup;
    setup.start();
    core::SystemConfig syscfg;
    syscfg.geometry.capacityBytes = s.capacityBytes;
    syscfg.audit.enabled = mode.audited;
    syscfg.audit.warnOnViolation = false;
    syscfg.trace.enabled = mode.upmtrace;

    serve::ServeConfig cfg;
    cfg.seed = seed;
    cfg.numRequests = s.requests;
    cfg.numTenants = s.tenants;
    cfg.processLifetime = s.lifetime;
    cfg.arrivalRateHz = s.rateHz;

    std::unique_ptr<core::System> sys;
    std::unique_ptr<serve::ServeNode> node;
    bool in_setup = true;
    try {
        {
            SpanScope sp("core::System");
            sys = std::make_unique<core::System>(syscfg);
        }
        if (s.ballastBytes != 0) {
            SpanScope sp("hip::Runtime::hipMalloc");
            sys->runtime().hipMalloc(s.ballastBytes);
        }
        const std::uint64_t nodes0 = sys->nodeMemory().freeListNodes();
        {
            SpanScope sp("serve::ServeNode::ServeNode");
            node = std::make_unique<serve::ServeNode>(*sys, cfg);
        }
        setup.stop();
        in_setup = false;
        u.measured.start();

        const double r0 = wallNow();
        {
            SpanScope sp("serve::ServeNode::run");
            node->run();
        }
        u.runS = wallNow() - r0;
        u.st = node->stats();
        {
            SpanScope sp("serve::ServeNode::~ServeNode");
            node.reset();
        }
        const std::uint64_t nodes1 = sys->nodeMemory().freeListNodes();
        u.freeListGrowth = nodes1 > nodes0 ? nodes1 - nodes0 : 0;
        u.schedEvents = calendarEvents(*sys);
        if (mode.leakFrame) {
            // A busy frame nobody maps: the leak scan must flag it.
            auto leaked = sys->frames().allocRun(1);
            (void)leaked;
        }
        if (audit::Auditor *aud = sys->auditor()) {
            {
                SpanScope sp("core::System::finalizeAudit");
                sys->finalizeAudit();
            }
            u.frameLeaks = aud->countOf(audit::ViolationKind::FrameLeak);
            u.violations = aud->totalViolations();
            u.trackedPages = aud->races().trackedPages();
        }
        countTraceEvents(*sys, u.traceEvents);
    } catch (const std::exception &e) {
        u.error = e.what();
    }
    node.reset();
    {
        SpanScope sp("core::System::~System");
        sys.reset();
    }
    if (in_setup)
        setup.stop();
    else
        u.measured.stop();
    u.setupS = setup.wall;
    return u;
}

/** Failures of the invariants every correct model keeps. */
void
check(const Scenario &s, const Unit &u, PassResult &out)
{
    std::string where = std::string("serve/") + s.label + ": ";
    if (!u.error.empty()) {
        out.fail(where + "unstructured error: " + u.error);
        return;
    }
    const serve::ServeStats &st = u.st;
    std::uint64_t dispositions = st.completed + st.rejected +
                                 st.deadlineShed + st.cancelled +
                                 st.oomFailed;
    if (dispositions != st.arrivals)
        out.fail(where + "arrivals not all accounted for");
    else if (u.violations != 0)
        out.fail(where + std::to_string(u.violations) +
                 " UPMSan violation(s), " + std::to_string(u.frameLeaks) +
                 " frame leak(s)");
    else if (u.freeListGrowth > kMaxFreeListGrowth)
        out.fail(where + "free lists fragmented by " +
                 std::to_string(u.freeListGrowth) + " node(s)");
}

class ServeRunner : public Runner
{
  public:
    explicit ServeRunner(const Options &options) : opt(options) {}

    unsigned workers() const override { return 1; }

    std::uint64_t
    scenarioSeed(std::size_t i) const
    {
        return exec::taskSeed(opt.seed, i);
    }

    PassResult
    pass() override
    {
        PassResult out;
        Digest digest;
        Mode mode;
        mode.leakFrame = opt.breakInvariant;
        double p99_ms = 0.0, slo_frac = 0.0;
        Metrics &c = out.counts;
        for (std::size_t i = 0; i < kNumScenarios; ++i) {
            const Scenario &s = kScenarios[i];
            Unit u = runScenario(s, scenarioSeed(i), mode, nextUnit++);
            ++out.ops;
            check(s, u, out);
            out.setupS += u.setupS;
            out.wallS += u.measured.wall;
            out.cpuS += u.measured.cpu;
            digest.add(u.digest());
            lastSim[i] = u.simDigest();
            lastFull[i] = u.digest();

            const serve::ServeStats &st = u.st;
            out.requests += static_cast<double>(st.arrivals);
            out.pages += static_cast<double>(st.pagesReclaimedDegrade +
                                             st.pagesReclaimedCrash +
                                             st.pagesReclaimedRetire);
            c["serve.arrivals"] += st.arrivals;
            c["serve.completed"] += st.completed;
            c["serve.shed"] += st.rejected + st.deadlineShed;
            c["serve.oom_failed"] += st.oomFailed;
            c["serve.retries"] += st.retries;
            c["serve.processes_spawned"] += st.processesSpawned;
            c["audit.violations"] += u.violations;
            c["audit.race_tracked_pages"] += u.trackedPages;
            c["mem.free_list_growth"] += u.freeListGrowth;
            c["sched.events"] += u.schedEvents;
            // Latency and SLO figures come from steady (kScenarios[0]),
            // the tail-latency baseline.
            if (i == 0 && st.arrivals != 0 && st.latency.count() != 0) {
                p99_ms = st.latency.percentile(99.0) / 1e6;
                slo_frac = static_cast<double>(st.completed - st.timedOut) /
                           static_cast<double>(st.arrivals);
            }
        }
        c["serve.sim_p99_ms"] = p99_ms;
        c["serve.slo_met_frac"] = slo_frac;
        out.digest = digest.value();
        return out;
    }

    Metrics
    layerMetrics(const std::vector<const Span *> &spans,
                 const PassResult &result) override
    {
        Metrics m = result.counts;
        const double run_ms = sumMs(spans, "serve::ServeNode::run");
        m["serve.run_ms"] = run_ms;
        for (const Scenario &s : kScenarios) {
            m[std::string("serve.scenario_ms.") + s.label] =
                sumMs(spans, "serve::ServeNode::run", s.label);
        }
        m["serve.host_us_per_req"] =
            result.requests > 0.0 ? run_ms * 1e3 / result.requests : 0.0;
        m["core.system_ms"] = sumMs(spans, "core::System");
        m["core.teardown_ms"] = sumMs(spans, "core::System::~System");
        m["hip.ballast_ms"] = sumMs(spans, "hip::Runtime::hipMalloc");
        m["audit.finalize_ms"] =
            sumMs(spans, "core::System::finalizeAudit");
        return m;
    }

    Attribution
    attribute(const Metrics &layers) override
    {
        Attribution a;
        // Observer attribution: the same scenarios with the auditor
        // unwired must produce the same simulated outputs; the time
        // they save is the auditor's share of serving.
        constexpr unsigned kReps = 3;
        std::vector<double> unaudited;
        for (unsigned rep = 0; rep < kReps; ++rep) {
            double run_s = 0.0;
            for (std::size_t i = 0; i < kNumScenarios; ++i) {
                Mode mode;
                mode.audited = false;
                Unit u = runScenario(kScenarios[i], scenarioSeed(i), mode,
                                     nextUnit++);
                ++a.ops;
                run_s += u.runS;
                if (!u.error.empty() || u.simDigest() != lastSim[i]) {
                    a.fail(std::string("serve/") + kScenarios[i].label +
                           ": unaudited outputs differ from audited");
                }
            }
            unaudited.push_back(run_s * 1e3);
        }
        const double audited_ms = layers.at("serve.run_ms");
        a.metrics["audit.share"] =
            audited_ms > 0.0 ? 1.0 - median(unaudited) / audited_ms : 0.0;

        // UPMTrace event counts, from one traced rerun per scenario;
        // tracing must not move any simulated output either.
        std::uint64_t events[trace::kNumLayers] = {};
        for (std::size_t i = 0; i < kNumScenarios; ++i) {
            Mode mode;
            mode.upmtrace = true;
            Unit u = runScenario(kScenarios[i], scenarioSeed(i), mode,
                                 nextUnit++);
            ++a.ops;
            if (!u.error.empty() || u.digest() != lastFull[i]) {
                a.fail(std::string("serve/") + kScenarios[i].label +
                       ": UPMTrace changed simulated outputs");
            }
            for (unsigned l = 0; l < trace::kNumLayers; ++l)
                events[l] += u.traceEvents[l];
        }
        addTraceEvents(a.metrics, events);
        return a;
    }

  private:
    Options opt;
    std::uint64_t nextUnit = 0;
    std::uint64_t lastSim[kNumScenarios] = {};
    std::uint64_t lastFull[kNumScenarios] = {};
};

} // namespace

std::unique_ptr<Runner>
makeServe(const Options &opt)
{
    return std::make_unique<ServeRunner>(opt);
}

} // namespace upmbench
