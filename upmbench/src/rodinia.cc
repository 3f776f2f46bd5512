/**
 * @file
 * Workload `rodinia`: the six Rodinia ports (seven apps, heartwall v1
 * and v2) in the explicit and unified models, 14 unaudited runs on
 * exec::globalPool() with 2 workers, one fresh System per run.
 *
 * Exercises vm, mem, hip, alloc and the cache/perf model through large
 * populates, GPU faults and HMM mirroring, and the pool's load balance
 * (nn explicit is the straggler). App inputs are fixed by the ports,
 * so the benchmark seed does not reach this workload. Audit, serve,
 * uvm and policy stay idle.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/system.hh"
#include "exec/task_pool.hh"
#include "trace/event.hh"
#include "workloads/workload.hh"

namespace upmbench {

namespace {

using namespace upm;
using workloads::Model;

constexpr unsigned kWorkers = 2;

/** Outcome of one (app, model) run. */
struct Run
{
    workloads::RunReport report;
    std::uint64_t schedEvents = 0;
    std::uint64_t freeListGrowth = 0;
    std::uint64_t faultedPages = 0;
    std::uint64_t traceEvents[trace::kNumLayers] = {};
    std::string error;

    std::uint64_t
    digest() const
    {
        Digest d;
        d.add(report.app);
        d.add(static_cast<std::uint64_t>(report.model));
        d.add(report.totalTime);
        d.add(report.computeTime);
        d.add(report.peakMemory);
        d.add(report.checksum);
        d.add(schedEvents);
        d.add(freeListGrowth);
        d.add(faultedPages);
        d.add(error);
        return d.value();
    }
};

class RodiniaRunner : public Runner
{
  public:
    explicit RodiniaRunner(const Options &options) : opt(options)
    {
        for (const auto &w : workloads::makeAllWorkloads()) {
            apps.push_back(w->name());
            for (Model m : {Model::Explicit, Model::Unified})
                labels.push_back(w->name() + "/" + workloads::modelName(m));
        }
        lastDigest.assign(labels.size(), 0);
    }

    unsigned workers() const override { return kWorkers; }

    PassResult
    pass() override
    {
        PassResult out;
        std::vector<Run> runs = runAll(false, &out);
        Digest digest;
        std::uint64_t free_growth = 0, sched_events = 0, checksum_ok = 0;
        for (std::size_t t = 0; t < runs.size(); ++t) {
            const Run &r = runs[t];
            ++out.ops;
            digest.add(r.digest());
            lastDigest[t] = r.digest();
            out.requests += static_cast<double>(r.schedEvents);
            out.pages += static_cast<double>(r.faultedPages);
            free_growth += r.freeListGrowth;
            sched_events += r.schedEvents;
            if (!r.error.empty())
                out.fail("rodinia/" + labels[t] + ": unstructured error: " +
                         r.error);
        }
        for (std::size_t i = 0; i < apps.size(); ++i) {
            // The break hook pairs app i's explicit run with the next
            // app's unified run.
            const std::size_t j =
                opt.breakInvariant && i == 0 ? 1 : i;
            if (runs[2 * i].report.checksum ==
                runs[2 * j + 1].report.checksum)
                ++checksum_ok;
            else
                out.fail("rodinia/" + apps[i] +
                         ": explicit and unified checksums differ");
        }
        Metrics &c = out.counts;
        c["mem.free_list_growth"] = static_cast<double>(free_growth);
        c["sched.events"] = static_cast<double>(sched_events);
        c["workloads.checksum_ok"] = static_cast<double>(checksum_ok);
        out.digest = digest.value();
        return out;
    }

    Metrics
    layerMetrics(const std::vector<const Span *> &spans,
                 const PassResult &result) override
    {
        Metrics m = result.counts;
        const char *kRun = "workloads::Workload::run";
        double run_max = 0.0, explicit_ms = 0.0, unified_ms = 0.0;
        for (std::size_t t = 0; t < labels.size(); ++t) {
            const double ms = sumMs(spans, kRun, labels[t].c_str());
            run_max = std::max(run_max, ms);
            (t % 2 == 0 ? explicit_ms : unified_ms) += ms;
            m["workloads." + apps[t / 2] + "_ms"] += ms;
        }
        m["workloads.explicit_ms"] = explicit_ms;
        m["workloads.unified_ms"] = unified_ms;
        m["workloads.run_ms_max"] = run_max;
        m["core.system_ms"] = sumMs(spans, "core::System");
        m["core.teardown_ms"] = sumMs(spans, "core::System::~System");
        m["hip.ballast_ms"] = 0.0;  // no ballast on this workload
        const double pool_ms = sumMs(spans, "exec::TaskPool::parallelFor");
        m["exec.busy_frac"] =
            pool_ms > 0.0 ? sumMs(spans, kUnitSpan) / (kWorkers * pool_ms)
                          : 0.0;
        return m;
    }

    Attribution
    attribute(const Metrics &) override
    {
        // UPMTrace event counts from one traced rerun of every run;
        // tracing must not move any simulated output.
        Attribution a;
        std::vector<Run> runs = runAll(true, nullptr);
        std::uint64_t events[trace::kNumLayers] = {};
        for (std::size_t t = 0; t < runs.size(); ++t) {
            ++a.ops;
            if (runs[t].digest() != lastDigest[t])
                a.fail("rodinia/" + labels[t] +
                       ": UPMTrace changed simulated outputs");
            for (unsigned l = 0; l < trace::kNumLayers; ++l)
                events[l] += runs[t].traceEvents[l];
        }
        addTraceEvents(a.metrics, events);
        return a;
    }

  private:
    /**
     * Set-up builds every run's System serially; the measured phase
     * runs the 14 workloads on the pool and tears each System down in
     * its task. @p out (when given) receives the phase timings.
     */
    std::vector<Run>
    runAll(bool upmtrace, PassResult *out)
    {
        const std::size_t n = labels.size();
        core::SystemConfig cfg;
        cfg.trace.enabled = upmtrace;
        std::vector<std::unique_ptr<core::System>> systems(n);
        std::vector<std::unique_ptr<workloads::Workload>> wls(n);
        std::vector<std::uint64_t> nodes0(n);
        std::vector<Run> runs(n);
        const int parent = currentSpan();
        const std::uint64_t unit0 = nextUnit;
        nextUnit += n;

        PhaseClock setup;
        setup.start();
        for (std::size_t t = 0; t < n; ++t) {
            SpanScope sp("core::System", labels[t].c_str(), unit0 + t,
                         parent);
            systems[t] = std::make_unique<core::System>(cfg);
            wls[t] = std::move(workloads::makeAllWorkloads()[t / 2]);
            nodes0[t] = systems[t]->nodeMemory().freeListNodes();
        }
        setup.stop();

        PhaseClock measured;
        measured.start();
        {
            SpanScope pool("exec::TaskPool::parallelFor");
            const int pool_span = pool.id();
            exec::globalPool().parallelFor(n, [&](std::size_t t) {
                SpanScope unit(kUnitSpan, labels[t].c_str(), unit0 + t,
                               pool_span);
                runOne(*systems[t], *wls[t],
                       t % 2 == 0 ? Model::Explicit : Model::Unified,
                       nodes0[t], runs[t]);
                SpanScope sp("core::System::~System");
                systems[t].reset();
            });
        }
        measured.stop();
        if (out != nullptr) {
            out->setupS = setup.wall;
            out->wallS = measured.wall;
            out->cpuS = measured.cpu;
        }
        return runs;
    }

    static void
    runOne(core::System &sys, workloads::Workload &wl, Model model,
           std::uint64_t nodes0, Run &r)
    {
        try {
            SpanScope sp("workloads::Workload::run");
            r.report = wl.run(sys, model);
        } catch (const std::exception &e) {
            r.error = e.what();
        }
        const std::uint64_t nodes1 = sys.nodeMemory().freeListNodes();
        r.freeListGrowth = nodes1 > nodes0 ? nodes1 - nodes0 : 0;
        r.schedEvents = calendarEvents(sys);
        const hip::RuntimeStats &rs = sys.runtime().stats();
        r.faultedPages = rs.cpuFaultedPages + rs.gpuFaultedPagesMajor +
                         rs.gpuFaultedPagesMinor;
        countTraceEvents(sys, r.traceEvents);
    }

    Options opt;
    std::vector<std::string> apps;
    /** "<app>/<model>" per run; spans point into these strings. */
    std::vector<std::string> labels;
    std::vector<std::uint64_t> lastDigest;
    std::uint64_t nextUnit = 0;
};

} // namespace

std::unique_ptr<Runner>
makeRodinia(const Options &opt)
{
    return std::make_unique<RodiniaRunner>(opt);
}

} // namespace upmbench
