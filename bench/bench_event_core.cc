/**
 * @file
 * Event-core bench: wall-clock of the discrete-event timing core
 * against the pre-event-core reference paths, plus the CI artifacts
 * for the replay-equivalence gate.
 *
 * Three parts:
 *
 *  1. Histogram scheduler point (the repo's largest least-advanced-
 *     agent workload, fig. 4 engine at fig. 11 scale): the TimeHeap
 *     calendar scheduler vs the O(ops x agents) linear scan it
 *     replaced, each timed 3 times in alternation. Every run must
 *     give byte-identical simulated metrics; the ratio of the two
 *     fastest times is the speedup `--check-speedup T` gates on.
 *
 *  2. Calendar drain point: runAll() over a cross-engine event soup;
 *     the per-engine stats are the reported metrics, the drain's wall
 *     time is printed.
 *
 *  3. Replay artifacts: `--dump trace.upmt --live-json live.json`
 *     runs a ring-traced oversubscription-evict workload, dumps the
 *     packed ring, and writes the live metrics in the same JSON schema
 *     `upmreplay --json` emits, so CI asserts byte-exact equivalence
 *     with scripts/bench_compare.py --metrics-only.
 *
 * Simulated metrics in the --json report are byte-identical at any
 * worker count; only wall_ms varies by machine.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/histogram_engine.hh"
#include "core/system.hh"
#include "sched/calendar.hh"
#include "sched/replay.hh"
#include "trace/sink.hh"
#include "vm/fault_handler.hh"

namespace upm {
namespace {

constexpr std::uint64_t kBenchSeed = 0xec02e000ull;

double
wallMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

core::SystemConfig
benchConfig()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 1 * GiB;
    return cfg;
}

// ---- Part 1: histogram scheduler ----------------------------------------

/** Timed runs per side; each side keeps its fastest, so one run slowed
 *  by host load cannot fail the speedup gate. */
constexpr int kTimedRuns = 3;

struct HistogramTimings
{
    core::HistogramResult result;
    double calendarMs = std::numeric_limits<double>::infinity();
    double scanMs = std::numeric_limits<double>::infinity();
};

bool
sameResult(const core::HistogramResult &a, const core::HistogramResult &b)
{
    return a.cpuOpsPerNs == b.cpuOpsPerNs &&
           a.gpuOpsPerNs == b.gpuOpsPerNs &&
           a.histogramSum == b.histogramSum && a.totalOps == b.totalOps &&
           a.lineConflicts == b.lineConflicts;
}

HistogramTimings
runHistogramPoint(const core::HistogramParams &params)
{
    HistogramTimings t;
    core::System sys(benchConfig());
    core::HistogramEngine engine(sys);

    core::HistogramParams p = params;
    for (int run = 0; run < kTimedRuns; ++run) {
        p.impl = core::HistogramImpl::Calendar;
        auto start = std::chrono::steady_clock::now();
        auto result = engine.run(p);
        t.calendarMs = std::min(t.calendarMs, wallMs(start));

        p.impl = core::HistogramImpl::Scan;
        start = std::chrono::steady_clock::now();
        auto reference = engine.run(p);
        t.scanMs = std::min(t.scanMs, wallMs(start));

        if (run == 0)
            t.result = reference;
        // The calendar port is an optimization, not a model change:
        // any drift from the reference scan, or between repeated runs,
        // is a bug, not a data point.
        if (!sameResult(result, t.result) ||
            !sameResult(reference, t.result)) {
            fatal("histogram calendar scheduler diverged from the "
                  "reference scan (timed run %d)",
                  run);
        }
    }
    return t;
}

// ---- Part 2: calendar drain ---------------------------------------------

/** Gap between consecutive links of one chain (ns). */
constexpr SimTime kChainGapNs = 64.0 + 1.0;

struct DrainTimings
{
    std::array<sched::EngineStats, sched::kNumEngines> stats{};
    std::size_t events = 0;
    double drainMs = 0.0;
};

/** Schedule one chain link; its handler schedules the next link
 *  kChainGapNs later on the next engine down. */
void
scheduleChainLink(sched::EventCalendar &cal, SimTime when, unsigned left)
{
    if (left == 0)
        return;
    unsigned engine = left % sched::kNumEngines;
    cal.schedule(static_cast<sched::EngineId>(engine), when,
                 static_cast<double>(left) * 0.25, [&cal, when, left] {
                     scheduleChainLink(cal, when + kChainGapNs, left - 1);
                 });
}

void
scheduleSoup(sched::EventCalendar &cal, std::size_t events)
{
    SplitMix64 rng(kBenchSeed);
    std::size_t chains = events / 8;
    for (std::size_t c = 0; c < chains; ++c) {
        std::uint64_t roll = rng.next();
        SimTime at = 1.0 + static_cast<double>(roll % 4096) * 0.5;
        scheduleChainLink(cal, at, 8);
    }
}

DrainTimings
runDrainPoint(std::size_t events)
{
    DrainTimings t;
    sched::EventCalendar cal;
    scheduleSoup(cal, events);
    auto start = std::chrono::steady_clock::now();
    t.events = cal.runAll();
    t.drainMs = wallMs(start);
    for (unsigned e = 0; e < sched::kNumEngines; ++e)
        t.stats[e] = cal.stats(static_cast<sched::EngineId>(e));
    return t;
}

// ---- Part 3: replay artifacts -------------------------------------------

/** Oversubscription-evict workload with memcpy/kernel/fault traffic:
 *  every replayed EventKind is on the bus. */
void
replayWorkload(core::System &sys)
{
    auto &rt = sys.runtime();
    rt.setXnack(true);
    std::vector<hip::DevPtr> held;
    hip::DevPtr p = 0;
    while (rt.tryAllocate(alloc::AllocatorKind::HipMalloc, 64 * MiB,
                          p) == hip::hipSuccess)
        held.push_back(p);
    rt.freeChecked(held.back());
    held.back() = rt.allocate(alloc::AllocatorKind::HipMalloc, 32 * MiB);

    hip::DevPtr scratch = rt.hostMalloc(16 * MiB);
    rt.cpuFirstTouch(scratch, 8 * MiB);
    rt.hipMemcpy(scratch, held.front(), 16 * MiB);
    hip::KernelDesc k;
    k.name = "evict_touch";
    k.buffers.push_back({scratch, 16 * MiB, 16 * MiB});
    rt.launchKernel(k, nullptr);
    rt.deviceSynchronize();
    rt.freeChecked(scratch);
    for (hip::DevPtr q : held)
        rt.freeChecked(q);
}

int
writeReplayArtifacts(const std::string &dump_path,
                     const std::string &live_json)
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 512 * MiB;
    cfg.trace.enabled = true;
    cfg.trace.ring = true;
    cfg.trace.ringCapacity = 1u << 20;
    core::System sys(cfg);
    replayWorkload(sys);

    trace::RingBufferSink *ring = sys.tracer()->ringSink();
    if (ring->dropped() != 0)
        fatal("replay ring dropped %llu events; raise ringCapacity",
              static_cast<unsigned long long>(ring->dropped()));
    if (!ring->dump(dump_path))
        fatal("cannot write ring dump to %s", dump_path.c_str());

    SimTime last = 0.0;
    for (const auto &ev : ring->events())
        last = std::max(last, ev.time);
    std::uint64_t busy = 0;
    for (bool b : sys.frames().busyMap())
        busy += b ? 1 : 0;

    const auto &live = sys.runtime().stats();
    const auto &tally = sys.faultHandler().tally();
    bench::JsonReporter report("replay_equiv", live_json);
    report.point()
        .metric("events", sys.tracer()->emitted())
        .metric("last_event_ns", last)
        .metric("alloc_calls", live.allocCalls)
        .metric("failed_alloc_calls", live.failedAllocCalls)
        .metric("free_calls", live.freeCalls)
        .metric("memcpy_calls", live.memcpyCalls)
        .metric("bytes_copied", live.bytesCopied)
        .metric("memcpy_time_ns", live.memcpyTimeNs)
        .metric("kernels_launched", live.kernelsLaunched)
        .metric("kernel_time_ns", live.kernelTimeNs)
        .metric("fault_service_calls", tally.calls)
        .metric("fault_service_pages", tally.pages)
        .metric("fault_service_time_ns", tally.timeNs)
        .metric("busy_frames", busy)
        .metric("present_pages",
                sys.addressSpace().systemTable().presentCount());
    report.write();
    std::printf("replay artifacts: %llu event(s) -> %s, live metrics "
                "-> %s\n",
                static_cast<unsigned long long>(sys.tracer()->emitted()),
                dump_path.c_str(), live_json.c_str());
    return 0;
}

int
run(int argc, char **argv)
{
    // Per-bench extras, stripped before the shared Options parse.
    double check_speedup = 0.0;
    std::string dump_path;
    std::string live_json;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-speedup") == 0 &&
            i + 1 < argc) {
            check_speedup = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
            dump_path = argv[++i];
        } else if (std::strcmp(argv[i], "--live-json") == 0 &&
                   i + 1 < argc) {
            live_json = argv[++i];
        } else {
            rest.push_back(argv[i]);
        }
    }
    bench::Options opt = bench::Options::parse(
        static_cast<int>(rest.size()), rest.data());

    bench::banner("the event-core timing engine",
                  "calendar scheduler vs the reference scan, plus the "
                  "calendar drain");

    if (!dump_path.empty() || !live_json.empty()) {
        if (dump_path.empty() || live_json.empty()) {
            std::fprintf(stderr,
                         "--dump and --live-json must be given "
                         "together\n");
            return 2;
        }
        return writeReplayArtifacts(dump_path, live_json);
    }

    bench::JsonReporter report("event_core", opt.jsonPath);

    // Largest histogram point: fig. 4's engine at fig. 11 agent scale.
    core::HistogramParams params;
    params.elems = 1u << 16;
    params.cpuThreads = 16;
    params.gpuThreads = opt.smoke ? 2048 : 4096;
    params.opsPerThread = opt.smoke ? 50 : 120;
    params.seed = kBenchSeed;
    HistogramTimings h = runHistogramPoint(params);
    double speedup = h.scanMs / h.calendarMs;
    std::printf("histogram %u agents x %u ops: calendar %.1f ms, "
                "scan %.1f ms, speedup %.1fx\n",
                params.cpuThreads + params.gpuThreads,
                params.opsPerThread, h.calendarMs, h.scanMs, speedup);
    report.point()
        .param("point", "histogram")
        .param("agents",
               std::uint64_t(params.cpuThreads + params.gpuThreads))
        .param("ops_per_thread", std::uint64_t(params.opsPerThread))
        .metric("cpu_ops_per_ns", h.result.cpuOpsPerNs)
        .metric("gpu_ops_per_ns", h.result.gpuOpsPerNs)
        .metric("histogram_sum", h.result.histogramSum)
        .metric("total_ops", h.result.totalOps)
        .metric("line_conflicts", h.result.lineConflicts);

    // Cross-engine drain of a chained event soup.
    std::size_t soup = opt.smoke ? 40000 : 200000;
    DrainTimings d = runDrainPoint(soup);
    std::printf("drain %zu events: %.1f ms\n", d.events, d.drainMs);
    auto &point = report.point().param("point", "drain").param(
        "events", std::uint64_t(d.events));
    for (unsigned e = 0; e < sched::kNumEngines; ++e) {
        auto name = std::string(
            sched::engineName(static_cast<sched::EngineId>(e)));
        point.metric(("executed_" + name).c_str(), d.stats[e].executed)
            .metric(("busy_ns_" + name).c_str(), d.stats[e].busyNs);
    }

    report.write();
    if (check_speedup > 0.0 && speedup < check_speedup) {
        std::fprintf(stderr,
                     "FAIL: histogram speedup %.2fx below the required "
                     "%.2fx\n",
                     speedup, check_speedup);
        return 1;
    }
    return 0;
}

} // namespace
} // namespace upm

int
main(int argc, char **argv)
{
    return upm::run(argc, argv);
}
