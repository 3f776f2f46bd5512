/**
 * @file
 * UPMBench core: options, host clocks, the simulated-output digest,
 * the span log of the traced mode, and the Runner interface each
 * workload implements.
 *
 * Every number this file produces is host time (steady_clock,
 * getrusage) or a count read from a public upmsim counter. Simulated
 * values enter only through the digest, which a pure host-time
 * speed-up must leave unchanged.
 */

#ifndef UPMBENCH_BENCH_HH
#define UPMBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace upm::core {
class System;
}

namespace upmbench {

/** Command line of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced mode writes its spans (Chrome trace JSON). */
    std::string spansPath;
    /** Test hook: deliberately violate one invariant per pass so the
     *  failure accounting can be shown to work. */
    bool breakInvariant = false;
};

/** Host wall clock, seconds since the process started. */
double wallNow();
/** Host CPU time of the whole process (user + system), seconds. */
double cpuNow();
/** Restart the process's resident-set high-water mark (Linux
 *  clear_refs). Where the kernel cannot, the mark keeps the run's. */
void resetPeakRss();
/** Resident-set high-water mark since the last reset, MiB. */
double peakRssMb();

double median(std::vector<double> v);

/** "0x" + 16 hex digits. */
std::string hex64(std::uint64_t v);

/** Wall + CPU stopwatch for one phase segment; accumulates across
 *  start/stop pairs. */
struct PhaseClock
{
    double wall = 0.0;
    double cpu = 0.0;
    void start();
    void stop();

  private:
    double w0 = 0.0;
    double c0 = 0.0;
};

/** FNV-1a over simulated outputs. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** One recorded span: a timed call into a layer's public function. */
struct Span
{
    const char *name = "";
    /** Unit label (scenario, point or app run) the span belongs to. */
    const char *label = "";
    std::uint64_t unit = 0;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    unsigned pass = 0;
    unsigned thread = 0;

    double dur() const { return end - start; }
};

/**
 * In-memory span store of the traced mode. Disabled (the default)
 * every call is a flag test; spans are written out once, at the end
 * of the run.
 */
class SpanLog
{
  public:
    bool enabled() const { return on; }
    void enable(unsigned pass);
    void disable() { on = false; }

    /** Open a span; returns its id, or -1 when disabled. @p label and
     *  @p unit are inherited from @p parent when label is null. */
    int open(const char *name, const char *label, std::uint64_t unit,
             int parent);
    void close(int id);

    std::vector<Span> spans() const;
    bool writeChrome(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> log;
    std::atomic<bool> on{false};
    unsigned pass = 0;
};

SpanLog &spanLog();

/** RAII span; a child of the calling thread's innermost open span
 *  unless a parent is given. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, const char *label = nullptr,
                       std::uint64_t unit = 0);
    SpanScope(const char *name, const char *label, std::uint64_t unit,
              int parent);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return self; }

  private:
    int self = -1;
    int saved = -1;
};

/** The innermost span open on this thread, or -1. */
int currentSpan();

/** Sum of durations of spans named @p name (optionally of one unit
 *  label), milliseconds. */
double sumMs(const std::vector<const Span *> &spans, const char *name,
             const char *label = nullptr);

/** Durations of spans named @p name, microseconds. */
std::vector<double> durationsUs(const std::vector<const Span *> &spans,
                                const char *name);

/** Span names of the harness's own structure; every other span is a
 *  call into a layer. */
inline constexpr const char *kPassSpan = "pass";
inline constexpr const char *kUnitSpan = "unit";

/** Fraction of the pass spans' time not covered by any layer-call
 *  span: the harness's own share of a traced pass. */
double selfFraction(const std::vector<const Span *> &spans);

using Metrics = std::map<std::string, double>;

/** Ops attempted and failed, with the reason for each failure. */
struct Outcome
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }
};

/** What one pass over all of a workload's units produced. */
struct PassResult : Outcome
{
    double wallS = 0.0;   //!< measured phase, set-up excluded
    double cpuS = 0.0;    //!< user + system CPU of the measured phase
    double setupS = 0.0;  //!< all set-up segments of the pass
    double peakRssMb = 0.0;
    std::uint64_t digest = 0;
    /** Work done, the numerators of req_per_s and pages_per_s. */
    double requests = 0.0;
    double pages = 0.0;
    /** Deterministic per-layer counts read from upmsim. */
    Metrics counts;
};

/** Checks and timings the traced mode adds after its timed passes. */
struct Attribution : Outcome
{
    Metrics metrics;
};

/** One workload. */
class Runner
{
  public:
    virtual ~Runner() = default;

    /** Run every unit once on fresh model state. Spans are recorded
     *  when the span log is enabled. */
    virtual PassResult pass() = 0;

    /** Per-layer metrics of one traced pass: span times plus the
     *  pass's counts. */
    virtual Metrics layerMetrics(const std::vector<const Span *> &spans,
                                 const PassResult &result) = 0;

    /** Traced-mode extras: observer attribution, UPMTrace event
     *  counts, verified replays. @p layers holds the medians of the
     *  traced passes' layer metrics. */
    virtual Attribution attribute(const Metrics &layers) = 0;

    /** Worker threads the workload runs on. */
    virtual unsigned workers() const = 0;
};

/** Events the System's calendar executed, summed over its engines. */
std::uint64_t calendarEvents(upm::core::System &sys);

/** Add the System's UPMTrace events (if it traces) per trace::Layer
 *  into @p events_by_layer. */
void countTraceEvents(const upm::core::System &sys,
                      std::uint64_t *events_by_layer);

/** Set trace.events.{vm,mem,cache,hip,serve} from UPMTrace event
 *  counts indexed by trace::Layer. */
void addTraceEvents(Metrics &m, const std::uint64_t *events_by_layer);

std::unique_ptr<Runner> makeServe(const Options &opt);
std::unique_ptr<Runner> makeUvmOversub(const Options &opt);
std::unique_ptr<Runner> makeRodinia(const Options &opt);

} // namespace upmbench

#endif // UPMBENCH_BENCH_HH
