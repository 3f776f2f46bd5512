#include "bench.hh"

#include "core/system.hh"
#include "trace/event.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace upmbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

thread_local int tlsCurrent = -1;

unsigned
threadOrdinal()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned mine = next++;
    return mine;
}

} // namespace

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof(line), f) != nullptr)
            found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
        std::fclose(f);
        if (found)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
PhaseClock::start()
{
    w0 = wallNow();
    c0 = cpuNow();
}

void
PhaseClock::stop()
{
    wall += wallNow() - w0;
    cpu += cpuNow() - c0;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

// ---- Span log ---------------------------------------------------------

void
SpanLog::enable(unsigned pass_index)
{
    std::lock_guard<std::mutex> lock(mu);
    pass = pass_index;
    on = true;
}

int
SpanLog::open(const char *name, const char *label, std::uint64_t unit,
              int parent)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.thread = threadOrdinal();
    std::lock_guard<std::mutex> lock(mu);
    if (label == nullptr && parent >= 0) {
        s.label = log[static_cast<std::size_t>(parent)].label;
        s.unit = log[static_cast<std::size_t>(parent)].unit;
    } else {
        s.label = label != nullptr ? label : "";
        s.unit = unit;
    }
    s.pass = pass;
    s.start = wallNow();
    log.push_back(s);
    return static_cast<int>(log.size() - 1);
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    double t = wallNow();
    std::lock_guard<std::mutex> lock(mu);
    log[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return log;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::vector<Span> all = spans();
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"unit\":%llu,"
                     "\"label\":\"%s\",\"pass\":%u}}%s\n",
                     s.name, s.thread, s.start * 1e6, s.dur() * 1e6, i,
                     s.parent, static_cast<unsigned long long>(s.unit),
                     s.label, s.pass, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

int
currentSpan()
{
    return tlsCurrent;
}

SpanScope::SpanScope(const char *name, const char *label,
                     std::uint64_t unit)
    : SpanScope(name, label, unit, tlsCurrent)
{
}

SpanScope::SpanScope(const char *name, const char *label,
                     std::uint64_t unit, int parent)
{
    self = spanLog().open(name, label, unit, parent);
    if (self >= 0) {
        saved = tlsCurrent;
        tlsCurrent = self;
    }
}

SpanScope::~SpanScope()
{
    if (self >= 0) {
        spanLog().close(self);
        tlsCurrent = saved;
    }
}

double
sumMs(const std::vector<const Span *> &spans, const char *name,
      const char *label)
{
    double s = 0.0;
    for (const Span *sp : spans) {
        if (std::strcmp(sp->name, name) == 0 &&
            (label == nullptr || std::strcmp(sp->label, label) == 0))
            s += sp->dur();
    }
    return s * 1e3;
}

std::vector<double>
durationsUs(const std::vector<const Span *> &spans, const char *name)
{
    std::vector<double> out;
    for (const Span *sp : spans) {
        if (std::strcmp(sp->name, name) == 0)
            out.push_back(sp->dur() * 1e6);
    }
    return out;
}

double
selfFraction(const std::vector<const Span *> &spans)
{
    // Time of the pass spans not covered by any layer-call span
    // (parallel calls may overlap, so cover the union of intervals).
    double total = 0.0;
    std::vector<std::pair<double, double>> calls;
    for (const Span *sp : spans) {
        if (std::strcmp(sp->name, kPassSpan) == 0)
            total += sp->dur();
        else if (std::strcmp(sp->name, kUnitSpan) != 0)
            calls.emplace_back(sp->start, sp->end);
    }
    if (total <= 0.0)
        return 0.0;
    std::sort(calls.begin(), calls.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto &[s, e] : calls) {
        if (s > hi) {
            if (hi > lo)
                covered += hi - lo;
            lo = s;
            hi = e;
        } else {
            hi = std::max(hi, e);
        }
    }
    if (hi > lo)
        covered += hi - lo;
    return std::max(0.0, 1.0 - covered / total);
}

std::uint64_t
calendarEvents(upm::core::System &sys)
{
    std::uint64_t n = 0;
    for (unsigned e = 0; e < upm::sched::kNumEngines; ++e) {
        n += sys.eventCalendar()
                 .stats(static_cast<upm::sched::EngineId>(e))
                 .executed;
    }
    return n;
}

void
countTraceEvents(const upm::core::System &sys,
                 std::uint64_t *events_by_layer)
{
    if (const upm::trace::Tracer *tr = sys.tracer()) {
        for (const upm::trace::TraceEvent &ev : tr->events())
            ++events_by_layer[static_cast<unsigned>(ev.layer)];
    }
}

void
addTraceEvents(Metrics &m, const std::uint64_t *events)
{
    using upm::trace::Layer;
    const std::pair<const char *, Layer> kLayers[] = {
        {"trace.events.vm", Layer::Vm},
        {"trace.events.mem", Layer::Mem},
        {"trace.events.cache", Layer::Cache},
        {"trace.events.hip", Layer::Hip},
        {"trace.events.serve", Layer::Serve},
    };
    for (const auto &[name, layer] : kLayers)
        m[name] = static_cast<double>(events[static_cast<unsigned>(layer)]);
}

} // namespace upmbench
