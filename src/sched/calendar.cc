#include "sched/calendar.hh"

#include <limits>
#include <utility>

namespace upm::sched {

const char *
engineName(EngineId engine)
{
    switch (engine) {
      case EngineId::Host: return "host";
      case EngineId::Sdma: return "sdma";
      case EngineId::Fault: return "fault";
      case EngineId::Kernel: return "kernel";
      case EngineId::CacheDram: return "cache-dram";
      case EngineId::Fabric: return "fabric";
    }
    return "?";
}

namespace {

/** Context of the handler currently running on this thread (null
 *  outside any handler): the source engine its schedule() calls are
 *  stamped with. */
struct TlsSlot
{
    /** Owning calendar (guards against nested distinct calendars). */
    const void *owner = nullptr;
    unsigned source = kExternalSource;
};

thread_local TlsSlot *tls_ctx = nullptr;

/** RAII swap of the thread-local handler context. */
struct TlsScope
{
    explicit TlsScope(TlsSlot *ctx) : prev(tls_ctx) { tls_ctx = ctx; }
    ~TlsScope() { tls_ctx = prev; }

    TlsScope(const TlsScope &) = delete;
    TlsScope &operator=(const TlsScope &) = delete;

    TlsSlot *prev;
};

} // namespace

EventCalendar::EventCalendar()
{
    MutexLock lock(mtx);
    seqOf.fill(0);
}

void
EventCalendar::schedule(EngineId target, SimTime when, SimTime busy,
                        Handler fn)
{
    TlsSlot *ctx = tls_ctx;
    unsigned source = ctx != nullptr && ctx->owner == this
                          ? ctx->source
                          : kExternalSource;
    MutexLock lock(mtx);
    queues[static_cast<unsigned>(target)].push(
        when, source, seqOf[source]++, Event{busy, std::move(fn)});
}

std::size_t
EventCalendar::pending() const
{
    MutexLock lock(mtx);
    std::size_t n = 0;
    for (const auto &q : queues)
        n += q.size();
    return n;
}

int
EventCalendar::bestEngineLocked() const UPM_REQUIRES(mtx)
{
    int best = -1;
    for (unsigned e = 0; e < kNumEngines; ++e) {
        if (queues[e].empty())
            continue;
        // Strict < keeps the lowest engine id among same-time ties:
        // the fixed cross-engine ordering of the calendar contract.
        if (best < 0 ||
            queues[e].top().when < queues[best].top().when) {
            best = static_cast<int>(e);
        }
    }
    return best;
}

std::size_t
EventCalendar::runUntil(SimTime horizon)
{
    std::size_t n = 0;
    for (;;) {
        TimeHeap<Event>::Entry entry;
        unsigned engine = 0;
        {
            MutexLock lock(mtx);
            int best = bestEngineLocked();
            if (best < 0 || queues[best].top().when > horizon)
                break;
            engine = static_cast<unsigned>(best);
            entry = queues[engine].pop();
            EngineStats &st = engineStats[engine];
            ++st.executed;
            st.busyNs += entry.payload.busy;
            st.lastEventNs = entry.when;
        }
        if (entry.payload.fn) {
            TlsSlot ctx;
            ctx.owner = this;
            ctx.source = engine;
            TlsScope scope(&ctx);
            entry.payload.fn();
        }
        ++n;
    }
    return n;
}

std::size_t
EventCalendar::runAll()
{
    return runUntil(std::numeric_limits<SimTime>::infinity());
}

EngineStats
EventCalendar::stats(EngineId engine) const
{
    MutexLock lock(mtx);
    return engineStats[static_cast<unsigned>(engine)];
}

} // namespace upm::sched
