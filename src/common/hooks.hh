/**
 * @file
 * The observer bundle every simulated layer is built with.
 *
 * upmsim mirrors the paper's counters-first method (rocprofv3, perf):
 * five observers can watch every layer -- UPMSan (`aud`), UPMTrace
 * (`tr`), UPMInject (`inj`), the event calendar (`cal`) and UPMPolicy
 * (`pol`). A layer receives them once, as one Hooks value passed as
 * its last constructor argument, and copies the fields it uses into
 * its own null-checked members. core::System builds the observers
 * first and hands the same bundle to every layer; core::Process
 * reuses it with its own calendar and policy space.
 *
 * Every pointer may be null, and null means "off": each dereference
 * is dominated by a null check (UPMLint's hooks checker), so an
 * unwired observer costs one branch and no call.
 */

#ifndef UPM_COMMON_HOOKS_HH
#define UPM_COMMON_HOOKS_HH

#include <cstdint>

namespace upm::audit {
class Auditor;
}

namespace upm::inject {
class Injector;
}

namespace upm::policy {
class PolicyEngine;
}

namespace upm::sched {
class EventCalendar;
}

namespace upm::trace {
class Tracer;
}

namespace upm {

/** Observer pointers handed down at construction; all default null. */
struct Hooks
{
    audit::Auditor *aud = nullptr;
    trace::Tracer *tr = nullptr;
    inject::Injector *inj = nullptr;
    sched::EventCalendar *cal = nullptr;
    policy::PolicyEngine *pol = nullptr;
    /** PageKey.space of the layer's pages in `pol`: 0 for the primary
     *  address space, the pid for a serving process. */
    std::uint64_t polSpace = 0;
};

} // namespace upm

#endif // UPM_COMMON_HOOKS_HH
