/**
 * @file
 * The discrete-event engines of one simulated System.
 *
 * The timing core advances as a set of independent engines -- the same
 * split UPMTrace already uses for its tracks: the host/runtime thread,
 * the SDMA copy engine, the fault-handler pipeline, the kernel/CU
 * model, the cache+DRAM subsystem, and the per-socket xGMI fabric.
 * Each engine owns a FIFO-ordered event queue in the EventCalendar
 * (calendar.hh), which drains them serially in one total order.
 */

#ifndef UPM_SCHED_ENGINE_HH
#define UPM_SCHED_ENGINE_HH

#include <cstdint>

namespace upm::sched {

/** One independently advancing engine (mirrors the UPMTrace tracks). */
enum class EngineId : std::uint8_t {
    Host,      //!< runtime/allocator host thread
    Sdma,      //!< SDMA / memcpy engine
    Fault,     //!< fault-handler pipeline
    Kernel,    //!< kernel / CU model
    CacheDram, //!< cache + DRAM subsystem
    Fabric,    //!< per-socket xGMI fabric
};

inline constexpr unsigned kNumEngines = 6;

/** Pseudo-source id for events scheduled from outside any handler. */
inline constexpr unsigned kExternalSource = kNumEngines;

const char *engineName(EngineId engine);

} // namespace upm::sched

#endif // UPM_SCHED_ENGINE_HH
