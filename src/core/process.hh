/**
 * @file
 * One simulated process on a shared node.
 *
 * The classic System wires exactly one process (one AddressSpace, one
 * Runtime) over the node's physical memory -- the single-workload
 * shape every characterization bench uses. The serving node (UPMServe,
 * src/serve) multiplexes *thousands* of short-lived processes over the
 * same shards, so the per-process half of the wiring is factored out
 * here: a Process owns its backing store, address space, fault
 * handler, allocator registry, runtime and event calendar, while the
 * frames, fabric and the aud/tr/inj/pol hooks stay shared with the
 * owning System, whose hook bundle builds every per-process layer.
 *
 * Two contracts matter for the long-soak robustness story:
 *
 *  - VA windows are disjoint and never recycled. UPMSan's VA shadow
 *    (live/freed range maps) is keyed by raw virtual address across
 *    the whole node; giving a dead process's window to a new process
 *    would read as use-after-free or overlap. The System hands each
 *    process a fresh 64 GiB window from a monotonic counter -- the
 *    64-bit VA space never runs out at any realistic churn rate.
 *
 *  - Crash reclamation goes through the normal free paths. reclaim()
 *    releases every live allocation via Runtime::releaseAll() and
 *    unmaps straggler VMAs with munmapChecked(), so the auditor's
 *    shadow, the trace bus and the buddy free lists all observe
 *    ordinary frees -- provably leak-free after every churn epoch.
 */

#ifndef UPM_CORE_PROCESS_HH
#define UPM_CORE_PROCESS_HH

#include <cstdint>

#include "alloc/registry.hh"
#include "hip/runtime.hh"
#include "mem/backing_store.hh"
#include "sched/calendar.hh"
#include "vm/address_space.hh"
#include "vm/fault_handler.hh"

namespace upm::core {

class System;

/**
 * One simulated process: private address space and runtime over the
 * owning System's shared physical memory. Create through
 * System::createProcess() (which assigns the pid and the private VA
 * window); destroy before the System. Destruction reclaims every
 * resource the process still holds.
 */
class Process
{
  public:
    /** Use System::createProcess(); this is its implementation. */
    Process(System &system, std::uint64_t pid, vm::VirtAddr va_base,
            vm::VirtAddr va_end);
    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    std::uint64_t pid() const { return id; }

    vm::AddressSpace &addressSpace() { return as; }
    vm::FaultHandler &faultHandler() { return faults; }
    alloc::AllocatorRegistry &allocators() { return registry; }
    hip::Runtime &runtime() { return rt; }
    /** This process's own event calendar (its runtime's `cal`). */
    sched::EventCalendar &eventCalendar() { return calendar; }
    System &system() { return sys; }

    /**
     * Release everything the process holds: every live allocation in
     * ascending pointer order through the runtime (releaseAll), then
     * any straggler VMAs mapped directly on the address space. Both
     * the clean-exit and the crash-kill path; idempotent.
     * @return pages of physical memory returned to the shards.
     */
    std::uint64_t reclaim();

    /** Pages of physical memory currently held (mapped + replicas). */
    std::uint64_t residentPages() const;

  private:
    System &sys;
    std::uint64_t id;
    // Declaration order is construction order: every layer's hook
    // bundle names the calendar, the address space needs the backing
    // store, the registry needs the address space, the runtime needs
    // all three.
    /** Private event calendar (per-process clocks and queues). */
    sched::EventCalendar calendar;
    mem::BackingStore backingStore;
    vm::AddressSpace as;
    vm::FaultHandler faults;
    alloc::AllocatorRegistry registry;
    hip::Runtime rt;
};

} // namespace upm::core

#endif // UPM_CORE_PROCESS_HH
