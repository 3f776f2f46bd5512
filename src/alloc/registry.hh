/**
 * @file
 * Allocator registry: one instance of each allocator bound to an
 * address space, with kind-based dispatch and the hipHostRegister
 * composite path.
 */

#ifndef UPM_ALLOC_REGISTRY_HH
#define UPM_ALLOC_REGISTRY_HH

#include <memory>
#include <vector>

#include "alloc/hip_allocators.hh"
#include "alloc/malloc_sim.hh"
#include "common/hooks.hh"
#include "vm/address_space.hh"

namespace upm::alloc {

/**
 * Owns the allocator family for one simulated process. Dispatch by
 * AllocatorKind; `MallocRegistered` composes malloc + hipHostRegister.
 */
class AllocatorRegistry
{
  public:
    explicit AllocatorRegistry(vm::AddressSpace &address_space,
                               const AllocCosts &costs = {},
                               const Hooks &hooks = {});

    /**
     * Allocate @p size bytes with the given allocator configuration.
     * A failed allocation comes back with `status != Success` and no
     * VMA or frames behind it; `MallocRegistered` unwinds its malloc
     * half if the register half cannot pin.
     */
    Allocation allocate(AllocatorKind kind, std::uint64_t size);

    /** Free an allocation. @return the simulated call time. */
    SimTime deallocate(Allocation &allocation);

    /**
     * hipHostRegister an existing (malloc) allocation: pin + GPU-map.
     * @param time receives the simulated call time (0 on failure).
     * @return Status::OutOfMemory when pinning cannot populate.
     */
    Status hostRegister(const Allocation &allocation, SimTime &time);

    vm::AddressSpace &addressSpace() { return as; }
    const AllocCosts &costs() const { return cost; }

    /**
     * Cross-socket placement mode for every allocation made after this
     * call (each new VMA snapshots the mode at mmap time, numactl
     * style). Forwards to vm::AddressSpace::setDefaultSocketPolicy;
     * meaningless (but harmless) on a one-socket node.
     */
    void
    setSocketPlacement(vm::SocketPolicy policy, unsigned home_socket = 0)
    {
        as.setDefaultSocketPolicy(policy, home_socket);
    }

    /** The placement mode new allocations will snapshot. */
    vm::SocketPolicy
    socketPlacement() const
    {
        return as.defaultSocketPolicy();
    }

  private:
    Allocator &allocatorFor(AllocatorKind kind);

    vm::AddressSpace &as;
    AllocCosts cost;
    /** UPMSan hook; null (no overhead) unless auditing is enabled.
     *  allocate/deallocate shadow the live-range map that powers the
     *  overlap and use-after-free checks. */
    audit::Auditor *aud = nullptr;
    MallocSim mallocSim;
    HipMallocAllocator hipMalloc;
    HipHostMallocAllocator hipHostMalloc;
    HipMallocManagedAllocator hipManaged;
    ManagedStaticAllocator managedStatic;
};

} // namespace upm::alloc

#endif // UPM_ALLOC_REGISTRY_HH
