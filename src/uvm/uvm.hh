/**
 * @file
 * UVM baseline: software-managed unified memory on a *discrete* GPU.
 *
 * The paper's motivation (Sections 1/2.1) is that the unified memory
 * model historically meant UVM -- page-fault-driven migration between
 * separate CPU and GPU memories over a link -- and that it costs 2-3x
 * (up to 14x) versus explicit management, while UPM eliminates the
 * migrations entirely. This module implements that baseline so the
 * comparison the paper argues from can be measured inside upmsim:
 * per-page residency tracking, fault-driven migration with batched
 * service costs, eviction under device-memory pressure (UVM's one
 * advantage: overcommit works), and thrashing when the working set
 * exceeds device memory.
 *
 * Victim selection routes through policy::EvictionPolicy. The default
 * (EvictionKind::Lru with a per-access-call logical tick) is
 * bit-identical to the list LRU this simulator originally hard-coded
 * -- see the equivalence note in policy/eviction.hh and the
 * differential tests -- while LFU / seeded-random / predictive
 * variants become drop-in A/B candidates for bench_policy. An
 * optional policy::PolicyEngine (`pol`, null-checked like every other
 * hook) observes the access stream and can drive hot/cold migration
 * between host and device via migrationStep().
 *
 * Each access walks its range in spans of equal residency, decided
 * from the residency at the span's start (an eviction for an earlier
 * span can send a later one's pages back to the host). A resident
 * span is one touchRun; a host span is one admitRun, which evicts and
 * inserts exactly as page-by-page faults would. Residency itself is
 * still one byte per page, in Region::residency beside the policy's
 * run-coalesced state.
 */

#ifndef UPM_UVM_UVM_HH
#define UPM_UVM_UVM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.hh"
#include "common/units.hh"
#include "policy/eviction.hh"

namespace upm::policy {
class PolicyEngine;
}

namespace upm::uvm {

/** Calibrated costs of the software-UVM path on a discrete GPU. */
struct UvmCosts
{
    /** CPU-GPU link bandwidth (PCIe gen4 x16 / early NVLink class). */
    double linkBandwidth = gbps(50.0);
    /** GPU fault service per batch (interrupt + runtime round trip). */
    SimTime faultBatchOverhead = 30.0 * microseconds;
    /** Pages migrated per fault batch (driver batching + prefetch). */
    std::uint64_t faultBatchPages = 512;
    /** Per-page bookkeeping on migration (unmap + copy setup). */
    SimTime perPageOverhead = 250.0;
    /** Device-local streaming bandwidth once resident. */
    double deviceBandwidth = tbps(1.6);
    /** Host streaming bandwidth for CPU access to host-resident pages. */
    double hostBandwidth = gbps(170.0);
};

/** Where a page currently lives. */
enum class Residency : std::uint8_t { Host, Device };

/**
 * Functional+timing model of a UVM-managed address space on a discrete
 * GPU with limited device memory. Managed regions migrate page-wise on
 * access; device-memory pressure evicts pages back to the host
 * according to the configured eviction policy.
 */
class UvmSimulator
{
  public:
    /**
     * @param device_memory_bytes device memory capacity (overcommit is
     *        allowed: managed allocations may exceed it).
     * @param costs calibrated path costs.
     */
    explicit UvmSimulator(std::uint64_t device_memory_bytes,
                          const UvmCosts &costs = UvmCosts());

    /** As above with an explicit victim-selection policy. @p seed
     *  feeds the seeded policies (EvictionKind::Random). */
    UvmSimulator(std::uint64_t device_memory_bytes,
                 policy::EvictionKind eviction, std::uint64_t seed,
                 const UvmCosts &costs = UvmCosts());

    /** cudaMallocManaged-style allocation (host-resident initially). */
    std::uint64_t allocManaged(std::uint64_t bytes);

    /** Free a managed region. */
    void freeManaged(std::uint64_t handle);

    /**
     * GPU kernel touches [offset, offset+bytes) of @p handle: migrate
     * non-resident pages to the device (evicting if full), then
     * stream at device bandwidth.
     * @return simulated time charged.
     */
    SimTime gpuAccess(std::uint64_t handle, std::uint64_t offset,
                      std::uint64_t bytes);

    /** CPU touches a range: migrate device-resident pages back. */
    SimTime cpuAccess(std::uint64_t handle, std::uint64_t offset,
                      std::uint64_t bytes);

    /**
     * Wire (or unwire, with nullptr) a policy engine. The engine
     * observes residency and the access stream keyed {handle, page}
     * and can drive hot/cold migration; null keeps this simulator
     * byte-identical to the unhooked build.
     */
    void setPolicyEngine(policy::PolicyEngine *engine) { pol = engine; }
    policy::PolicyEngine *policyEngine() const { return pol; }

    /**
     * Apply one bounded batch of moves proposed by the wired engine's
     * migration policy: promotions page host-resident pages onto the
     * device (only while capacity is free -- migration never evicts),
     * demotions push device-resident pages back. No-op without an
     * engine or with MigrationKind::Off.
     * @return simulated migration time charged.
     */
    SimTime migrationStep();

    /** Pages currently resident on the device. */
    std::uint64_t deviceResidentPages() const { return residentPages; }

    /** Lifetime migration counters (for thrashing analysis). */
    std::uint64_t pagesMigratedToDevice() const { return toDevice; }
    std::uint64_t pagesMigratedToHost() const { return toHost; }
    std::uint64_t evictions() const { return evicted; }

    std::uint64_t deviceCapacityPages() const { return capacityPages; }

    policy::EvictionKind evictionKind() const
    {
        return victims->kind();
    }

  private:
    struct Region
    {
        std::uint64_t pages = 0;
        /** Residency per page. */
        std::vector<Residency> residency;
    };

    /** One past the last page of [offset, offset+bytes); a zero-byte
     *  range ends where it starts. */
    static std::uint64_t pageEnd(std::uint64_t offset, std::uint64_t bytes);
    static void setResidency(Region &region, std::uint64_t first,
                             std::uint64_t count, Residency to);
    /** One past the last page of the span from @p page, ending by
     *  @p last, whose pages all share page @p page's residency. */
    static std::uint64_t spanEnd(const Region &region, std::uint64_t page,
                                 std::uint64_t last);
    /** Migration cost of @p pages pages (batched faults + link). */
    SimTime migrationTime(std::uint64_t pages) const;
    /** Move host-resident pages [first, first+count) of @p handle to
     *  the device, each evicting a victim first when the device is
     *  full. */
    void pageInToDevice(Region &region, std::uint64_t handle,
                        std::uint64_t first, std::uint64_t count);
    /** Device -> host for device-resident pages [first, first+count)
     *  of @p handle. */
    void pageOutToHost(Region &region, std::uint64_t handle,
                       std::uint64_t first, std::uint64_t count);

    UvmCosts cost;
    std::uint64_t capacityPages;
    std::uint64_t residentPages = 0;

    std::map<std::uint64_t, Region> regions;
    std::uint64_t nextHandle = 1;

    /** Victim selection over device-resident pages, keyed
     *  {handle, page}. */
    std::unique_ptr<policy::EvictionPolicy> victims;
    /** Scratch for the victims of one admitRun. */
    std::vector<policy::PageRun> evictedRuns;
    /** Logical clock: one tick per gpuAccess / cpuAccess call, so all
     *  pages touched by one call share a stamp (the LRU-list
     *  equivalence depends on this). */
    std::uint64_t tick = 0;

    policy::PolicyEngine *pol = nullptr;  //!< null-checked hook

    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t evicted = 0;
};

} // namespace upm::uvm

#endif // UPM_UVM_UVM_HH
