/**
 * @file
 * The process address space: VMAs, population policies, translation.
 *
 * Every allocator in Table 1 of the paper is, underneath, an mmap with
 * a policy: whether physical pages are allocated up-front or on demand,
 * which placement path the frames come from (contiguous buddy runs,
 * stack-interleaved pinned frames, scattered on-demand frames, or GPU
 * fault batches), whether the GPU page table is populated, and whether
 * GPU accesses are cached. The AddressSpace owns both page tables, the
 * HMM mirror, and the functional fault-resolution paths; timing for
 * faults lives in FaultHandler.
 */

#ifndef UPM_VM_ADDRESS_SPACE_HH
#define UPM_VM_ADDRESS_SPACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hooks.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "vm/gpu_page_table.hh"
#include "vm/hmm.hh"
#include "vm/page_table.hh"

namespace upm::mem {
class NodeMemory;
}

namespace upm::vm {

/** Which physical-frame source populates a VMA. */
enum class Placement : std::uint8_t {
    Scattered,    //!< CPU first-touch: fragmented on-demand pool
    Interleaved,  //!< pinned host buffers: stack round-robin singles
    Contiguous,   //!< hipMalloc: large buddy runs
    FaultBatch,   //!< GPU first-touch: short contiguous runs
};

/**
 * Which socket's HBM shard serves a VMA. On a single-socket node every
 * policy resolves to shard 0.
 */
enum class SocketPolicy : std::uint8_t {
    Default,      //!< resolve to the address space's default at mmap
    Home,         //!< every page on the VMA's home socket
    FirstTouch,   //!< pages land on the socket that faults them in
    Interleave,   //!< 2 MiB chunks round-robin across all sockets
    ReplicateRO,  //!< home copy plus a read-only replica per socket
};

const char *socketPolicyName(SocketPolicy policy);

/** Per-VMA policy (set by the allocator layer). */
struct VmaPolicy
{
    bool cpuAccess = true;
    /** Populate the GPU page table when pages are created. */
    bool gpuMapped = false;
    /** Physical allocation deferred to first touch. */
    bool onDemand = true;
    bool pinned = false;
    /** GPU accesses bypass GPU caches (managed statics). */
    bool uncachedGpu = false;
    Placement placement = Placement::Scattered;
    /** Cross-socket placement; Default defers to the address space. */
    SocketPolicy socketPolicy = SocketPolicy::Default;
    /** Home socket for Home / ReplicateRO placement. */
    unsigned homeSocket = 0;
};

/** One mapped region. */
struct Vma
{
    VirtAddr base = 0;
    std::uint64_t size = 0;
    VmaPolicy policy;
    std::string name;

    /** Pages populated through the scattered (CPU first-touch) path;
     *  such pages land on arbitrary fragmented frames, which degrades
     *  Infinity Cache set utilization (paper Section 5.4). */
    std::uint64_t pagesScattered = 0;
    /** Pages populated through any placement-friendly path
     *  (contiguous, interleaved, or GPU fault batches). */
    std::uint64_t pagesPlaced = 0;

    /** Interleave rotation cursor (next socket to receive a chunk). */
    unsigned nextSocket = 0;
    /** ReplicateRO: replica runs on non-home sockets, freed with the
     *  VMA (not mapped by any page table; the leak scan is told). */
    std::vector<mem::FrameRange> replicaRanges;

    double
    scatteredFraction() const
    {
        std::uint64_t total = pagesScattered + pagesPlaced;
        return total == 0
                   ? 0.0
                   : static_cast<double>(pagesScattered) /
                         static_cast<double>(total);
    }

    Vpn beginVpn() const { return vpnOf(base); }
    Vpn endVpn() const { return vpnOf(base + size + mem::kPageSize - 1); }
    std::uint64_t numPages() const { return endVpn() - beginVpn(); }
    bool contains(VirtAddr a) const { return a >= base && a < base + size; }
};

/** Outcome of a GPU access / fault-resolution attempt. */
enum class GpuFaultKind : std::uint8_t {
    None,         //!< already mapped, no fault
    Minor,        //!< present in system table; mirrored to GPU table
    Major,        //!< physical allocation performed
    Violation,    //!< not resolvable (XNACK off); fatal on real HW
    OutOfMemory,  //!< no frames for a major fault (nothing mapped)
};

/** Outcome of tryMmapAnon(). */
struct [[nodiscard]] MmapResult
{
    Status status = Status::Success;
    VirtAddr base = 0;

    explicit operator bool() const { return status == Status::Success; }
};

/** Outcome of tryPopulateRange() / tryResolveCpuFaultRange(). */
struct [[nodiscard]] PopulateResult
{
    Status status = Status::Success;
    /** Pages newly populated (may be nonzero even on failure: pages
     *  mapped before the allocator ran dry stay mapped, and munmap
     *  reclaims them). */
    std::uint64_t pages = 0;

    explicit operator bool() const { return status == Status::Success; }
};

/**
 * The simulated process address space. Single-threaded model object;
 * engines serialize access (the real kernel takes mmap_lock too).
 */
class AddressSpace
{
  public:
    /** @p hooks wire this space and its HMM mirror (aud, tr) and
     *  the policy engine (pol, polSpace). */
    AddressSpace(mem::NodeMemory &node_memory,
                 mem::BackingStore &backing_store, const Hooks &hooks = {});

    /**
     * Create a VMA of @p size bytes (rounded up to pages) and attach
     * host backing. Up-front policies are NOT populated here; the
     * allocator layer calls tryPopulateRange so it can charge time.
     *
     * Recoverable failures: Status::InvalidValue for a zero-length or
     * overlapping request, Status::OutOfMemory when the simulated VA
     * window is exhausted. Nothing is mapped on failure.
     */
    MmapResult tryMmapAnon(std::uint64_t size, const VmaPolicy &policy,
                           std::string name = "");

    /**
     * Unmap: free frames, drop PTEs from both tables, drop backing.
     * @return Status::NotFound for a base that is not a VMA.
     */
    Status munmap(VirtAddr base);

    /**
     * Teardown form of munmap(): panics on failure. For callers
     * unmapping a VMA they themselves created (allocator deallocate
     * and rollback paths), where NotFound is a bookkeeping bug.
     */
    void munmapChecked(VirtAddr base);

    const Vma *findVma(VirtAddr addr) const;

    /** Visit every VMA in address order. @param fn (const Vma &). */
    template <typename Fn>
    void
    forEachVma(Fn &&fn) const
    {
        for (const auto &[base, vma] : vmas)
            fn(vma);
    }

    /**
     * Populate [base, base+size) physically according to the VMA's
     * placement, mapping the GPU table if the policy says so.
     *
     * Recoverable failures: Status::NotFound for an unmapped base,
     * Status::OutOfMemory when the frame allocator runs dry (pages
     * mapped before exhaustion stay mapped; munmap reclaims them).
     */
    PopulateResult tryPopulateRange(VirtAddr base, std::uint64_t size);

    /**
     * hipHostRegister semantics: fault in any missing pages through
     * the normal CPU path (keeping the region's scattered placement),
     * pin every page, and map the region in the GPU page table.
     * @return Status::NotFound for an unknown base; OOM propagates
     *         from population (the region is left unpinned).
     */
    Status pinAndMapGpu(VirtAddr base);

    /**
     * Resolve CPU first-touch faults for every missing page in
     * [first, last) in one batch: equivalent to faulting each page on
     * its own (the scattered pool hands out the same frame sequence)
     * without the per-page table walks.
     *
     * Recoverable failures: Status::AccessFault for an unmapped or
     * CPU-inaccessible vpn (a real segfault), Status::OutOfMemory on
     * frame exhaustion (nothing is mapped in that case).
     */
    PopulateResult tryResolveCpuFaultRange(Vpn first, Vpn last);

    /**
     * Resolve a GPU fault batch on [first, first+count). Decides
     * minor (mirror only) vs major (allocate + map); honours XNACK.
     * A major fault that finds no free frames returns
     * GpuFaultKind::OutOfMemory with no partial mappings.
     */
    GpuFaultKind resolveGpuFault(Vpn first, std::uint64_t count);

    /** @return true if the CPU can access @p addr without a fault. */
    bool cpuPresent(VirtAddr addr) const;
    /** @return true if the GPU can access @p addr without a fault. */
    bool gpuPresent(VirtAddr addr) const;

    /** Translate via the system table; panics if unmapped. */
    mem::PhysAddr translate(VirtAddr addr) const;

    /** Physical frames currently backing [base, base+size). */
    std::vector<FrameId> framesOf(VirtAddr base, std::uint64_t size) const;

    /** Pages-per-stack histogram for [base, base+size). */
    std::vector<std::uint64_t> stackLoadOf(VirtAddr base,
                                           std::uint64_t size) const;

    SystemPageTable &systemTable() { return sysTable; }
    const SystemPageTable &systemTable() const { return sysTable; }
    GpuPageTable &gpuTable() { return gpuPt; }
    const GpuPageTable &gpuTable() const { return gpuPt; }
    HmmMirror &mirror() { return hmm; }
    mem::BackingStore &backing() { return backingStore; }

    bool xnackEnabled() const { return xnack; }
    void setXnack(bool enabled) { xnack = enabled; }

    /**
     * Confine this address space to the private VA window
     * [@p base, @p end). The serving layer gives every simulated
     * process a disjoint, never-recycled window so the node-wide
     * UPMSan VA shadow never sees two processes alive (or one dead,
     * one alive) at the same address. Must be called before the first
     * mmap; panics otherwise.
     */
    void setVaWindow(VirtAddr base, VirtAddr end);

    /** Exclusive end of the VA window (for capacity queries). */
    VirtAddr vaWindowEnd() const { return vaEnd; }

    /**
     * Graceful-degradation lever: free every ReplicateRO VMA's
     * read-only replica runs and demote those VMAs to Home placement
     * (so later population does not re-replicate). The home copies --
     * the ones page tables map -- are untouched.
     * @return pages of replica memory freed back to the shards.
     */
    std::uint64_t demoteReplicas();

    /** The frame shards: allocations route to a shard per the VMA's
     *  SocketPolicy, frees route by global frame id. */
    const mem::NodeMemory &nodeMemory() const { return node; }

    /** Socket the currently-executing engine runs on (stamps
     *  first-touch placement; 0 on single-socket nodes). */
    void setCurrentSocket(unsigned socket) { curSocket = socket; }
    unsigned currentSocket() const { return curSocket; }

    /** Placement applied to VMAs mapped with SocketPolicy::Default.
     *  @p policy must itself not be Default. */
    void setDefaultSocketPolicy(SocketPolicy policy, unsigned home = 0);
    SocketPolicy defaultSocketPolicy() const { return defSocketPolicy; }
    unsigned defaultHomeSocket() const { return defHomeSocket; }

    /** Lifetime counters (profiling surface). */
    std::uint64_t cpuFaults() const { return cpuFaultCount; }
    std::uint64_t gpuMajorFaults() const { return gpuMajorCount; }
    std::uint64_t gpuMinorFaults() const { return gpuMinorCount; }

    /** The wired policy engine, or null. */
    policy::PolicyEngine *policyEngine() const { return pol; }

    /**
     * Full mirror cross-check: every GPU PTE must have a matching
     * system PTE (else StaleMirror) mapping the same frame (else
     * MirrorDivergence). Run at teardown by System::finalizeAudit().
     * @return violations found.
     */
    std::uint64_t auditMirrorConsistency(audit::Auditor &auditor) const;

  private:
    Vma *findVmaMutable(VirtAddr addr);

    /** Map a frame list as one run starting at @p vpn (adopts the
     *  list: a non-contiguous batch becomes its scatter vector). */
    void mapFrames(const Vma &vma, Vpn vpn,
                   std::vector<FrameId> frame_list);
    /** Map contiguous ranges starting at @p vpn. */
    void mapRanges(const Vma &vma, Vpn vpn,
                   const std::vector<mem::FrameRange> &ranges);
    PteFlags flagsFor(const Vma &vma) const;
    /** Emit ExtentMap events for frames[0..n) mapped at consecutive
     *  vpns from @p vpn, coalescing physically contiguous runs. */
    void emitListExtents(Vpn vpn, const FrameId *frames,
                         std::uint64_t n);
    /** Shard serving @p vma's next allocation on this fault/populate
     *  path, per its SocketPolicy. */
    mem::FrameAllocator &sourceFor(const Vma &vma);
    /** Allocate @p n frames from @p src per @p vma's placement and map
     *  them at @p vpn. @return false on OOM (nothing mapped). */
    bool allocAndMap(Vma &vma, mem::FrameAllocator &src, Vpn vpn,
                     std::uint64_t n);
    /** ReplicateRO: allocate read-only replicas of @p n pages on every
     *  non-home socket. @return false on OOM. */
    bool replicate(Vma &vma, std::uint64_t n);

    mem::NodeMemory &node;
    mem::BackingStore &backingStore;
    SystemPageTable sysTable;
    GpuPageTable gpuPt;
    HmmMirror hmm;

    std::map<VirtAddr, Vma> vmas;
    VirtAddr nextBase;
    /** Exclusive end of the VA window (default: base + 1 TiB). */
    VirtAddr vaEnd;
    bool xnack = false;
    unsigned curSocket = 0;
    SocketPolicy defSocketPolicy = SocketPolicy::Home;
    unsigned defHomeSocket = 0;
    /** Shuffles the virtual arrival order of GPU major faults. */
    SplitMix64 faultRng{0x6f4au};

    std::uint64_t cpuFaultCount = 0;
    std::uint64_t gpuMajorCount = 0;
    std::uint64_t gpuMinorCount = 0;
    /** UPMSan hook; null (no overhead) unless auditing is enabled. */
    audit::Auditor *aud = nullptr;
    /** UPMTrace hook; null (no overhead) unless tracing is on. Emits
     *  VmaMap/VmaUnmap, Populate, CpuFault/GpuFault batches and one
     *  ExtentMap event per contiguous (vpn, frame) run inserted into
     *  the system table -- the stream the trace-replay tests rebuild
     *  the final page table from. */
    trace::Tracer *tr = nullptr;
    /** UPMPolicy hook; null (the default) keeps every legacy path --
     *  byte-identical behaviour. Fault resolutions feed the engine's
     *  access counters. */
    policy::PolicyEngine *pol = nullptr;
    /** PageKey.space value for this address space's pages in `pol`
     *  (0 for the primary space, the pid for process spaces). */
    std::uint64_t polSpace = 0;
};

} // namespace upm::vm

#endif // UPM_VM_ADDRESS_SPACE_HH
