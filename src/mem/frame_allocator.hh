/**
 * @file
 * Physical frame allocator with contiguity semantics.
 *
 * The allocator is a classic binary buddy over the frame space, plus an
 * "on-demand pool" that models the behaviour of Linux per-CPU page
 * caches on a long-running, fragmented node. Three allocation paths
 * exist because they are what distinguishes the MI300A allocators the
 * paper studies (Sections 5.3/5.4):
 *
 *  - allocRun():     up-front allocators (hipMalloc) grab large
 *                    physically contiguous runs; contiguity later turns
 *                    into big GPU page-table fragments and an even
 *                    spread over HBM stacks.
 *  - allocScattered(): CPU first-touch faults take single frames from
 *                    the on-demand pool. The pool is refilled from one
 *                    buddy block at a time and handed out *grouped by
 *                    stack* (mimicking freelist clustering), so
 *                    consecutive faults receive physically discontiguous
 *                    frames with a biased stack distribution.
 *  - allocBatch():   GPU fault batches (XNACK replay floods the handler
 *                    with many faults at once) are served with short
 *                    contiguous runs -- balanced across stacks but too
 *                    short to earn large fragments.
 */

#ifndef UPM_MEM_FRAME_ALLOCATOR_HH
#define UPM_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/hooks.hh"
#include "common/rng.hh"
#include "mem/geometry.hh"
#include "mem/interval_set.hh"

namespace upm::mem {

/** A physically contiguous run of frames. */
struct FrameRange
{
    FrameId base = 0;
    std::uint64_t count = 0;

    bool operator==(const FrameRange &) const = default;
};

/** Tunables for the on-demand path. */
struct FrameAllocatorConfig
{
    /** Largest buddy order (order 9 == 2 MiB blocks, like THP). */
    unsigned maxOrder = 9;
    /** Buddy order carved per on-demand pool refill. */
    unsigned onDemandRefillOrder = 9;
    /** Frames per contiguous run on the GPU fault-batch path. */
    unsigned faultBatchRun = 4;
    /** Seed for refill-placement randomness (deterministic). */
    std::uint64_t seed = 0x5eedu;
};

/**
 * Buddy allocator over the physical frame space.
 *
 * All operations are O(log frames) except the bulk helpers, which are
 * linear in the number of returned frames.
 *
 * Sharding: on a multi-socket node each socket's HBM is one
 * FrameAllocator shard covering the *global* frame window
 * [baseFrame, baseFrame + totalFrames()). Every public API speaks
 * global frame ids (allocations come back offset, frees are
 * translated); internal buddy state stays shard-local. The default
 * base of 0 makes the single-socket allocator bit-identical to the
 * unsharded one.
 */
class FrameAllocator
{
  public:
    FrameAllocator(const MemGeometry &geometry,
                   const FrameAllocatorConfig &config = {},
                   FrameId base_frame = 0, unsigned socket = 0,
                   const Hooks &hooks = {});

    /**
     * Allocate @p n_frames as few large contiguous runs (largest-first
     * buddy decomposition). Used by up-front allocators.
     *
     * @return the runs, or std::nullopt if memory is exhausted (all
     *         partial progress is rolled back). A zero-frame request
     *         succeeds with an empty run list, so exhaustion is never
     *         ambiguous.
     */
    [[nodiscard]] std::optional<std::vector<FrameRange>>
    allocRun(std::uint64_t n_frames);

    /**
     * Allocate @p n single frames through the fragmented on-demand
     * pool. Appends to @p out. @return false (and rolls back) on OOM.
     */
    [[nodiscard]] bool allocScattered(std::uint64_t n,
                                      std::vector<FrameId> &out);

    /**
     * Allocate @p n frames in short contiguous runs of
     * `faultBatchRun` frames, as the GPU fault path does. Appends
     * ranges to @p out. @return false (and rolls back) on OOM.
     */
    [[nodiscard]] bool allocBatch(std::uint64_t n,
                                  std::vector<FrameRange> &out);

    /**
     * Allocate @p n single frames round-robin across stacks, the way
     * the driver places pinned host buffers (hipHostMalloc /
     * hipMallocManaged without XNACK): stack-balanced but physically
     * discontiguous. Appends to @p out. @return false on OOM.
     */
    [[nodiscard]] bool allocInterleaved(std::uint64_t n,
                                        std::vector<FrameId> &out);

    /**
     * Free one frame. @return false on an out-of-range or
     * not-allocated frame, leaving state intact (recorded as a
     * violation when audited). Internal callers that *know* the frame
     * is allocated treat false as an invariant break and panic.
     */
    [[nodiscard]] bool freeFrame(FrameId frame);

    /**
     * Free a contiguous range: every maximal busy sub-run goes back
     * as naturally-aligned buddy blocks -- O(log frames) per block
     * instead of per page -- and every frame that is not allocated is
     * skipped (recorded as FrameDoubleFree when audited), audited or
     * not. The buddy state equals that of page-by-page frees.
     * @return false if any frame in the range was invalid (every
     *         valid frame is still freed).
     */
    [[nodiscard]] bool freeRange(const FrameRange &range);

    /** @return the number of currently free frames. Frames parked in
     *  the on-demand / per-stack pools count as free, as Linux counts
     *  its per-CPU page caches. */
    std::uint64_t freeFrames() const;

    /** @return total frames managed. */
    std::uint64_t totalFrames() const { return geom.numFrames(); }

    /** @return interval nodes across all free lists -- the buddy
     *  allocator's structural fragmentation. A coalesced heap is a
     *  handful of nodes; churn that fragments the free space grows
     *  this, so long-soak tests pin it under a ceiling. */
    std::uint64_t freeListNodes() const;

    /** First global frame id of this shard (0 when unsharded). */
    FrameId baseFrame() const { return baseF; }

    /** Socket owning this shard (0 when unsharded). */
    unsigned socket() const { return socketId; }

    /** @return true iff global frame @p frame belongs to this shard. */
    bool
    ownsFrame(FrameId frame) const
    {
        return frame >= baseF && frame - baseF < geom.numFrames();
    }

    /** @return free frames per stack (for the NUMA meminfo model). */
    std::vector<std::uint64_t> perStackFree() const;

    const MemGeometry &geometry() const { return geom; }

    /**
     * Frames currently held by callers: busy and not parked in the
     * on-demand / per-stack pools. Indexed by *shard-local* frame id
     * (global id minus baseFrame()). This is the state the
     * trace-replay tests reconstruct from FrameAlloc / FrameFree
     * events.
     */
    std::vector<bool> busyMap() const;

    /**
     * Teardown leak check: every busy frame must either be referenced
     * by a page table (@p mapped, indexed by *global* FrameId) or
     * parked in one of the free pools; anything else leaked. Reports
     * FrameLeak per offending frame through @p auditor.
     * @return leaked frame count.
     */
    std::uint64_t auditLeaks(const std::vector<bool> &mapped,
                             audit::Auditor &auditor) const;

  private:
    /** Allocate one buddy block of @p order; @return base or fail. */
    bool allocBlock(unsigned order, FrameId &base);
    /** Free shard-local frames [begin, end) in one pass over the busy
     *  bits. @return false if any frame was not allocated (each one
     *  recorded when audited; the rest are still freed). */
    bool freeLocal(FrameId begin, FrameId end);
    /** Put one already-cleared block on the free lists, merging with
     *  its buddies. */
    void insertFreeBlock(FrameId base, unsigned order);
    /** Refill the on-demand pool from one buddy block. */
    bool refillOnDemandPool();
    /** Refill the per-stack pools used by allocInterleaved(). */
    bool refillStackPools();
    /** Return known-valid frames without emitting FrameFree (rollback
     *  of partially-completed allocations). */
    void releaseRange(const FrameRange &range);
    /** Emit FrameAlloc events for out[start..], coalescing physically
     *  adjacent frames into single run events. */
    void emitFrameAllocs(const std::vector<FrameId> &out,
                         std::size_t start, unsigned path);

    const MemGeometry &geom;
    FrameAllocatorConfig cfg;
    /** Global frame id of this shard's first frame. */
    FrameId baseF = 0;
    /** Socket owning this shard; stamps trace events. */
    unsigned socketId = 0;
    std::uint64_t freeCount = 0;

    /** Free lists: per order, coalesced interval set of block
     *  *indices* (base >> order). Adjacent free blocks of one order
     *  collapse into a single interval, so a freshly freed multi-GiB
     *  run costs a handful of nodes instead of one per block. */
    std::vector<IntervalSet> freeLists;
    /** Allocation state per frame, for double-free checking. */
    std::vector<bool> frameBusy;

    /** Frames waiting to be handed to single-frame (CPU fault) users. */
    std::deque<FrameId> onDemandPool;
    /** Per-stack pools for stack-balanced pinned allocations. */
    std::vector<std::deque<FrameId>> stackPools;
    unsigned nextStack = 0;
    SplitMix64 rng;
    /** UPMSan hook; null (no overhead) unless auditing is enabled.
     *  With an auditor attached, double-alloc/double-free become
     *  recorded violations instead of panics, so tests can assert on
     *  the exact failure class. */
    audit::Auditor *aud = nullptr;
    /** UPMInject hook; null (no overhead) unless injection is on.
     *  Every public allocation entry point consults the injector's
     *  frame-alloc site first, so a campaign can force clean OOM
     *  failures deep inside any allocator or fault path. */
    inject::Injector *inj = nullptr;
    /** UPMTrace hook; null (no overhead) unless tracing is on. Emits
     *  FrameAlloc for every contiguous run handed to a caller,
     *  FrameFree for every successful caller free, BuddySplit on
     *  block splits and PoolRefill when the on-demand / per-stack
     *  pools pull a block. Rolled-back partial allocations emit
     *  nothing, so the event stream replays to exactly the set of
     *  caller-held frames. */
    trace::Tracer *tr = nullptr;
};

} // namespace upm::mem

#endif // UPM_MEM_FRAME_ALLOCATOR_HH
