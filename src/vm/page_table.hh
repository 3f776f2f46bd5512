/**
 * @file
 * The system (CPU) page table.
 *
 * MI300A keeps two page tables: the Linux system page table, walked by
 * the CPU cores, and a GPU page table walked by the GPU's UTC. This
 * class models the former. Mappings are stored *extent-coalesced*: a
 * sorted map of [vpn, vpn+len) runs. A run is either *strided* (page
 * vpn+i -> frame+i, physically contiguous) or a *scatter* run carrying
 * an explicit per-page frame vector — one node for a million-page
 * interleaved pinned buffer instead of a million tree nodes. Runs
 * never overlap; strided runs are maximally merged against strided
 * neighbours, so a multi-GiB hipMalloc costs a handful of nodes and
 * range operations are O(log runs + touched runs). The GPU page table
 * (gpu_page_table.hh) stores its translations in this same structure.
 */

#ifndef UPM_VM_PAGE_TABLE_HH
#define UPM_VM_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/geometry.hh"

namespace upm::vm {

using mem::FrameId;
using mem::VirtAddr;

/** Virtual page number. */
using Vpn = std::uint64_t;

/** Page-level attributes; equality matters for fragment formation. */
struct PteFlags
{
    bool writable = true;
    bool pinned = false;    //!< page-locked (mlock / hipHostRegister)
    bool uncached = false;  //!< GPU-side uncacheable (managed statics)

    bool operator==(const PteFlags &) const = default;
};

/** One page-table entry. */
struct Pte
{
    FrameId frame = 0;
    PteFlags flags;
};

/**
 * An extent of present pages sharing @ref flags. When @ref scatter is
 * null, page vpn+i maps frame+i; otherwise scatter[i] gives the frame
 * of page vpn+i (and frame == scatter[0]). The scatter pointer aliases
 * table-owned storage: it is valid only until the next table mutation,
 * so callers that outlive the callback must copy the frames out.
 */
struct PteRun
{
    Vpn vpn = 0;
    std::uint64_t len = 0;
    FrameId frame = 0;
    PteFlags flags;
    const FrameId *scatter = nullptr;

    Vpn end() const { return vpn + len; }

    FrameId
    frameOf(Vpn v) const
    {
        return scatter != nullptr ? scatter[v - vpn] : frame + (v - vpn);
    }
};

/** vpn helpers. */
constexpr Vpn
vpnOf(VirtAddr addr)
{
    return addr >> mem::kPageShift;
}

constexpr VirtAddr
addrOf(Vpn vpn)
{
    return vpn << mem::kPageShift;
}

/**
 * Extent-coalesced page table. Lookup is O(log runs); range iteration
 * is ordered, which the HMM mirror and fragment computation rely on.
 *
 * Invariants: runs never overlap, and adjacent *strided* runs that are
 * virtually and physically contiguous with equal flags are merged on
 * insert. Scatter runs are kept as inserted (bulk faults and pinned
 * buffers arrive as one batch each), so the representation of a given
 * mapping may depend on insertion granularity — every consumer reads
 * per-page *values*, which do not.
 */
class SystemPageTable
{
  public:
    /** Map @p vpn to @p frame. Panics if already present. */
    void
    insert(Vpn vpn, FrameId frame, PteFlags flags = {})
    {
        insertRange(vpn, 1, frame, flags);
    }

    /**
     * Map [vpn, vpn+len) to frames [frame, frame+len), merging with
     * contiguous same-flag strided neighbours. Panics if any page is
     * present.
     */
    void insertRange(Vpn vpn, std::uint64_t len, FrameId frame,
                     PteFlags flags = {});

    /**
     * Map page vpn+i to frames[i] for i in [0, n) as one run. A
     * frame-contiguous batch degenerates to a strided run; anything
     * else becomes a single scatter run (no per-page tree nodes).
     * Panics if any page is present.
     */
    void insertFrames(Vpn vpn, const FrameId *frames, std::uint64_t n,
                      PteFlags flags = {});

    /** insertFrames overload that adopts the vector (no copy). */
    void insertFrames(Vpn vpn, std::vector<FrameId> &&frames,
                      PteFlags flags = {});

    /** @return the PTE if present. */
    std::optional<Pte>
    lookup(Vpn vpn) const
    {
        auto it = findRun(vpn);
        if (it == runs.end())
            return std::nullopt;
        return Pte{frameAt(it, vpn), it->second.flags};
    }

    /** @return the run containing @p vpn, if present. */
    std::optional<PteRun> lookupRun(Vpn vpn) const;

    bool present(Vpn vpn) const { return findRun(vpn) != runs.end(); }

    /** Unmap @p vpn. @return the freed frame if it was mapped. */
    std::optional<FrameId> remove(Vpn vpn);

    /**
     * Unmap every present page in [begin, end), splitting runs at the
     * boundaries. @param fn called once per removed sub-run with a
     * (const PteRun &) describing it, in vpn order, *before* the table
     * is restructured — the run's scatter pointer is valid only for
     * the duration of the call, and @p fn must not re-enter the table.
     * @return pages removed.
     */
    template <typename Fn>
    std::uint64_t
    removeRange(Vpn begin, Vpn end, Fn &&fn)
    {
        std::uint64_t removed = 0;
        if (begin >= end)
            return removed;
        auto it = runs.upper_bound(begin);
        if (it != runs.begin()) {
            --it;
            if (begin >= it->first + it->second.len)
                ++it;
        }
        while (it != runs.end() && it->first < end) {
            Vpn run_vpn = it->first;
            Run &run = it->second;
            Vpn cut_begin = std::max(begin, run_vpn);
            Vpn cut_end = std::min(end, run_vpn + run.len);
            std::uint64_t cut_len = cut_end - cut_begin;
            removed += cut_len;
            fn(PteRun{cut_begin, cut_len, frameAt(it, cut_begin),
                      run.flags,
                      run.scatter.empty()
                          ? nullptr
                          : run.scatter.data() + (cut_begin - run_vpn)});

            bool keep_head = cut_begin > run_vpn;
            bool keep_tail = cut_end < run_vpn + run.len;
            if (keep_tail) {
                Run tail;
                tail.len = run_vpn + run.len - cut_end;
                tail.flags = run.flags;
                if (run.scatter.empty()) {
                    tail.frame = run.frame + (cut_end - run_vpn);
                } else {
                    tail.scatter.assign(
                        run.scatter.begin() + (cut_end - run_vpn),
                        run.scatter.end());
                    tail.frame = tail.scatter.front();
                }
                if (keep_head) {
                    run.len = cut_begin - run_vpn;
                    if (!run.scatter.empty())
                        run.scatter.resize(run.len);
                    ++it;
                } else {
                    it = runs.erase(it);
                }
                it = runs.emplace_hint(it, cut_end, std::move(tail));
                ++it;
            } else if (keep_head) {
                run.len = cut_begin - run_vpn;
                if (!run.scatter.empty())
                    run.scatter.resize(run.len);
                ++it;
            } else {
                it = runs.erase(it);
            }
        }
        presentPages -= removed;
        return removed;
    }

    /** Update flags of a present entry (pin/unpin). Panics if absent. */
    void setFlags(Vpn vpn, PteFlags flags);

    /**
     * Update flags of every present page in [begin, end), splitting at
     * the boundaries and re-merging neighbours that become compatible.
     * @return pages updated.
     */
    std::uint64_t setFlagsRange(Vpn begin, Vpn end, PteFlags flags);

    /** Number of present pages. */
    std::uint64_t presentCount() const { return presentPages; }

    /** Number of stored runs (diagnostics / tests). */
    std::uint64_t runCount() const { return runs.size(); }

    /** Present pages within [begin, end). O(log runs + runs hit). */
    std::uint64_t presentInRange(Vpn begin, Vpn end) const;

    /**
     * Visit present entries in [begin, end) in vpn order.
     * @param fn callable (Vpn, const Pte &).
     */
    template <typename Fn>
    void
    forRange(Vpn begin, Vpn end, Fn &&fn) const
    {
        forEachRun(begin, end, [&](const PteRun &run) {
            Pte pte{run.frame, run.flags};
            for (Vpn vpn = run.vpn; vpn < run.end(); ++vpn) {
                pte.frame = run.scatter != nullptr
                                ? run.scatter[vpn - run.vpn]
                                : run.frame + (vpn - run.vpn);
                fn(vpn, pte);
            }
        });
    }

    /**
     * Visit runs overlapping [begin, end) in vpn order, clipped to the
     * window. @param fn callable (const PteRun &); the run's scatter
     * pointer is valid only while the table is unmodified.
     */
    template <typename Fn>
    void
    forEachRun(Vpn begin, Vpn end, Fn &&fn) const
    {
        if (begin >= end)
            return;
        auto it = runs.upper_bound(begin);
        if (it != runs.begin()) {
            --it;
            if (begin >= it->first + it->second.len)
                ++it;
        }
        for (; it != runs.end() && it->first < end; ++it) {
            Vpn clip_begin = std::max(begin, it->first);
            Vpn clip_end = std::min(end, it->first + it->second.len);
            fn(PteRun{clip_begin, clip_end - clip_begin,
                      frameAt(it, clip_begin), it->second.flags,
                      it->second.scatter.empty()
                          ? nullptr
                          : it->second.scatter.data() +
                                (clip_begin - it->first)});
        }
    }

    /**
     * Visit the *unmapped* gaps of [begin, end) in vpn order.
     * @param fn callable (Vpn gap_begin, Vpn gap_end).
     */
    template <typename Fn>
    void
    forEachGap(Vpn begin, Vpn end, Fn &&fn) const
    {
        Vpn cursor = begin;
        forEachRun(begin, end, [&](const PteRun &run) {
            if (cursor < run.vpn)
                fn(cursor, run.vpn);
            cursor = run.end();
        });
        if (cursor < end)
            fn(cursor, end);
    }

  private:
    /**
     * Stored extent: [key, key+len). Strided (scatter empty, frame
     * meaningful) or scatter (scatter.size() == len, frame ==
     * scatter[0]).
     */
    struct Run
    {
        std::uint64_t len = 0;
        FrameId frame = 0;
        PteFlags flags;
        std::vector<FrameId> scatter;
    };

    using RunMap = std::map<Vpn, Run>;

    /** Iterator to the run containing @p vpn, or end(). One descent. */
    RunMap::const_iterator findRun(Vpn vpn) const;

    /** Panic unless [vpn, vpn+len) is unmapped. @return the first run
     *  after it. */
    RunMap::iterator checkFree(Vpn vpn, std::uint64_t len);

    /** Frame of page @p vpn, which must lie inside @p it's run. */
    template <typename It>
    static FrameId
    frameAt(It it, Vpn vpn)
    {
        const auto &run = it->second;
        return run.scatter.empty()
                   ? run.frame + (vpn - it->first)
                   : run.scatter[vpn - it->first];
    }

    RunMap runs;
    std::uint64_t presentPages = 0;
};

} // namespace upm::vm

#endif // UPM_VM_PAGE_TABLE_HH
