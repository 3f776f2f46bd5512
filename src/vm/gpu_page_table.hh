/**
 * @file
 * The GPU page table with AMD's adaptive fragment scheme.
 *
 * Each GPU PTE carries a 5-bit *fragment* field: log2 of the number of
 * pages in a virtually and physically contiguous, identically-flagged,
 * naturally-aligned block containing the page. The amdgpu driver sets
 * it opportunistically by scanning for maximal contiguous ranges when
 * it writes PTEs (see the `amdgpu_vm_pt.c` comment the paper cites).
 * A UTCL1 entry covers a whole fragment, so large fragments multiply
 * TLB reach -- the mechanism behind hipMalloc's bandwidth advantage
 * (paper Sections 4.2/5.3).
 *
 * Translations live in the same extent-coalesced run map as the system
 * table (SystemPageTable: strided or scatter runs, identical merge
 * rules). Fragment values are *stamped by window* (each
 * recomputeFragments call only rewrites the pages inside its window),
 * so they cannot be derived from the runs; they live beside them in a
 * page-absolute overlay of [vpn, vpn+len) stamps that holds only the
 * *nonzero* values. A page with no stamp carries fragment 0, the value
 * fresh PTEs get, so scattered mirrors store nothing extra. The
 * overlay only ever covers mapped pages: inserts land on unmapped
 * (hence unstamped) pages, removeRange clears its window, and
 * recomputeFragments stamps present pages only.
 */

#ifndef UPM_VM_GPU_PAGE_TABLE_HH
#define UPM_VM_GPU_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "vm/page_table.hh"

namespace upm::vm {

/** GPU PTE: translation plus the fragment field. */
struct GpuPte
{
    FrameId frame = 0;
    PteFlags flags;
    std::uint8_t fragment = 0;  //!< log2(pages) of the covering block
};

/** A fragment descriptor returned to TLB fill logic. */
struct Fragment
{
    Vpn base = 0;
    std::uint64_t span = 1;  //!< pages
};

/**
 * GPU page table. PTEs are inserted by the HMM mirror (or directly by
 * the up-front allocators) with fragment 0; `recomputeFragments` runs
 * the driver's opportunistic scan over a window after every batch of
 * inserts. Inserts, run lookups, gap walks and counts are the run
 * map's own (see SystemPageTable).
 */
class GpuPageTable : private SystemPageTable
{
  public:
    /** Largest fragment the PTE encoding supports (2^31 pages). */
    static constexpr unsigned kMaxFragment = 31;

    using SystemPageTable::forEachGap;
    using SystemPageTable::insert;
    using SystemPageTable::insertFrames;
    using SystemPageTable::insertRange;
    using SystemPageTable::lookupRun;
    using SystemPageTable::present;
    using SystemPageTable::presentCount;
    using SystemPageTable::presentInRange;
    using SystemPageTable::runCount;

    std::optional<GpuPte> lookup(Vpn vpn) const;

    /** Unmap; @return true if it was mapped. */
    bool remove(Vpn vpn) { return removeRange(vpn, vpn + 1) != 0; }

    /** Unmap every present page in [begin, end). @return removed. */
    std::uint64_t removeRange(Vpn begin, Vpn end);

    /**
     * Driver fragment scan over [begin, end): find maximal stretches
     * that are virtually contiguous, physically contiguous, and share
     * flags — detected from per-page frame *values*, independent of
     * how runs are stored — split each stretch into naturally-aligned
     * power-of-two blocks (alignment limited by both the virtual and
     * physical base) and stamp every PTE with its block's log2 size.
     * Pages outside the window keep their previous stamps, exactly as
     * the driver only rewrites the PTE range of the current map
     * operation.
     */
    void recomputeFragments(Vpn begin, Vpn end);

    /**
     * Fragment containing @p vpn, for UTCL1 fills. Requires presence.
     */
    Fragment fragmentOf(Vpn vpn) const;

    /**
     * Span histogram over [begin, end): pages covered per fragment
     * log2-size. Used by tests and the TLB-miss analysis.
     */
    std::vector<std::uint64_t> fragmentHistogram(Vpn begin, Vpn end) const;

    /** Visit present entries in [begin, end) in vpn order. */
    template <typename Fn>
    void
    forRange(Vpn begin, Vpn end, Fn &&fn) const
    {
        forEachFragSeg(begin, end,
                       [&](const PteRun &run, Vpn seg_begin, Vpn seg_end,
                           std::uint8_t frag) {
                           for (Vpn vpn = seg_begin; vpn < seg_end; ++vpn)
                               fn(vpn,
                                  GpuPte{run.frameOf(vpn), run.flags, frag});
                       });
    }

    /**
     * Visit same-fragment stretches of mapped pages in [begin, end) in
     * vpn order: the run-length-encoded form of the per-page fragment
     * field. @param fn callable (Vpn seg_begin, uint64 seg_len,
     * uint8 fragment). UTCL1 walkers use this instead of per-page
     * lookups. Segment boundaries are a storage artifact; only the
     * per-page values are meaningful.
     */
    template <typename Fn>
    void
    forEachFragmentRun(Vpn begin, Vpn end, Fn &&fn) const
    {
        forEachFragSeg(begin, end,
                       [&](const PteRun &, Vpn seg_begin, Vpn seg_end,
                           std::uint8_t frag) {
                           fn(seg_begin, seg_end - seg_begin, frag);
                       });
    }

  private:
    /** Overlay entry: pages [key, key+len) carry fragment @ref frag,
     *  which is never 0. */
    struct Stamp
    {
        std::uint64_t len = 0;
        std::uint8_t frag = 0;
    };

    using StampMap = std::map<Vpn, Stamp>;

    /** First stamp ending after @p vpn (it may start after it). */
    StampMap::const_iterator stampFrom(Vpn vpn) const;

    /** Drop every stamp in [begin, end), trimming those it cuts. */
    void clearStamps(Vpn begin, Vpn end);

    /**
     * Walk the runs in [begin, end) and the overlay together, in one
     * pass: fn(const PteRun &run, Vpn seg_begin, Vpn seg_end, uint8
     * frag) for each piece of a run that shares one fragment value.
     * O(runs + stamps) in the window.
     */
    template <typename Fn>
    void
    forEachFragSeg(Vpn begin, Vpn end, Fn &&fn) const
    {
        auto st = stampFrom(begin);
        forEachRun(begin, end, [&](const PteRun &run) {
            Vpn v = run.vpn;
            while (v < run.end()) {
                while (st != overlay.end() &&
                       st->first + st->second.len <= v)
                    ++st;
                if (st == overlay.end() || st->first >= run.end()) {
                    fn(run, v, run.end(), std::uint8_t{0});
                    return;
                }
                if (v < st->first) {
                    fn(run, v, st->first, std::uint8_t{0});
                    v = st->first;
                }
                Vpn seg_end =
                    std::min(run.end(), st->first + st->second.len);
                fn(run, v, seg_end, st->second.frag);
                v = seg_end;
            }
        });
    }

    StampMap overlay;
};

} // namespace upm::vm

#endif // UPM_VM_GPU_PAGE_TABLE_HH
