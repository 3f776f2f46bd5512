/**
 * @file
 * EvictionPolicy: victim selection under memory pressure.
 *
 * The pre-policy simulator had exactly one eviction strategy, an LRU
 * list buried inside uvm::UvmSimulator. This interface lifts victim
 * selection out so LRU / LFU / seeded-random / predictive variants
 * are interchangeable behind one contract:
 *
 *  - the caller reports residency changes (insert / touch / remove,
 *    for one page or a run of consecutive pages) with a monotonically
 *    non-decreasing logical tick;
 *  - evictRun() deterministically picks victims, removes them from the
 *    policy's bookkeeping, and returns them;
 *  - every policy breaks ties by the lowest PageKey, so the victim
 *    sequence is a pure function of the access stream (and, for
 *    Random, the seed) -- never of container representation.
 *
 * LRU compatibility gate: with per-call ticks, (stamp asc, key asc)
 * ordering reproduces the retired uvm list-LRU byte for byte. Pages
 * touched by the same call share a stamp and were list-appended in
 * ascending page order, so the list head was always the lowest key of
 * the oldest stamp -- exactly what the explicit tie-break picks. The
 * differential tests in tests/policy_diff_test.cc pin both this and
 * the slow reference-model oracle for every variant.
 *
 * Data structures. LRU, LFU and Predictive keep one node per *run*:
 * a maximal stretch of consecutive pages of one space that share
 * their ordering state -- (stamp) for LRU, (freq, stamp) for LFU,
 * (stamp, ewmaGap) for Predictive. The runs live in RunNodes
 * (page_index.hh), an ordered index keyed by run end, and the victim
 * order lives inside the nodes as intrusive links:
 *
 *  - LRU: one doubly linked run list in (stamp, first key) order; the
 *    head run's first page is the victim.
 *  - LFU: one such list per access frequency, the non-empty lists
 *    chained in ascending frequency; the first list holds the
 *    minimum frequency and its head run leads.
 *  - Predictive: never-reused runs (all tied at the infinite
 *    prediction) in one stamp-ordered list; reused runs in an indexed
 *    binary min-heap on (~predicted, stamp, first key).
 *
 * Runs are disjoint, so two runs that tie on state order by their
 * first keys and every page of the leading run precedes every page of
 * the next: an eviction takes pages off the head of the leading run,
 * and a touch splits the runs it overlaps at the span edges and
 * re-merges pieces that end up contiguous with equal state. All pages
 * of one simulator call share a tick, so a call costs a few run
 * operations rather than one per page.
 *
 * Random keeps per-page nodes in PageNodes: its draw indexes a
 * swap-remove array of pages, and its run forms loop over pages.
 */

#ifndef UPM_POLICY_EVICTION_HH
#define UPM_POLICY_EVICTION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "policy/page_index.hh"
#include "policy/policy.hh"

namespace upm::policy {

/** Ends of an intrusive doubly linked list of node ids. */
struct StampList
{
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
};

/**
 * Victim selection interface. Implementations are single-threaded
 * model objects, like the simulators that own them. The run forms are
 * the interface; the single-page forms are count-1 calls of them.
 */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /** Pages [first, first+count) became resident at logical time
     *  @p tick. None may already be tracked. */
    virtual void insertRun(PageKey first, std::uint64_t count,
                           std::uint64_t tick) = 0;

    /** Tracked pages [first, first+count) were accessed at @p tick. */
    virtual void touchRun(PageKey first, std::uint64_t count,
                          std::uint64_t tick) = 0;

    /** Tracked pages [first, first+count) left residency for a
     *  non-eviction reason (free, explicit migration); drop them. */
    virtual void removeRun(PageKey first, std::uint64_t count) = 0;

    /** Evict between 1 and @p max (>= 1) victims that come one after
     *  another in both victim order and key order, and return them.
     *  Panics when no page is tracked. */
    virtual PageRun evictRun(std::uint64_t max) = 0;

    /**
     * Admit pages [first, first+count) at @p tick into a memory with
     * @p room free pages: the same victims, in the same order, as
     * count single-page inserts that each evict one page first once
     * the room is used up. Victims -- which may include admitted
     * pages -- are appended to @p victims in order.
     *
     * The default inserts the run between the evictions. That is
     * exact when every tracked page orders wholly before or wholly
     * after the admitted ones: true when @p tick is newer than every
     * tracked stamp, or equal only for pages below @p first -- a
     * caller that stamps each call with a fresh tick and walks it in
     * ascending page order.
     */
    virtual void admitRun(PageKey first, std::uint64_t count,
                          std::uint64_t tick, std::uint64_t room,
                          std::vector<PageRun> &victims);

    /** Evict @p k victims in order, appending them to @p out as runs. */
    void evictRuns(std::uint64_t k, std::vector<PageRun> &out);

    void insert(PageKey key, std::uint64_t tick) { insertRun(key, 1, tick); }
    void touch(PageKey key, std::uint64_t tick) { touchRun(key, 1, tick); }
    void remove(PageKey key) { removeRun(key, 1); }
    /** Pick one victim, remove it, and return it. */
    PageKey evict() { return evictRun(1).first; }

    /** Pages currently tracked. */
    virtual std::uint64_t size() const = 0;

    /** True when @p key is tracked. */
    virtual bool contains(PageKey key) const = 0;

    virtual EvictionKind kind() const = 0;
    const char *name() const { return evictionKindName(kind()); }
};

/**
 * The run machinery LRU, LFU and Predictive share: splitting, merging
 * and trimming runs. A kind supplies its state transition and its
 * victim order through the hooks below.
 */
class RunEviction : public EvictionPolicy
{
  public:
    void insertRun(PageKey first, std::uint64_t count,
                   std::uint64_t tick) override;
    void touchRun(PageKey first, std::uint64_t count,
                  std::uint64_t tick) override;
    void removeRun(PageKey first, std::uint64_t count) override;
    PageRun evictRun(std::uint64_t max) override;
    std::uint64_t size() const override { return runs.pages(); }
    bool contains(PageKey key) const override
    {
        return runs.find(key) != kNil;
    }

    /** Runs currently tracked (each a maximal same-state stretch). */
    std::uint64_t runCount() const { return runs.size(); }

  protected:
    struct Run
    {
        PageKey first;
        std::uint64_t count = 0;
        std::uint64_t stamp = 0;  //!< last access
        /** LFU: access frequency. Predictive: EWMA inter-access gap.
         *  LRU: unused, 0. */
        std::uint64_t aux = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        /** LFU: frequency bucket. Predictive: heap position, kNil
         *  while in the fresh list. */
        std::uint32_t slot = kNil;
    };

    /** @p fresh_aux: the aux of a newly inserted run. */
    explicit RunEviction(std::uint64_t fresh_aux) : freshAux(fresh_aux) {}

    /** The state an access at @p tick moves @p run to. */
    virtual void retouch(Run &run, std::uint64_t tick) const = 0;
    /** Where a retouched copy of run @p id goes; called while @p id is
     *  still placed. Only LFU uses it (the next frequency bucket). */
    virtual std::uint32_t touchSlot(std::uint32_t id)
    {
        (void)id;
        return kNil;
    }
    /** Place run @p id by its state. @p slot is touchSlot() of the run
     *  it was retouched from, or kNil for a fresh insert. */
    virtual void attach(std::uint32_t id, std::uint32_t slot) = 0;
    /** Place run @p id, which has run @p next's state and the keys
     *  just below it, directly ahead of @p next. */
    virtual void attachBefore(std::uint32_t id, std::uint32_t next) = 0;
    /** Take run @p id out of the victim order. */
    virtual void detach(std::uint32_t id) = 0;
    /** The run whose first page is the next victim; kNil when none. */
    virtual std::uint32_t leader() const = 0;

    /** (stamp, first key) order of the sorted run lists. */
    bool stampBefore(std::uint32_t a, std::uint32_t b) const;
    /** Link @p id into @p list at its (stamp, key) position, walking
     *  back from the tail: O(1) for non-decreasing stamps. */
    void linkSorted(StampList &list, std::uint32_t id);
    void linkBefore(StampList &list, std::uint32_t id, std::uint32_t next);
    void unlink(StampList &list, std::uint32_t id);

    RunNodes<Run> runs;

  private:
    bool sameState(std::uint32_t a, const Run &b) const
    {
        return runs[a].stamp == b.stamp && runs[a].aux == b.aux;
    }
    /** Drop the first @p n pages of run @p id: the whole run when
     *  @p n is its count. */
    void takeHead(std::uint32_t id, std::uint64_t n);
    /** Split run @p id at @p page: a new run, placed ahead of it,
     *  takes the pages below @p page; @p id keeps the rest. */
    void splitHead(std::uint32_t id, std::uint64_t page);
    /** Merge the run starting where run @p id ends into it when both
     *  have the same state. */
    void mergeRight(std::uint32_t id);

    std::uint64_t freshAux;
};

/**
 * LRU: victim = oldest stamp, lowest key on ties. Bit-identical to
 * the retired uvm list LRU (see file comment), and the explicit
 * tie-break makes the choice representation-independent -- the fix
 * for the old evictOne() tying on map-iteration order.
 */
class LruEviction : public RunEviction
{
  public:
    LruEviction() : RunEviction(0) {}
    EvictionKind kind() const override { return EvictionKind::Lru; }

  private:
    void retouch(Run &run, std::uint64_t tick) const override;
    void attach(std::uint32_t id, std::uint32_t slot) override;
    void attachBefore(std::uint32_t id, std::uint32_t next) override;
    void detach(std::uint32_t id) override;
    std::uint32_t leader() const override { return order.head; }

    /** (stamp, key) ascending: the head run leads. */
    StampList order;
};

/**
 * LFU: victim = lowest access frequency; ties fall back to the least
 * recent stamp, then the lowest key.
 */
class LfuEviction : public RunEviction
{
  public:
    LfuEviction() : RunEviction(1) {}
    EvictionKind kind() const override { return EvictionKind::Lfu; }

  private:
    /** The runs of one access frequency, in (stamp, key) order. */
    struct Bucket
    {
        std::uint64_t freq = 0;
        StampList runs;
        std::uint32_t prev = kNil;  //!< next-lower frequency
        std::uint32_t next = kNil;  //!< next-higher frequency
    };

    void retouch(Run &run, std::uint64_t tick) const override;
    std::uint32_t touchSlot(std::uint32_t id) override;
    void attach(std::uint32_t id, std::uint32_t slot) override;
    void attachBefore(std::uint32_t id, std::uint32_t next) override;
    void detach(std::uint32_t id) override;
    std::uint32_t leader() const override
    {
        return minBucket == kNil ? kNil : buckets[minBucket].runs.head;
    }

    /** The bucket of frequency @p freq directly after bucket @p after
     *  (kNil: the front of the chain), created when absent. */
    std::uint32_t bucketAfter(std::uint32_t after, std::uint64_t freq);

    std::vector<Bucket> buckets;
    std::vector<std::uint32_t> freeBuckets;
    /** Lowest-frequency bucket; its list head run leads. */
    std::uint32_t minBucket = kNil;
};

/**
 * Seeded-random: victim = uniform SplitMix64 draw over the tracked
 * pages, held as node ids in a swap-remove vector (the standard O(1)
 * random-eviction structure); each node records its vector slot, and
 * the PageNodes index finds the node of a key. The vector's order --
 * and therefore the victim sequence -- is a pure function of the
 * insert/remove/evict stream and the seed, never of container
 * internals; two policies built with the same seed and fed the same
 * stream pick the same victims. The run forms loop over pages.
 */
class RandomEviction : public EvictionPolicy
{
  public:
    explicit RandomEviction(std::uint64_t seed) : rng(seed) {}

    void insertRun(PageKey first, std::uint64_t count,
                   std::uint64_t tick) override;
    void touchRun(PageKey first, std::uint64_t count,
                  std::uint64_t tick) override;
    void removeRun(PageKey first, std::uint64_t count) override;
    /** One draw: a single victim. */
    PageRun evictRun(std::uint64_t max) override;
    /** Each admitted page's draw sees the pages admitted before it, so
     *  the inserts and evictions interleave page by page. */
    void admitRun(PageKey first, std::uint64_t count, std::uint64_t tick,
                  std::uint64_t room,
                  std::vector<PageRun> &victims) override;
    std::uint64_t size() const override { return pages.size(); }
    bool contains(PageKey key) const override
    {
        return pages.find(key) != kNil;
    }
    EvictionKind kind() const override { return EvictionKind::Random; }

  private:
    struct Node
    {
        PageKey key;
        std::uint64_t slot = 0;  //!< position in slots
    };
    /** Drop slot @p slot by swapping the last id into it. */
    void swapRemove(std::uint64_t slot);

    SplitMix64 rng;
    PageNodes<Node> pages;
    std::vector<std::uint32_t> slots;  //!< node ids, the draw's domain
};

/**
 * Predictive: per-page EWMA of the inter-access gap predicts the next
 * touch; the victim is the page whose predicted next touch is
 * furthest in the future (largest predicted tick), with never-reused
 * pages treated as infinitely far. Ties fall back to the oldest
 * stamp, then the lowest key. Integer arithmetic throughout
 * (ewma' = (3*ewma + gap) / 4), so predictions are exact and
 * platform-independent.
 */
class PredictiveEviction : public RunEviction
{
  public:
    PredictiveEviction() : RunEviction(kNeverReused) {}
    EvictionKind kind() const override
    {
        return EvictionKind::Predictive;
    }

    /** Predicted-next-touch sentinel for pages never re-accessed. */
    static constexpr std::uint64_t kNeverReused = ~0ull;

  private:
    void retouch(Run &run, std::uint64_t tick) const override;
    void attach(std::uint32_t id, std::uint32_t slot) override;
    void attachBefore(std::uint32_t id, std::uint32_t next) override;
    void detach(std::uint32_t id) override;
    std::uint32_t leader() const override;

    static std::uint64_t predictedNext(const Run &run);
    /** Victim order: (~predictedNext, stamp, key) ascending, so the
     *  furthest prediction comes first. */
    bool precedes(std::uint32_t a, std::uint32_t b) const;
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);
    void heapSet(std::uint32_t pos, std::uint32_t id);

    /** Never-reused runs in (stamp, key) order. */
    StampList fresh;
    /** Min-heap of reused run ids under precedes(). */
    std::vector<std::uint32_t> heap;
};

/** Build an eviction policy. @p seed feeds the seeded variants. */
std::unique_ptr<EvictionPolicy> makeEviction(EvictionKind kind,
                                             std::uint64_t seed);

} // namespace upm::policy

#endif // UPM_POLICY_EVICTION_HH
