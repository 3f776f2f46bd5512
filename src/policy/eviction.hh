/**
 * @file
 * EvictionPolicy: victim selection under memory pressure.
 *
 * The pre-policy simulator had exactly one eviction strategy, an LRU
 * list buried inside uvm::UvmSimulator. This interface lifts victim
 * selection out so LRU / LFU / seeded-random / predictive variants
 * are interchangeable behind one contract:
 *
 *  - the caller reports residency changes (insert / touch / remove)
 *    with a monotonically non-decreasing logical tick;
 *  - evict() deterministically picks a victim, removes it from the
 *    policy's bookkeeping, and returns it;
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
 * Data structures. Every policy keeps its per-page nodes in
 * PageNodes (page_index.hh): a dense node vector under a flat
 * open-addressing PageKey index of 4-byte node ids. The order lives
 * inside the nodes as intrusive links, so no operation allocates once
 * the tables reach their working size:
 *
 *  - LRU: one doubly linked list in (stamp asc, key asc) order; the
 *    head is the victim.
 *  - LFU: one such list per access frequency, the non-empty lists
 *    chained in ascending frequency; the first list holds the
 *    minimum frequency and its head is the victim.
 *  - Random: the swap-remove id array the draw indexes.
 *  - Predictive: never-reused pages (all tied at the infinite
 *    prediction) in one stamp-ordered list; reused pages in an
 *    indexed binary min-heap on (~predicted, stamp, key).
 *
 * Sorted lists insert by walking back from the tail past every node
 * that orders after the new one. The owning simulators stamp with a
 * non-decreasing tick and touch the pages of one call in ascending
 * order, so the walk stops at once; when several keys share a tick,
 * or a caller passes a decreasing tick, the walk still yields the
 * exact (stamp, key) order the tie-break rules define.
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

/** Ends of an intrusive doubly linked list of PageNodes ids. */
struct StampList
{
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
};

/**
 * Victim selection interface. Implementations are single-threaded
 * model objects, like the simulators that own them.
 */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /** @p key became resident at logical time @p tick. The key must
     *  not already be tracked. */
    virtual void insert(PageKey key, std::uint64_t tick) = 0;

    /** A tracked @p key was accessed at @p tick. */
    virtual void touch(PageKey key, std::uint64_t tick) = 0;

    /** @p key left residency for a non-eviction reason (free,
     *  explicit migration); drop it from the bookkeeping. */
    virtual void remove(PageKey key) = 0;

    /** Pick the victim, remove it, and return it. Panics when no
     *  page is tracked. */
    virtual PageKey evict() = 0;

    /** Pages currently tracked. */
    virtual std::uint64_t size() const = 0;

    /** True when @p key is tracked. */
    virtual bool contains(PageKey key) const = 0;

    virtual EvictionKind kind() const = 0;
    const char *name() const { return evictionKindName(kind()); }
};

/**
 * LRU: victim = oldest stamp, lowest key on ties. Bit-identical to
 * the retired uvm list LRU (see file comment), and the explicit
 * tie-break makes the choice representation-independent -- the fix
 * for the old evictOne() tying on map-iteration order.
 */
class LruEviction : public EvictionPolicy
{
  public:
    void insert(PageKey key, std::uint64_t tick) override;
    void touch(PageKey key, std::uint64_t tick) override;
    void remove(PageKey key) override;
    PageKey evict() override;
    std::uint64_t size() const override { return pages.size(); }
    bool contains(PageKey key) const override
    {
        return pages.find(key) != kNil;
    }
    EvictionKind kind() const override { return EvictionKind::Lru; }

  private:
    struct Node
    {
        PageKey key;
        std::uint64_t stamp = 0;  //!< last access
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };
    PageNodes<Node> pages;
    /** (stamp, key) ascending: the head is the victim. */
    StampList order;
};

/**
 * LFU: victim = lowest access frequency; ties fall back to the least
 * recent stamp, then the lowest key.
 */
class LfuEviction : public EvictionPolicy
{
  public:
    void insert(PageKey key, std::uint64_t tick) override;
    void touch(PageKey key, std::uint64_t tick) override;
    void remove(PageKey key) override;
    PageKey evict() override;
    std::uint64_t size() const override { return pages.size(); }
    bool contains(PageKey key) const override
    {
        return pages.find(key) != kNil;
    }
    EvictionKind kind() const override { return EvictionKind::Lfu; }

  private:
    struct Node
    {
        PageKey key;
        std::uint64_t stamp = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t bucket = kNil;  //!< frequency bucket id
    };
    /** The pages of one access frequency, in (stamp, key) order. */
    struct Bucket
    {
        std::uint64_t freq = 0;
        StampList pages;
        std::uint32_t prev = kNil;  //!< next-lower frequency
        std::uint32_t next = kNil;  //!< next-higher frequency
    };
    /** The bucket of frequency @p freq directly after bucket @p after
     *  (kNil: the front of the chain), created when absent. */
    std::uint32_t bucketAfter(std::uint32_t after, std::uint64_t freq);
    /** Unlink @p id from its bucket; drop the bucket when it empties. */
    void leaveBucket(std::uint32_t id);

    PageNodes<Node> pages;
    std::vector<Bucket> buckets;
    std::vector<std::uint32_t> freeBuckets;
    /** Lowest-frequency bucket; its list head is the victim. */
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
 * stream pick the same victims.
 */
class RandomEviction : public EvictionPolicy
{
  public:
    explicit RandomEviction(std::uint64_t seed) : rng(seed) {}

    void insert(PageKey key, std::uint64_t tick) override;
    void touch(PageKey key, std::uint64_t tick) override;
    void remove(PageKey key) override;
    PageKey evict() override;
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
class PredictiveEviction : public EvictionPolicy
{
  public:
    void insert(PageKey key, std::uint64_t tick) override;
    void touch(PageKey key, std::uint64_t tick) override;
    void remove(PageKey key) override;
    PageKey evict() override;
    std::uint64_t size() const override { return pages.size(); }
    bool contains(PageKey key) const override
    {
        return pages.find(key) != kNil;
    }
    EvictionKind kind() const override
    {
        return EvictionKind::Predictive;
    }

    /** Predicted-next-touch sentinel for pages never re-accessed. */
    static constexpr std::uint64_t kNeverReused = ~0ull;

  private:
    struct Node
    {
        PageKey key;
        std::uint64_t stamp = 0;
        /** EWMA inter-access gap; kNeverReused until the first
         *  re-touch. */
        std::uint64_t ewmaGap = kNeverReused;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t heapPos = kNil;  //!< kNil while in fresh
    };
    static std::uint64_t predictedNext(const Node &node);
    /** Victim order: (~predictedNext, stamp, key) ascending, so the
     *  furthest prediction comes first. */
    bool precedes(std::uint32_t a, std::uint32_t b) const;
    /** Place node @p id in fresh or the heap, by its prediction. */
    void attach(std::uint32_t id);
    /** Take node @p id out of fresh or the heap. */
    void detach(std::uint32_t id);
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);
    void heapSet(std::uint32_t pos, std::uint32_t id);

    PageNodes<Node> pages;
    /** Never-reused pages in (stamp, key) order. */
    StampList fresh;
    /** Min-heap of node ids under precedes(). */
    std::vector<std::uint32_t> heap;
};

/** Build an eviction policy. @p seed feeds the seeded variants. */
std::unique_ptr<EvictionPolicy> makeEviction(EvictionKind kind,
                                             std::uint64_t seed);

} // namespace upm::policy

#endif // UPM_POLICY_EVICTION_HH
