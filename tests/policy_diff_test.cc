/**
 * @file
 * Differential policy tests.
 *
 * Two oracles pin the eviction policies:
 *
 *  1. A slow reference model -- a flat entry vector scanned linearly
 *     per decision, sharing no code or data structure with
 *     policy/eviction.cc -- is driven through 16 seeded random op
 *     streams per policy kind. Victim sequences must match exactly.
 *     (For Random, the reference replays the specified semantics --
 *     a seeded draw over an insertion-ordered swap-remove array --
 *     with its own independent bookkeeping.)
 *
 *  2. A verbatim copy of the pre-policy uvm list-LRU simulator (the
 *     std::list + iterator-map implementation this PR retired) runs
 *     the bench_uvm_comparison scenarios next to today's
 *     UvmSimulator. Every simulated time and counter must be
 *     byte-identical: the stamp-ordered LruEviction IS the old list,
 *     not an approximation of it.
 *
 * A further stream grows a 4 x 4096-page key universe to thousands of
 * tracked pages and drains it again, driving the flat index through
 * growth and node reuse; a small-table churn test pins its
 * wrap-around deletes against a std::map mirror. A third oracle, a
 * verbatim copy of the std::map HotColdMigration the sorted node
 * vector replaced, must agree with today's on every decide() and
 * residentIn() under seeded callback streams, under a drain of
 * decide() over tens of thousands of keys, and whether a region is
 * reported through onResidentRange() or page by page.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "exec/task_pool.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "policy/eviction.hh"
#include "policy/migration.hh"
#include "policy/page_index.hh"
#include "trace/tracer.hh"
#include "uvm/uvm.hh"

namespace upm::policy {
namespace {

// ---- Oracle 1: slow reference model -------------------------------------

/** Flat-scan reference: one entry per tracked page, victim found by a
 *  full O(n) scan per decision. */
class ReferenceModel
{
  public:
    ReferenceModel(EvictionKind kind, std::uint64_t seed)
        : evKind(kind), rng(seed)
    {}

    void
    insert(PageKey key, std::uint64_t tick)
    {
        entries.push_back({key, tick, 1, kNever});
        order.push_back(key);
    }

    void
    touch(PageKey key, std::uint64_t tick)
    {
        Entry &e = *find(key);
        std::uint64_t gap = tick - e.stamp;
        e.ewmaGap = e.ewmaGap == kNever ? gap : (3 * e.ewmaGap + gap) / 4;
        ++e.freq;
        e.stamp = tick;
    }

    void
    remove(PageKey key)
    {
        entries.erase(find(key));
        dropFromOrder(key);
    }

    PageKey
    evict()
    {
        PageKey victim{};
        switch (evKind) {
          case EvictionKind::Lru:
            victim = scan([](const Entry &a, const Entry &b) {
                return std::tie(a.stamp, a.key) <
                       std::tie(b.stamp, b.key);
            });
            break;
          case EvictionKind::Lfu:
            victim = scan([](const Entry &a, const Entry &b) {
                return std::tie(a.freq, a.stamp, a.key) <
                       std::tie(b.freq, b.stamp, b.key);
            });
            break;
          case EvictionKind::Predictive:
            victim = scan([](const Entry &a, const Entry &b) {
                return std::tuple(~a.predicted(), a.stamp, a.key) <
                       std::tuple(~b.predicted(), b.stamp, b.key);
            });
            break;
          case EvictionKind::Random:
            // The specified semantics: a uniform draw over the
            // insertion-ordered array, swap-removing the winner.
            victim = order[rng.nextBelow(order.size())];
            break;
        }
        entries.erase(find(victim));
        dropFromOrder(victim);
        return victim;
    }

    std::size_t size() const { return entries.size(); }

  private:
    static constexpr std::uint64_t kNever = ~0ull;

    struct Entry
    {
        PageKey key;
        std::uint64_t stamp;
        std::uint64_t freq;
        std::uint64_t ewmaGap;

        std::uint64_t
        predicted() const
        {
            if (ewmaGap == kNever)
                return kNever;
            std::uint64_t next = stamp + ewmaGap;
            return next < stamp ? kNever : next;
        }
    };

    std::vector<Entry>::iterator
    find(PageKey key)
    {
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->key == key)
                return it;
        }
        ADD_FAILURE() << "reference model lost a key";
        return entries.begin();
    }

    template <typename Less>
    PageKey
    scan(Less less) const
    {
        const Entry *best = &entries.front();
        for (const Entry &e : entries) {
            if (less(e, *best))
                best = &e;
        }
        return best->key;
    }

    void
    dropFromOrder(PageKey key)
    {
        auto it = std::find(order.begin(), order.end(), key);
        ASSERT_NE(it, order.end());
        *it = order.back();
        order.pop_back();
    }

    EvictionKind evKind;
    SplitMix64 rng;
    std::vector<Entry> entries;
    /** Insertion-ordered keys with swap-remove (Random semantics). */
    std::vector<PageKey> order;
};

/** Shape of one differential op stream. */
struct StreamShape
{
    std::uint64_t spaces = 2;  //!< key universe: spaces x pages
    std::uint64_t pages = 96;
    int ops = 4000;
    /** 0: one steady op mix. Otherwise the mix alternates every
     *  phaseOps ops between growing the tracked set (mostly inserts)
     *  and draining it (mostly evictions and removals). */
    int phaseOps = 0;
    /** Percent of ops that are run forms over 1-64 pages (insertRun,
     *  touchRun, removeRun, admitRun). 0 keeps the single-page stream
     *  exactly as it was. */
    std::uint64_t runOps = 0;
};

/** Pages from @p start, up to @p len of them, whose tracked state is
 *  @p tracked_wanted: the stretch a run op may name. */
std::uint64_t
stretch(const std::set<PageKey> &tracked, PageKey start, std::uint64_t len,
        std::uint64_t pages, bool tracked_wanted)
{
    std::uint64_t n = 0;
    while (n < len && start.page + n < pages &&
           (tracked.count({start.space, start.page + n}) != 0) ==
               tracked_wanted)
        ++n;
    return n;
}

/** One run op of differentialRun: the real policy takes the run form,
 *  the reference the same pages one at a time. */
void
runOp(EvictionPolicy &real, ReferenceModel &ref, SplitMix64 &ops,
      std::set<PageKey> &tracked, std::uint64_t &tick,
      const StreamShape &shape, bool draining, std::uint64_t &evictions)
{
    std::uint64_t len = 1 + ops.nextBelow(64);
    // 0 insertRun, 1 admitRun, 2 touchRun, 3 removeRun; a draining
    // phase only removes.
    std::uint64_t roll = draining ? 3 : ops.nextBelow(4);
    if (roll >= 2 && !tracked.empty()) {
        // touchRun / removeRun from a tracked page, so the span
        // straddles whatever runs cover the pages after it.
        auto it = tracked.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             ops.nextBelow(tracked.size())));
        PageKey first = *it;
        std::uint64_t n = stretch(tracked, first, len, shape.pages, true);
        for (std::uint64_t i = 0; i < n; ++i) {
            PageKey key{first.space, first.page + i};
            if (roll == 2) {
                ref.touch(key, tick);
            } else {
                ref.remove(key);
                tracked.erase(key);
            }
        }
        if (roll == 2)
            real.touchRun(first, n, tick);
        else
            real.removeRun(first, n);
        return;
    }
    PageKey first{1 + ops.next() % shape.spaces, ops.next() % shape.pages};
    std::uint64_t n = stretch(tracked, first, len, shape.pages, false);
    if (n == 0)
        return;
    if (roll == 0) {
        real.insertRun(first, n, tick);
        for (std::uint64_t i = 0; i < n; ++i)
            ref.insert({first.space, first.page + i}, tick);
    } else {
        // admitRun at a fresh tick: page i evicts first once the room
        // is used up. With nothing tracked the first page needs room.
        ++tick;
        std::uint64_t room = ops.nextBelow(n + 1);
        if (room == 0 && tracked.empty())
            room = 1;
        std::vector<PageRun> got;
        real.admitRun(first, n, tick, room, got);
        std::vector<PageKey> want;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (room == 0)
                want.push_back(ref.evict());
            else
                --room;
            ref.insert({first.space, first.page + i}, tick);
        }
        std::vector<PageKey> flat;
        for (const PageRun &run : got) {
            for (std::uint64_t i = 0; i < run.count; ++i)
                flat.push_back({run.first.space, run.first.page + i});
        }
        ASSERT_EQ(flat, want) << evictionKindName(real.kind());
        evictions += want.size();
        for (std::uint64_t i = 0; i < n; ++i)
            tracked.insert({first.space, first.page + i});
        for (PageKey victim : want)
            tracked.erase(victim);
        return;
    }
    for (std::uint64_t i = 0; i < n; ++i)
        tracked.insert({first.space, first.page + i});
}

/** Drive the real policy and the reference through one identical
 *  seeded op stream; every victim must match. */
void
differentialRun(EvictionKind kind, std::uint64_t seed,
                const StreamShape &shape = {})
{
    constexpr std::uint64_t kPolicySeed = 0xfeedbeefu;
    auto real = makeEviction(kind, kPolicySeed);
    ReferenceModel ref(kind, kPolicySeed);

    SplitMix64 ops(seed);
    std::set<PageKey> tracked;  // op-stream generator's mirror
    std::uint64_t tick = 0;
    std::uint64_t evictions = 0;
    std::size_t peak = 0;
    std::uint64_t drains = 0;  // ops that found a large set emptied

    auto randomTracked = [&]() {
        auto it = tracked.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             ops.nextBelow(tracked.size())));
        return *it;
    };

    for (int op = 0; op < shape.ops; ++op) {
        if (shape.runOps != 0 && ops.next() % 100 < shape.runOps) {
            tick += ops.next() % 2;
            bool draining =
                shape.phaseOps != 0 && (op / shape.phaseOps) % 2 == 1;
            runOp(*real, ref, ops, tracked, tick, shape, draining,
                  evictions);
            if (::testing::Test::HasFatalFailure())
                return;
            ASSERT_EQ(real->size(), ref.size());
            continue;
        }
        // Cumulative thresholds: insert-or-touch, remove, then evict
        // below 85; the rest touch a tracked page.
        std::uint64_t insert_below = 45, remove_below = 60;
        if (shape.phaseOps != 0) {
            bool growing = (op / shape.phaseOps) % 2 == 0;
            insert_below = growing ? 70 : 10;
            remove_below = growing ? 75 : 35;
        }
        tick += ops.next() % 2;  // ~half the ops share a tick: ties
        std::uint64_t roll = ops.next() % 100;
        if (roll < insert_below) {
            PageKey key{1 + ops.next() % shape.spaces,
                        ops.next() % shape.pages};
            if (tracked.count(key)) {
                real->touch(key, tick);
                ref.touch(key, tick);
            } else {
                real->insert(key, tick);
                ref.insert(key, tick);
                tracked.insert(key);
            }
        } else if (roll < remove_below && !tracked.empty()) {
            PageKey key = randomTracked();
            real->remove(key);
            ref.remove(key);
            tracked.erase(key);
        } else if (roll < 85 && !tracked.empty()) {
            PageKey victim = real->evict();
            PageKey expect = ref.evict();
            ASSERT_EQ(victim, expect)
                << evictionKindName(kind) << " seed " << seed
                << " op " << op;
            ASSERT_EQ(tracked.erase(victim), 1u);
            ++evictions;
        } else if (!tracked.empty()) {
            PageKey key = randomTracked();
            real->touch(key, tick);
            ref.touch(key, tick);
        }
        ASSERT_EQ(real->size(), ref.size());
        peak = std::max(peak, tracked.size());
        if (peak > 2000 && tracked.empty())
            ++drains;
    }
    // The stream must actually have exercised eviction.
    EXPECT_GT(evictions, 100u) << evictionKindName(kind);
    if (shape.phaseOps != 0) {
        // Grow-then-drain must reach a large tracked set (index growth)
        // and empty it again (slot reuse, LFU minimum-frequency
        // recovery, predictive list/heap moves).
        EXPECT_GT(peak, 2000u) << evictionKindName(kind);
        EXPECT_GT(drains, 0u) << evictionKindName(kind);
    }
}

TEST(PolicyDiff, EveryKindMatchesReferenceAcross16Seeds)
{
    for (EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
          EvictionKind::Predictive}) {
        for (std::uint64_t s = 0; s < 16; ++s)
            differentialRun(kind, exec::taskSeed(0xd1ff'5eedull, s));
    }
}

TEST(PolicyDiff, EveryKindMatchesReferenceOnLargeKeyUniverse)
{
    // 4 spaces x 4096 pages, two grow/drain cycles of ~5k ops each:
    // thousands of keys tracked at the peak.
    const StreamShape large{4, 4096, 20000, 5000};
    for (EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
          EvictionKind::Predictive})
        differentialRun(kind, exec::taskSeed(0x1a59e'5eedull, 0), large);
}

TEST(PolicyDiff, RunFormsMatchPerPageReferenceAcross16Seeds)
{
    // A third of the ops are run forms of 1-64 pages: spans straddle
    // the runs earlier ops left, split them and merge the pieces.
    StreamShape shape;
    shape.runOps = 35;
    for (EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
          EvictionKind::Predictive}) {
        for (std::uint64_t s = 0; s < 16; ++s)
            differentialRun(kind, exec::taskSeed(0x2a45'5eedull, s), shape);
    }
}

TEST(PolicyDiff, RunFormsMatchPerPageReferenceOnLargeKeyUniverse)
{
    StreamShape large{4, 4096, 20000, 5000};
    large.runOps = 4;
    for (EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
          EvictionKind::Predictive})
        differentialRun(kind, exec::taskSeed(0x2a45e'5eedull, 0), large);
}

TEST(PolicyDiff, PageIndexMatchesMapUnderSmallTableChurn)
{
    // At most 32 live keys drawn from 4 x 4096 pages: the table stays
    // at 64 slots, half full, with homes spread over every slot, so
    // probe clusters often run past the last slot and backward-shift
    // deletes wrap around. After every op each live key must resolve
    // to its node and an erased key to nothing.
    std::vector<PageKey> keyOf;  // node id -> key, ids never reused
    auto lookup = [&](std::uint32_t id) { return keyOf[id]; };
    PageIndex index;
    std::map<PageKey, std::uint32_t> live;  // key -> node id
    SplitMix64 ops(exec::taskSeed(0x1dec5'5eedull, 0));
    for (int op = 0; op < 20000; ++op) {
        if (!live.empty() && (live.size() >= 32 || ops.next() % 2)) {
            auto it = live.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 ops.nextBelow(live.size())));
            PageKey gone = it->first;
            index.erase(gone, it->second, lookup);
            live.erase(it);
            ASSERT_EQ(index.find(gone, lookup), kNil) << "op " << op;
        } else {
            PageKey key{1 + ops.next() % 4, ops.next() % 4096};
            if (live.count(key))
                continue;
            auto id = static_cast<std::uint32_t>(keyOf.size());
            keyOf.push_back(key);
            index.insert(key, id, lookup);
            live.emplace(key, id);
        }
        ASSERT_EQ(index.size(), live.size());
        for (const auto &[key, id] : live)
            ASSERT_EQ(index.find(key, lookup), id) << "op " << op;
    }
}

TEST(PolicyDiff, PageIndexRehashesLiveKeysOnGrow)
{
    // 1000 distinct keys grow the table from 64 to 2048 slots; every
    // grow re-places the live ids, after which each key must still
    // resolve to its node. clear() then forgets them all at once.
    std::vector<PageKey> keyOf;  // node id -> key
    auto lookup = [&](std::uint32_t id) { return keyOf[id]; };
    PageIndex index;
    for (std::uint64_t n = 0; n < 1000; ++n) {
        PageKey key{1 + n % 4, n * 7};
        auto id = static_cast<std::uint32_t>(keyOf.size());
        keyOf.push_back(key);
        index.insert(key, id, lookup);
    }
    ASSERT_EQ(index.size(), keyOf.size());
    for (std::uint32_t id = 0; id < keyOf.size(); ++id)
        ASSERT_EQ(index.find(keyOf[id], lookup), id);
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.find(keyOf.front(), lookup), kNil);
}

// ---- Oracle 2: the retired list-LRU uvm simulator -----------------------

/**
 * Verbatim port of the pre-policy uvm::UvmSimulator (std::list LRU +
 * iterator index), kept here as the byte-identity oracle. Only names
 * changed; every statement and cost formula is the original.
 */
class ListLruUvm
{
  public:
    using PageKeyPair = std::pair<std::uint64_t, std::uint64_t>;

    explicit ListLruUvm(std::uint64_t device_memory_bytes,
                        const uvm::UvmCosts &costs = uvm::UvmCosts())
        : cost(costs),
          capacityPages(device_memory_bytes / mem::kPageSize)
    {
        if (capacityPages == 0)
            fatal("UVM device memory must hold at least one page");
    }

    std::uint64_t
    allocManaged(std::uint64_t bytes)
    {
        if (bytes == 0)
            fatal("managed allocation of zero bytes");
        Region region;
        region.pages = ceilDiv(bytes, mem::kPageSize);
        region.residency.assign(region.pages, false);
        std::uint64_t handle = nextHandle++;
        regions.emplace(handle, std::move(region));
        return handle;
    }

    SimTime
    gpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        Region &region = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
        std::uint64_t faulted = 0;
        for (std::uint64_t p = first; p < last; ++p) {
            if (region.residency[p]) {
                auto key = PageKeyPair{handle, p};
                auto lit = lruIndex.find(key);
                lru.splice(lru.end(), lru, lit->second);
            } else {
                region.residency[p] = true;
                pageInToDevice(handle, p);
                ++faulted;
            }
        }
        return migrationTime(faulted) +
               static_cast<double>(bytes) / cost.deviceBandwidth;
    }

    SimTime
    cpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        Region &region = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
        std::uint64_t migrated = 0;
        for (std::uint64_t p = first; p < last; ++p) {
            if (region.residency[p]) {
                region.residency[p] = false;
                auto key = PageKeyPair{handle, p};
                auto lit = lruIndex.find(key);
                lru.erase(lit->second);
                lruIndex.erase(lit);
                --residentPages;
                ++migrated;
                ++toHost;
            }
        }
        return migrationTime(migrated) +
               static_cast<double>(bytes) / cost.hostBandwidth;
    }

    std::uint64_t deviceResidentPages() const { return residentPages; }
    std::uint64_t pagesMigratedToDevice() const { return toDevice; }
    std::uint64_t pagesMigratedToHost() const { return toHost; }
    std::uint64_t evictions() const { return evicted; }

  private:
    struct Region
    {
        std::uint64_t pages = 0;
        std::vector<bool> residency;  //!< true = device
    };

    struct PairHash
    {
        std::size_t
        operator()(const PageKeyPair &k) const
        {
            return std::hash<std::uint64_t>()(k.first * 0x9e3779b9u) ^
                   std::hash<std::uint64_t>()(k.second);
        }
    };

    SimTime
    migrationTime(std::uint64_t pages) const
    {
        if (pages == 0)
            return 0.0;
        std::uint64_t batches = ceilDiv(pages, cost.faultBatchPages);
        return static_cast<double>(batches) * cost.faultBatchOverhead +
               static_cast<double>(pages) * cost.perPageOverhead +
               static_cast<double>(pages * mem::kPageSize) /
                   cost.linkBandwidth;
    }

    void
    evictOne()
    {
        if (lru.empty())
            panic("UVM eviction with empty device memory");
        PageKeyPair victim = lru.front();
        lru.pop_front();
        lruIndex.erase(victim);
        auto it = regions.find(victim.first);
        if (it != regions.end())
            it->second.residency[victim.second] = false;
        --residentPages;
        ++toHost;
        ++evicted;
    }

    void
    pageInToDevice(std::uint64_t handle, std::uint64_t page)
    {
        while (residentPages >= capacityPages)
            evictOne();
        auto key = PageKeyPair{handle, page};
        lru.push_back(key);
        lruIndex[key] = std::prev(lru.end());
        ++residentPages;
        ++toDevice;
    }

    uvm::UvmCosts cost;
    std::uint64_t capacityPages;
    std::uint64_t residentPages = 0;
    std::map<std::uint64_t, Region> regions;
    std::uint64_t nextHandle = 1;
    std::list<PageKeyPair> lru;
    std::unordered_map<PageKeyPair, std::list<PageKeyPair>::iterator,
                       PairHash>
        lruIndex;
    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t evicted = 0;
};

/** Assert both models agree on every counter. */
void
expectSameCounters(const uvm::UvmSimulator &now, const ListLruUvm &old)
{
    ASSERT_EQ(now.deviceResidentPages(), old.deviceResidentPages());
    ASSERT_EQ(now.pagesMigratedToDevice(), old.pagesMigratedToDevice());
    ASSERT_EQ(now.pagesMigratedToHost(), old.pagesMigratedToHost());
    ASSERT_EQ(now.evictions(), old.evictions());
}

/** The bench_uvm_comparison iterative CPU-update / GPU-compute loop:
 *  both implementations must price every call byte-identically. */
void
uvmComparisonScenario(double update_fraction,
                      std::uint64_t device_bytes)
{
    constexpr std::uint64_t kArray = 256 * MiB;
    constexpr unsigned kIters = 10;
    uvm::UvmSimulator now(device_bytes);
    ListLruUvm old(device_bytes);
    std::uint64_t hn = now.allocManaged(kArray);
    std::uint64_t ho = old.allocManaged(kArray);
    std::uint64_t updated =
        static_cast<std::uint64_t>(kArray * update_fraction);
    for (unsigned i = 0; i < kIters; ++i) {
        ASSERT_EQ(now.cpuAccess(hn, 0, updated),
                  old.cpuAccess(ho, 0, updated));
        ASSERT_EQ(now.gpuAccess(hn, 0, kArray),
                  old.gpuAccess(ho, 0, kArray));
        expectSameCounters(now, old);
    }
}

TEST(PolicyDiff, LruMatchesRetiredListOnUvmComparisonLoops)
{
    uvmComparisonScenario(1.0, 8 * GiB);
    uvmComparisonScenario(0.1, 8 * GiB);
}

TEST(PolicyDiff, LruMatchesRetiredListUnderOvercommitThrash)
{
    // The bench's overcommit scenario: working set 1.5x device memory,
    // four full passes of LRU thrashing.
    constexpr std::uint64_t kArray = 256 * MiB;
    uvm::UvmSimulator now(kArray * 2 / 3);
    ListLruUvm old(kArray * 2 / 3);
    std::uint64_t hn = now.allocManaged(kArray);
    std::uint64_t ho = old.allocManaged(kArray);
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_EQ(now.gpuAccess(hn, 0, kArray),
                  old.gpuAccess(ho, 0, kArray));
        expectSameCounters(now, old);
    }
    EXPECT_GT(now.evictions(), 0u);
}

TEST(PolicyDiff, LruMatchesRetiredListUnderMixedWindowedTraffic)
{
    // Seeded mixed GPU/CPU windows, partial ranges, interleaved
    // regions: the access pattern the clean loops above don't cover.
    constexpr std::uint64_t kRegion = 16 * MiB;
    for (std::uint64_t s = 0; s < 4; ++s) {
        uvm::UvmSimulator now(8 * MiB);
        ListLruUvm old(8 * MiB);
        std::uint64_t hn1 = now.allocManaged(kRegion);
        std::uint64_t hn2 = now.allocManaged(kRegion);
        std::uint64_t ho1 = old.allocManaged(kRegion);
        std::uint64_t ho2 = old.allocManaged(kRegion);
        SplitMix64 rng(exec::taskSeed(0x11571138ull, s));
        for (int op = 0; op < 400; ++op) {
            bool second = rng.next() % 2;
            std::uint64_t hn = second ? hn2 : hn1;
            std::uint64_t ho = second ? ho2 : ho1;
            std::uint64_t pages = kRegion / mem::kPageSize;
            std::uint64_t page = rng.next() % pages;
            std::uint64_t span = 1 + rng.next() % 1024;
            std::uint64_t off = page * mem::kPageSize;
            std::uint64_t bytes =
                std::min(span * mem::kPageSize, kRegion - off);
            if (rng.next() % 4 == 0) {
                ASSERT_EQ(now.cpuAccess(hn, off, bytes),
                          old.cpuAccess(ho, off, bytes));
            } else {
                ASSERT_EQ(now.gpuAccess(hn, off, bytes),
                          old.gpuAccess(ho, off, bytes));
            }
            expectSameCounters(now, old);
        }
    }
}

// ---- Oracle 4: the per-page UvmSimulator over the reference model ------

/**
 * UvmSimulator as it stood before it walked accesses in spans: one
 * policy call per page, each fault evicting one victim first while the
 * device is full. Victims come from the slow ReferenceModel, and a
 * wired PolicyEngine hears every note in that per-page order.
 */
class PerPageUvm
{
  public:
    PerPageUvm(std::uint64_t device_memory_bytes, EvictionKind kind,
               std::uint64_t seed, PolicyEngine *engine)
        : capacityPages(device_memory_bytes / mem::kPageSize),
          victims(kind, seed), pol(engine)
    {
    }

    std::uint64_t
    allocManaged(std::uint64_t bytes)
    {
        Region region;
        region.pages = ceilDiv(bytes, mem::kPageSize);
        region.residency.assign(region.pages, false);
        std::uint64_t handle = nextHandle++;
        if (pol != nullptr) {
            for (std::uint64_t p = 0; p < region.pages; ++p)
                pol->noteResident({handle, p}, Tier::Slow);
        }
        regions.emplace(handle, std::move(region));
        return handle;
    }

    void
    freeManaged(std::uint64_t handle)
    {
        Region &region = regions.at(handle);
        for (std::uint64_t p = 0; p < region.pages; ++p) {
            PageKey key{handle, p};
            if (region.residency[p]) {
                victims.remove(key);
                --residentPages;
            }
            if (pol != nullptr)
                pol->noteRemoved(key);
        }
        regions.erase(handle);
    }

    SimTime
    gpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        Region &region = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = pageEnd(offset, bytes);
        ++tick;
        if (pol != nullptr)
            pol->advanceTick();
        std::uint64_t faulted = 0;
        for (std::uint64_t p = first; p < last; ++p) {
            if (region.residency[p]) {
                victims.touch({handle, p}, tick);
                continue;
            }
            region.residency[p] = true;
            while (residentPages >= capacityPages)
                evictOne();
            victims.insert({handle, p}, tick);
            ++residentPages;
            ++toDevice;
            if (pol != nullptr)
                pol->noteResident({handle, p}, Tier::Fast);
            ++faulted;
        }
        if (pol != nullptr)
            pol->noteAccessRange(handle, first, last - first);
        return migrationTime(faulted) +
               static_cast<double>(bytes) / cost.deviceBandwidth;
    }

    SimTime
    cpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        Region &region = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = pageEnd(offset, bytes);
        ++tick;
        if (pol != nullptr)
            pol->advanceTick();
        std::uint64_t migrated = 0;
        for (std::uint64_t p = first; p < last; ++p) {
            if (!region.residency[p])
                continue;
            region.residency[p] = false;
            victims.remove({handle, p});
            --residentPages;
            ++toHost;
            if (pol != nullptr)
                pol->noteResident({handle, p}, Tier::Slow);
            ++migrated;
        }
        if (pol != nullptr)
            pol->noteAccessRange(handle, first, last - first);
        return migrationTime(migrated) +
               static_cast<double>(bytes) / cost.hostBandwidth;
    }

    SimTime
    migrationStep()
    {
        if (pol == nullptr)
            return 0.0;
        if (!pol->migrates())
            return 0.0;
        std::uint64_t moved = 0;
        for (const auto &action : pol->migrationStep()) {
            auto it = regions.find(action.key.space);
            if (it == regions.end() || action.key.page >= it->second.pages)
                continue;
            bool resident = it->second.residency[action.key.page];
            if (action.to == Tier::Fast) {
                if (resident || residentPages >= capacityPages)
                    continue;
                it->second.residency[action.key.page] = true;
                victims.insert(action.key, tick);
                ++residentPages;
                ++toDevice;
            } else {
                if (!resident)
                    continue;
                it->second.residency[action.key.page] = false;
                victims.remove(action.key);
                --residentPages;
                ++toHost;
            }
            pol->noteMigrated(action.key, action.to);
            ++moved;
        }
        return migrationTime(moved);
    }

    std::uint64_t deviceResidentPages() const { return residentPages; }
    std::uint64_t pagesMigratedToDevice() const { return toDevice; }
    std::uint64_t pagesMigratedToHost() const { return toHost; }
    std::uint64_t evictions() const { return evicted; }

  private:
    struct Region
    {
        std::uint64_t pages = 0;
        std::vector<bool> residency;  //!< true = device
    };

    static std::uint64_t
    pageEnd(std::uint64_t offset, std::uint64_t bytes)
    {
        if (bytes == 0)
            return offset / mem::kPageSize;
        return ceilDiv(offset + bytes, mem::kPageSize);
    }

    SimTime
    migrationTime(std::uint64_t pages) const
    {
        if (pages == 0)
            return 0.0;
        std::uint64_t batches = ceilDiv(pages, cost.faultBatchPages);
        return static_cast<double>(batches) * cost.faultBatchOverhead +
               static_cast<double>(pages) * cost.perPageOverhead +
               static_cast<double>(pages * mem::kPageSize) /
                   cost.linkBandwidth;
    }

    void
    evictOne()
    {
        PageKey victim = victims.evict();
        auto it = regions.find(victim.space);
        if (it != regions.end())
            it->second.residency[victim.page] = false;
        --residentPages;
        ++toHost;
        ++evicted;
        if (pol != nullptr) {
            pol->noteEvicted(victim, residentPages);
            pol->noteResident(victim, Tier::Slow);
        }
    }

    uvm::UvmCosts cost;
    std::uint64_t capacityPages;
    std::uint64_t residentPages = 0;
    std::map<std::uint64_t, Region> regions;
    std::uint64_t nextHandle = 1;
    ReferenceModel victims;
    std::uint64_t tick = 0;
    PolicyEngine *pol;
    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t evicted = 0;
};

/**
 * A UvmSimulator and its per-page oracle driven in lockstep: every
 * call's SimTime and every counter after it must match exactly. With
 * a migration config, each side gets its own traced PolicyEngine and
 * the engines must agree too -- trace events in order, with their
 * residentAfter values, stats and tier counts.
 */
class UvmLockstep
{
  public:
    static constexpr std::uint64_t kPage = mem::kPageSize;

    UvmLockstep(std::uint64_t device_pages, EvictionKind kind,
                const PolicyConfig *engine = nullptr)
        : tracerNow(traceOn()), tracerRef(traceOn())
    {
        constexpr std::uint64_t kSeed = 0x5eed'0u;
        if (engine != nullptr) {
            engineNow = std::make_unique<PolicyEngine>(
                *engine, Hooks{.tr = &tracerNow});
            engineRef = std::make_unique<PolicyEngine>(
                *engine, Hooks{.tr = &tracerRef});
        }
        now = std::make_unique<uvm::UvmSimulator>(device_pages * kPage,
                                                  kind, kSeed);
        now->setPolicyEngine(engineNow.get());
        ref = std::make_unique<PerPageUvm>(device_pages * kPage, kind,
                                           kSeed, engineRef.get());
    }

    std::uint64_t
    alloc(std::uint64_t bytes)
    {
        std::uint64_t h = now->allocManaged(bytes);
        EXPECT_EQ(h, ref->allocManaged(bytes));
        return h;
    }

    void
    gpu(std::uint64_t h, std::uint64_t off, std::uint64_t bytes)
    {
        ASSERT_EQ(now->gpuAccess(h, off, bytes),
                  ref->gpuAccess(h, off, bytes))
            << "gpu " << off << "+" << bytes;
        check();
    }

    void
    cpu(std::uint64_t h, std::uint64_t off, std::uint64_t bytes)
    {
        ASSERT_EQ(now->cpuAccess(h, off, bytes),
                  ref->cpuAccess(h, off, bytes))
            << "cpu " << off << "+" << bytes;
        check();
    }

    void
    free(std::uint64_t h)
    {
        now->freeManaged(h);
        ref->freeManaged(h);
        check();
    }

    void
    migrate()
    {
        ASSERT_EQ(now->migrationStep(), ref->migrationStep());
        check();
    }

    void
    check()
    {
        ASSERT_EQ(now->deviceResidentPages(), ref->deviceResidentPages());
        ASSERT_EQ(now->pagesMigratedToDevice(),
                  ref->pagesMigratedToDevice());
        ASSERT_EQ(now->pagesMigratedToHost(), ref->pagesMigratedToHost());
        ASSERT_EQ(now->evictions(), ref->evictions());
    }

    /** Engine agreement, once the stream is done. */
    void
    checkEngines()
    {
        if (engineNow == nullptr)
            return;
        const PolicyStats &a = engineNow->stats();
        const PolicyStats &b = engineRef->stats();
        EXPECT_EQ(a.promotions, b.promotions);
        EXPECT_EQ(a.demotions, b.demotions);
        EXPECT_EQ(a.evictions, b.evictions);
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.migrationSteps, b.migrationSteps);
        for (Tier tier : {Tier::Fast, Tier::Slow})
            EXPECT_EQ(engineNow->residentIn(tier),
                      engineRef->residentIn(tier));
        const auto events = tracerNow.events();
        EXPECT_EQ(events, tracerRef.events());
        EXPECT_FALSE(events.empty());
    }

    std::uint64_t evictions() const { return now->evictions(); }

  private:
    static trace::TraceConfig
    traceOn()
    {
        trace::TraceConfig cfg;
        cfg.enabled = true;
        return cfg;
    }

    trace::Tracer tracerNow;
    trace::Tracer tracerRef;
    std::unique_ptr<PolicyEngine> engineNow;
    std::unique_ptr<PolicyEngine> engineRef;
    std::unique_ptr<uvm::UvmSimulator> now;
    std::unique_ptr<PerPageUvm> ref;
};

constexpr EvictionKind kEveryKind[] = {
    EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
    EvictionKind::Predictive};

/** Device memory of the lockstep scenarios, in pages: small enough
 *  for the reference model's linear scans. */
constexpr std::uint64_t kDevicePages = 48;

TEST(UvmOracle, StreamHotColdAndPingPongMatchPerPageUvm)
{
    constexpr std::uint64_t kPage = UvmLockstep::kPage;
    for (EvictionKind kind : kEveryKind) {
        SCOPED_TRACE(evictionKindName(kind));
        {
            // Windowed passes over 1.5x device memory; ws/16 is not a
            // page multiple, so windows share their edge pages.
            UvmLockstep s(kDevicePages, kind);
            const std::uint64_t ws = kDevicePages * kPage * 3 / 2;
            std::uint64_t h = s.alloc(ws);
            const std::uint64_t window = ws / 16;
            for (unsigned pass = 0; pass < 4; ++pass) {
                for (std::uint64_t off = 0; off < ws; off += window)
                    ASSERT_NO_FATAL_FAILURE(
                        s.gpu(h, off, std::min(window, ws - off)));
            }
            EXPECT_GT(s.evictions(), 0u);
        }
        {
            // A hot quarter touched 4x per iteration plus windowed
            // scans of the cold rest, at 1.25x.
            UvmLockstep s(kDevicePages, kind);
            const std::uint64_t ws = kDevicePages * kPage * 5 / 4;
            const std::uint64_t hot = ws / 4;
            const std::uint64_t hot_at = 7 * kPage;
            std::uint64_t h = s.alloc(ws);
            const std::uint64_t window = (ws - hot) / 8;
            auto scan = [&](std::uint64_t lo, std::uint64_t hi) {
                for (std::uint64_t off = lo; off < hi; off += window)
                    s.gpu(h, off, std::min(window, hi - off));
            };
            for (unsigned iter = 0; iter < 6; ++iter) {
                for (unsigned k = 0; k < 4; ++k)
                    ASSERT_NO_FATAL_FAILURE(s.gpu(h, hot_at, hot));
                ASSERT_NO_FATAL_FAILURE(scan(0, hot_at));
                ASSERT_NO_FATAL_FAILURE(scan(hot_at + hot, ws));
            }
            EXPECT_GT(s.evictions(), 0u);
        }
        {
            // GPU/CPU alternation on a half-capacity slice.
            UvmLockstep s(kDevicePages, kind);
            const std::uint64_t slice = kDevicePages * kPage / 2;
            std::uint64_t h = s.alloc(kDevicePages * kPage * 5 / 4);
            for (unsigned iter = 0; iter < 8; ++iter) {
                ASSERT_NO_FATAL_FAILURE(s.gpu(h, 0, slice));
                ASSERT_NO_FATAL_FAILURE(s.cpu(h, 0, slice));
            }
        }
    }
}

/** Seeded GPU/CPU windows over two regions, byte-granular edges, with
 *  an occasional migration step when an engine is wired. */
void
mixedWindows(UvmLockstep &s, std::uint64_t seed, bool migrate)
{
    constexpr std::uint64_t kPage = UvmLockstep::kPage;
    const std::uint64_t bytes = 40 * kPage;
    std::uint64_t h[2] = {s.alloc(bytes), s.alloc(bytes)};
    SplitMix64 rng(seed);
    for (int op = 0; op < 300; ++op) {
        std::uint64_t handle = h[rng.next() % 2];
        std::uint64_t off = rng.nextBelow(bytes);
        std::uint64_t len =
            std::min(1 + rng.nextBelow(24 * kPage), bytes - off);
        std::uint64_t roll = rng.nextBelow(8);
        if (roll < 2)
            ASSERT_NO_FATAL_FAILURE(s.cpu(handle, off, len));
        else if (roll == 2 && migrate)
            ASSERT_NO_FATAL_FAILURE(s.migrate());
        else
            ASSERT_NO_FATAL_FAILURE(s.gpu(handle, off, len));
    }
}

TEST(UvmOracle, SeededMixedWindowsAcrossTwoRegionsMatchPerPageUvm)
{
    for (EvictionKind kind : kEveryKind) {
        SCOPED_TRACE(evictionKindName(kind));
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            UvmLockstep s(kDevicePages, kind);
            ASSERT_NO_FATAL_FAILURE(mixedWindows(
                s, exec::taskSeed(0x0ac1e'5eedull, seed), false));
            EXPECT_GT(s.evictions(), 0u);
        }
    }
}

TEST(UvmOracle, CallLargerThanDeviceMemoryMatchesPerPageUvm)
{
    // One call names 2.5x device memory, so it evicts its own head
    // pages, after a partial touch left older state behind.
    constexpr std::uint64_t kPage = UvmLockstep::kPage;
    for (EvictionKind kind : kEveryKind) {
        SCOPED_TRACE(evictionKindName(kind));
        UvmLockstep s(kDevicePages, kind);
        const std::uint64_t bytes = kDevicePages * kPage * 5 / 2;
        std::uint64_t h = s.alloc(bytes);
        ASSERT_NO_FATAL_FAILURE(s.gpu(h, 10 * kPage, 20 * kPage));
        ASSERT_NO_FATAL_FAILURE(s.gpu(h, 0, bytes));
        ASSERT_NO_FATAL_FAILURE(s.gpu(h, 0, bytes));
        ASSERT_NO_FATAL_FAILURE(s.cpu(h, 30 * kPage, 50 * kPage));
        ASSERT_NO_FATAL_FAILURE(s.gpu(h, 5 * kPage, bytes - 5 * kPage));
        EXPECT_GT(s.evictions(), 2 * kDevicePages);
    }
}

TEST(UvmOracle, FreeOfPartlyResidentRegionMatchesPerPageUvm)
{
    constexpr std::uint64_t kPage = UvmLockstep::kPage;
    for (EvictionKind kind : kEveryKind) {
        SCOPED_TRACE(evictionKindName(kind));
        UvmLockstep s(kDevicePages, kind);
        std::uint64_t a = s.alloc(40 * kPage);
        std::uint64_t b = s.alloc(40 * kPage);
        ASSERT_NO_FATAL_FAILURE(s.gpu(a, 0, 40 * kPage));
        ASSERT_NO_FATAL_FAILURE(s.gpu(b, 3 * kPage, 25 * kPage));
        ASSERT_NO_FATAL_FAILURE(s.cpu(a, 12 * kPage, 6 * kPage));
        ASSERT_NO_FATAL_FAILURE(s.free(a));
        ASSERT_NO_FATAL_FAILURE(s.gpu(b, 0, 40 * kPage));
        std::uint64_t c = s.alloc(30 * kPage);
        ASSERT_NO_FATAL_FAILURE(s.gpu(c, 0, 30 * kPage));
        ASSERT_NO_FATAL_FAILURE(s.free(b));
        ASSERT_NO_FATAL_FAILURE(s.gpu(c, kPage / 2, 29 * kPage));
        EXPECT_GT(s.evictions(), 0u);
    }
}

TEST(UvmOracle, WiredEngineHearsPerPageOrder)
{
    // HotCold migration with a tight config: the engines see every
    // eviction, residency flip and applied move, and must log the
    // same events in the same order on both sides.
    PolicyConfig cfg;
    cfg.enabled = true;
    cfg.migration = MigrationKind::HotCold;
    cfg.migrationTuning.hotThreshold = 2;
    cfg.migrationTuning.coldTicks = 4;
    cfg.migrationTuning.maxMovesPerStep = 8;
    for (EvictionKind kind : kEveryKind) {
        SCOPED_TRACE(evictionKindName(kind));
        cfg.eviction = kind;
        for (std::uint64_t seed = 0; seed < 2; ++seed) {
            UvmLockstep s(kDevicePages, kind, &cfg);
            ASSERT_NO_FATAL_FAILURE(mixedWindows(
                s, exec::taskSeed(0xe9c1'5eedull, seed), true));
            ASSERT_NO_FATAL_FAILURE(s.free(1));
            ASSERT_NO_FATAL_FAILURE(s.gpu(2, 0, 40 * UvmLockstep::kPage));
            s.checkEngines();
            EXPECT_GT(s.evictions(), 0u);
        }
    }
}

// ---- Oracle 3: the retired std::map HotColdMigration ---------------------

/**
 * Verbatim copy of HotColdMigration as it stood before its tier table
 * moved to a sorted node vector over a flat index: one std::map from
 * key to node, scanned in key order by decide(). Only the class name
 * changed.
 */
class MapHotColdMigration : public MigrationPolicy
{
  public:
    explicit MapHotColdMigration(const MigrationConfig &config)
        : cfg(config)
    {
    }

    void
    onResident(PageKey key, Tier tier) override
    {
        auto [it, fresh] = pages.emplace(key, Node{tier, 0, 0});
        if (!fresh) {
            if (it->second.tier == tier)
                return;  // re-report in place; nothing moved
            if (it->second.tier == Tier::Fast)
                --fastCount;
            it->second.tier = tier;
            it->second.accesses = 0;
        }
        if (tier == Tier::Fast)
            ++fastCount;
    }

    void
    onRemove(PageKey key) override
    {
        // Untracked keys are tolerated: callers may report removals for
        // pages that predate the engine being wired.
        auto it = pages.find(key);
        if (it == pages.end())
            return;
        if (it->second.tier == Tier::Fast)
            --fastCount;
        pages.erase(it);
    }

    void
    onAccess(PageKey key, std::uint64_t tick) override
    {
        auto it = pages.find(key);
        if (it == pages.end())
            return;
        ++it->second.accesses;
        it->second.lastTick = tick;
    }

    std::vector<MigrationAction>
    decide(std::uint64_t tick) override
    {
        std::vector<MigrationAction> actions;
        // Promotions first: the fast tier is where accesses are cheap,
        // so hot pages take priority over housekeeping demotions.
        for (const auto &[key, node] : pages) {
            if (actions.size() >= cfg.maxMovesPerStep)
                return actions;
            if (node.tier == Tier::Slow &&
                node.accesses >= cfg.hotThreshold)
                actions.push_back({key, Tier::Fast});
        }
        for (const auto &[key, node] : pages) {
            if (actions.size() >= cfg.maxMovesPerStep)
                return actions;
            if (node.tier == Tier::Fast &&
                tick - node.lastTick >= cfg.coldTicks)
                actions.push_back({key, Tier::Slow});
        }
        return actions;
    }

    std::uint64_t
    residentIn(Tier tier) const override
    {
        return tier == Tier::Fast ? fastCount
                                  : pages.size() - fastCount;
    }

    MigrationKind
    kind() const override
    {
        return MigrationKind::HotCold;
    }

  private:
    struct Node
    {
        Tier tier = Tier::Slow;
        /** Accesses since the page last changed tier. */
        std::uint64_t accesses = 0;
        std::uint64_t lastTick = 0;
    };

    MigrationConfig cfg;
    std::map<PageKey, Node> pages;
    std::uint64_t fastCount = 0;
};

/** Drive HotColdMigration and the map oracle through one seeded
 *  callback stream; every decide() vector and residentIn() count must
 *  match. Applies half of each decision back, as a simulator would. */
void
hotColdDifferentialRun(std::uint64_t seed, const MigrationConfig &cfg)
{
    HotColdMigration real(cfg);
    MapHotColdMigration ref(cfg);
    SplitMix64 ops(seed);
    std::set<PageKey> tracked;  // generator's mirror
    std::uint64_t tick = 0;
    std::uint64_t moves = 0;

    auto randomKey = [&]() {
        return PageKey{1 + ops.next() % 3, ops.next() % 1024};
    };
    auto randomTracked = [&]() {
        auto it = tracked.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             ops.nextBelow(tracked.size())));
        return *it;
    };
    auto both = [&](auto &&call) {
        call(static_cast<MigrationPolicy &>(real));
        call(static_cast<MigrationPolicy &>(ref));
    };

    for (int op = 0; op < 12000; ++op) {
        // Alternate 2000-op phases that grow and shrink the tracked
        // set, so dead nodes come to outnumber live ones.
        bool growing = (op / 2000) % 2 == 0;
        std::uint64_t roll = ops.next() % 100;
        if (roll < (growing ? 35u : 10u)) {
            // First placement or a tier move, in random key order.
            PageKey key = randomKey();
            Tier tier = ops.next() % 2 ? Tier::Fast : Tier::Slow;
            both([&](MigrationPolicy &m) { m.onResident(key, tier); });
            tracked.insert(key);
        } else if (roll < (growing ? 45u : 40u)) {
            // Removal of a tracked key, or of any key (maybe unknown).
            PageKey key = ops.next() % 2 && !tracked.empty()
                              ? randomTracked()
                              : randomKey();
            both([&](MigrationPolicy &m) { m.onRemove(key); });
            tracked.erase(key);
        } else if (roll < 55 && !tracked.empty()) {
            // UvmSimulator::evictOne: remove, then re-add as Slow.
            PageKey key = randomTracked();
            both([&](MigrationPolicy &m) {
                m.onRemove(key);
                m.onResident(key, Tier::Slow);
            });
        } else if (roll < 95) {
            PageKey key = ops.next() % 4 != 0 && !tracked.empty()
                              ? randomTracked()
                              : randomKey();
            both([&](MigrationPolicy &m) { m.onAccess(key, tick); });
        } else {
            tick += 1 + ops.next() % 8;
            std::vector<MigrationAction> got = real.decide(tick);
            ASSERT_EQ(got, ref.decide(tick))
                << "seed " << seed << " op " << op;
            for (std::size_t i = 0; i < got.size(); i += 2) {
                both([&](MigrationPolicy &m) {
                    m.onResident(got[i].key, got[i].to);
                });
                ++moves;
            }
        }
        tick += ops.next() % 2;
        ASSERT_EQ(real.residentIn(Tier::Fast), ref.residentIn(Tier::Fast))
            << "seed " << seed << " op " << op;
        ASSERT_EQ(real.residentIn(Tier::Slow), ref.residentIn(Tier::Slow))
            << "seed " << seed << " op " << op;
    }
    EXPECT_GT(moves, 100u);
}

TEST(PolicyDiff, HotColdMatchesRetiredMapAcrossSeeds)
{
    MigrationConfig tight;
    tight.hotThreshold = 2;
    tight.coldTicks = 8;
    tight.maxMovesPerStep = 16;
    for (std::uint64_t s = 0; s < 4; ++s) {
        hotColdDifferentialRun(exec::taskSeed(0x407c'01d5ull, s),
                               MigrationConfig{});
        hotColdDifferentialRun(exec::taskSeed(0x407c'01d5ull, 16 + s),
                               tight);
    }
}

/** HotColdMigration beside the map oracle: every call goes to both. */
struct HotColdPair
{
    explicit HotColdPair(const MigrationConfig &cfg) : real(cfg), ref(cfg)
    {
    }

    template <typename Call>
    void
    both(Call &&call)
    {
        call(static_cast<MigrationPolicy &>(real));
        call(static_cast<MigrationPolicy &>(ref));
    }

    /** decide() on both; the vectors must match. Applies every action
     *  when @p apply. */
    std::vector<MigrationAction>
    step(std::uint64_t tick, bool apply)
    {
        std::vector<MigrationAction> got = real.decide(tick);
        EXPECT_EQ(got, ref.decide(tick)) << "tick " << tick;
        EXPECT_EQ(real.residentIn(Tier::Fast), ref.residentIn(Tier::Fast));
        EXPECT_EQ(real.residentIn(Tier::Slow), ref.residentIn(Tier::Slow));
        if (apply) {
            for (const MigrationAction &a : got)
                both([&](MigrationPolicy &m) { m.onResident(a.key, a.to); });
        }
        return got;
    }

    HotColdMigration real;
    MapHotColdMigration ref;
};

/** About 40k keys over two spaces, so the eligibility bits span many
 *  words; one out-of-order insert forces a re-sort and a dead majority
 *  forces a compaction, each shifting node positions under the bits.
 *  Then decide() is drained, every action applied, and each vector
 *  compared with the map oracle. */
void
hotColdDrainRun(const MigrationConfig &cfg)
{
    constexpr std::uint64_t kPages = 20000;
    HotColdPair pair(cfg);
    SplitMix64 rng(0xd7a1'4b17ull);
    std::uint64_t tick = 100;
    std::vector<PageKey> keys;
    for (std::uint64_t space = 1; space <= 2; ++space) {
        for (std::uint64_t p = 0; p < kPages; ++p) {
            // Space 1 takes even pages only, leaving room for the
            // out-of-order key below.
            PageKey key{space, space == 1 ? 2 * p : p};
            Tier tier = rng.next() % 3 == 0 ? Tier::Fast : Tier::Slow;
            pair.both([&](MigrationPolicy &m) { m.onResident(key, tier); });
            keys.push_back(key);
        }
    }
    // A new key below the last one: the vector is no longer sorted.
    PageKey late{1, kPages + 1};
    pair.both([&](MigrationPolicy &m) { m.onResident(late, Tier::Slow); });
    keys.push_back(late);

    // 0-5 accesses per key at scattered ticks, so both thresholds and
    // coldness vary key by key.
    auto accessSome = [&]() {
        for (const PageKey &key : keys) {
            std::uint64_t n = rng.next() % 6;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t at = tick - rng.next() % 32;
                pair.both([&](MigrationPolicy &m) { m.onAccess(key, at); });
            }
        }
    };
    accessSome();
    pair.step(tick, true);  // re-sorts, then proposes

    // Remove 70% of the keys: the next decide() compacts.
    std::vector<PageKey> kept;
    for (const PageKey &key : keys) {
        if (rng.next() % 10 < 7)
            pair.both([&](MigrationPolicy &m) { m.onRemove(key); });
        else
            kept.push_back(key);
    }
    keys = std::move(kept);
    tick += 8;
    accessSome();

    // Drain at one tick. With hotThreshold 0 a demoted page is hot
    // again at once, so moves never stop; a step cap bounds those.
    int steps = 0;
    while (steps < 400 && !pair.step(tick, true).empty())
        ++steps;
    if (cfg.hotThreshold > 0 && cfg.maxMovesPerStep >= 64) {
        EXPECT_LT(steps, 400) << "drain did not quiesce";
    }
    // After the drain, later ticks turn the remaining fast pages cold.
    for (std::uint64_t later : {tick + 15, tick + 40})
        pair.step(later, true);
}

TEST(PolicyDiff, HotColdDrainMatchesRetiredMap)
{
    for (std::uint64_t threshold : {0u, 1u, 4u}) {
        for (std::uint64_t cap : {0u, 1u, 64u}) {
            for (std::uint64_t cold : {0u, 16u}) {
                MigrationConfig cfg;
                cfg.hotThreshold = threshold;
                cfg.maxMovesPerStep = cap;
                cfg.coldTicks = cold;
                SCOPED_TRACE(::testing::Message()
                             << "hotThreshold " << threshold
                             << " maxMovesPerStep " << cap
                             << " coldTicks " << cold);
                hotColdDrainRun(cfg);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

/** One HotColdMigration told of ranges through onResidentRange,
 *  another page by page through onResident, and the map oracle: every
 *  decide() and residentIn() must agree across all three. */
void
hotColdRangeRun(const MigrationConfig &cfg)
{
    HotColdMigration bulk(cfg), perPage(cfg);
    MapHotColdMigration ref(cfg);
    std::uint64_t tick = 50;
    auto all = [&](auto &&call) {
        call(static_cast<MigrationPolicy &>(bulk));
        call(static_cast<MigrationPolicy &>(perPage));
        call(static_cast<MigrationPolicy &>(ref));
    };
    auto report = [&](PageKey first, std::uint64_t count, Tier tier) {
        bulk.onResidentRange(first, count, tier);
        for (std::uint64_t i = 0; i < count; ++i) {
            PageKey key{first.space, first.page + i};
            perPage.onResident(key, tier);
            ref.onResident(key, tier);
        }
    };
    // Touch every 3rd page of [first, first+count) enough to be hot,
    // then decide and apply twice: once now, once when it is all cold.
    auto exercise = [&](PageKey first, std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; i += 3) {
            PageKey key{first.space, first.page + i};
            for (std::uint64_t n = 0; n < cfg.hotThreshold + 1; ++n)
                all([&](MigrationPolicy &m) { m.onAccess(key, tick); });
        }
        for (std::uint64_t at : {tick, tick + cfg.coldTicks + 1}) {
            std::vector<MigrationAction> got = bulk.decide(at);
            EXPECT_EQ(got, perPage.decide(at)) << "tick " << at;
            EXPECT_EQ(got, ref.decide(at)) << "tick " << at;
            for (Tier tier : {Tier::Fast, Tier::Slow}) {
                EXPECT_EQ(bulk.residentIn(tier), perPage.residentIn(tier));
                EXPECT_EQ(bulk.residentIn(tier), ref.residentIn(tier));
            }
            for (const MigrationAction &a : got)
                all([&](MigrationPolicy &m) { m.onResident(a.key, a.to); });
        }
        tick += cfg.coldTicks + 2;
    };

    // Above every key, into an empty policy and then after it.
    report({3, 0}, 300, Tier::Slow);
    exercise({3, 0}, 300);
    report({3, 300}, 200, Tier::Fast);
    exercise({3, 200}, 300);
    // Below every key: a lower space.
    report({2, 0}, 150, Tier::Slow);
    exercise({2, 0}, 150);
    // Over dead nodes: the tail of space 3 dies, and a range starting
    // above the last live key still overlaps the dead ones.
    for (std::uint64_t p = 420; p < 500; ++p)
        all([&](MigrationPolicy &m) { m.onRemove({3, p}); });
    report({3, 450}, 100, Tier::Slow);
    exercise({3, 400}, 150);
    // A dead majority, then a range above every key: the bulk path
    // compacts before it appends.
    for (std::uint64_t p = 0; p < 400; ++p)
        all([&](MigrationPolicy &m) { m.onRemove({3, p}); });
    report({4, 10}, 130, Tier::Slow);
    exercise({4, 10}, 130);
    report({4, 140}, 70, Tier::Fast);
    exercise({2, 0}, 1000);
}

TEST(PolicyDiff, HotColdResidentRangeMatchesPerPage)
{
    for (std::uint64_t threshold : {0u, 2u}) {
        MigrationConfig cfg;
        cfg.hotThreshold = threshold;
        cfg.coldTicks = 4;
        cfg.maxMovesPerStep = 64;
        SCOPED_TRACE(::testing::Message() << "hotThreshold " << threshold);
        hotColdRangeRun(cfg);
    }
}

} // namespace
} // namespace upm::policy
