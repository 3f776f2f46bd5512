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
 * residentIn() under seeded callback streams.
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
#include "policy/eviction.hh"
#include "policy/migration.hh"
#include "policy/page_index.hh"
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
};

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

} // namespace
} // namespace upm::policy
