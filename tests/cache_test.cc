/**
 * @file
 * Tests for the cache module: the test-only functional set-associative
 * cache (set_assoc_cache.hh), the analytic hierarchy (validated
 * against the functional model), the Infinity Cache slice model, the
 * coherence directory, and the atomic unit queue maths.
 */

#include <gtest/gtest.h>

#include "cache/atomic_unit.hh"
#include "cache/directory.hh"
#include "cache/hierarchy.hh"
#include "cache/infinity_cache.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "set_assoc_cache.hh"

namespace upm::cache {
namespace {

TEST(SetAssocCache, HitsAfterFill)
{
    SetAssocCache cache({.sizeBytes = 1024, .assoc = 2, .lineSize = 64});
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(63));   // same line
    EXPECT_FALSE(cache.access(64));  // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // 2-way, 64 B lines, 8 sets: addresses 0, 1024, 2048 share set 0.
    SetAssocCache cache({.sizeBytes = 1024, .assoc = 2, .lineSize = 64});
    cache.access(0);
    cache.access(1024);
    cache.access(0);     // refresh 0
    cache.access(2048);  // evicts 1024
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(1024));
    EXPECT_TRUE(cache.probe(2048));
}

TEST(SetAssocCache, InvalidateAndFlush)
{
    SetAssocCache cache({.sizeBytes = 1024, .assoc = 2, .lineSize = 64});
    cache.access(128);
    EXPECT_TRUE(cache.invalidate(128));
    EXPECT_FALSE(cache.invalidate(128));
    cache.access(128);
    cache.flush();
    EXPECT_FALSE(cache.probe(128));
}

TEST(SetAssocCache, InvalidatedWayRefillsWithFreshLruStamp)
{
    // 2-way, 64 B lines, 8 sets: addresses 0, 1024, 2048, 3072 all
    // map to set 0. Invalidating a line must not leave a stale LRU
    // stamp behind: the way that refills the invalidated slot carries
    // a *fresh* stamp, so the next eviction picks the genuinely
    // oldest line, not the newcomer.
    SetAssocCache cache({.sizeBytes = 1024, .assoc = 2, .lineSize = 64});
    cache.access(0);     // A, stamp 1
    cache.access(1024);  // B, stamp 2 (A is LRU)
    EXPECT_TRUE(cache.invalidate(1024));
    cache.access(2048);  // C fills B's invalidated way, fresh stamp
    cache.access(3072);  // D must evict A (oldest), not C
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.probe(2048));
    EXPECT_TRUE(cache.probe(3072));
}

TEST(SetAssocCache, InvalidWaysWinVictimSelectionOverValidLru)
{
    // With one way invalidated, a miss must allocate into the hole
    // rather than evict a valid line -- even when the valid line's
    // stamp is older than the invalidated way's stale stamp.
    SetAssocCache cache({.sizeBytes = 1024, .assoc = 2, .lineSize = 64});
    cache.access(0);     // A, stamp 1
    cache.access(1024);  // B, stamp 2 (stale stamp > A's)
    EXPECT_TRUE(cache.invalidate(1024));
    cache.access(2048);  // must fill B's hole, keeping A resident
    EXPECT_TRUE(cache.probe(0));
    EXPECT_TRUE(cache.probe(2048));
}

TEST(SetAssocCache, FlushResetsLruOrdering)
{
    // After flush, eviction order reflects only post-flush accesses:
    // the pre-flush stamps of A and B must not influence who is the
    // victim once the set refills.
    SetAssocCache cache({.sizeBytes = 1024, .assoc = 2, .lineSize = 64});
    cache.access(0);     // A
    cache.access(1024);  // B
    cache.flush();
    cache.access(1024);  // B again, now the *older* of the two
    cache.access(2048);  // C
    cache.access(3072);  // D evicts B (post-flush oldest)
    EXPECT_FALSE(cache.probe(1024));
    EXPECT_TRUE(cache.probe(2048));
    EXPECT_TRUE(cache.probe(3072));
}

TEST(SetAssocCache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache({.sizeBytes = 1000, .assoc = 3,
                                .lineSize = 64}),
                 SimError);
    EXPECT_THROW(SetAssocCache({.sizeBytes = 1024, .assoc = 2,
                                .lineSize = 60}),
                 SimError);
    EXPECT_THROW(SetAssocCache({.sizeBytes = 1024, .assoc = 0,
                                .lineSize = 64}),
                 SimError);
}

TEST(Hierarchy, FractionsSumToOne)
{
    CacheHierarchy h({{"L1", 32 * KiB, 1.0}, {"L2", 1 * MiB, 4.0}},
                     145.0, 240.0);
    for (std::uint64_t ws : {1 * KiB, 64 * KiB, 4 * MiB, 1 * GiB}) {
        auto f = h.levelFractions(ws, 0.5);
        double sum = 0.0;
        for (double x : f)
            sum += x;
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(Hierarchy, SmallWorkingSetIsAllL1)
{
    CacheHierarchy h({{"L1", 32 * KiB, 1.0}, {"L2", 1 * MiB, 4.0}},
                     145.0, 240.0);
    EXPECT_NEAR(h.avgLatency(1 * KiB, 0.0), 1.0, 1e-9);
}

TEST(Hierarchy, HugeWorkingSetApproachesMemory)
{
    CacheHierarchy h({{"L1", 32 * KiB, 1.0}, {"L2", 1 * MiB, 4.0}},
                     145.0, 240.0);
    EXPECT_GT(h.avgLatency(64 * GiB, 0.0), 239.0);
}

TEST(Hierarchy, IcHitFractionLowersLatency)
{
    CacheHierarchy h({{"L1", 32 * KiB, 1.0}}, 145.0, 240.0);
    EXPECT_LT(h.avgLatency(1 * GiB, 0.9), h.avgLatency(1 * GiB, 0.1));
}

TEST(Hierarchy, MonotoneInWorkingSet)
{
    CacheHierarchy h({{"L1", 32 * KiB, 1.0}, {"L2", 1 * MiB, 4.0},
                      {"L3", 96 * MiB, 25.0}},
                     145.0, 240.0);
    SimTime prev = 0.0;
    for (std::uint64_t ws = 1 * KiB; ws <= 8 * GiB; ws *= 4) {
        SimTime lat = h.avgLatency(ws, 0.5);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(Hierarchy, RejectsNonGrowingLevels)
{
    EXPECT_THROW(CacheHierarchy({{"L1", 32 * KiB, 1.0},
                                 {"L2", 32 * KiB, 4.0}},
                                145.0, 240.0),
                 SimError);
}

/**
 * Validation of the analytic hit fractions (CacheHierarchy::
 * levelFractions) against the functional cache under uniform random
 * access -- the assumption Fig. 2's latency model rests on.
 */
class AnalyticVsFunctional : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AnalyticVsFunctional, HitRateMatches)
{
    const std::uint64_t working_set = GetParam();
    CacheConfig cfg{.sizeBytes = 64 * KiB, .assoc = 8, .lineSize = 64};
    SetAssocCache cache(cfg);
    SplitMix64 rng(99);

    // Warm up, then measure.
    const int kAccesses = 60000;
    for (int i = 0; i < kAccesses; ++i)
        cache.access(rng.nextBelow(working_set));
    cache.resetStats();
    for (int i = 0; i < kAccesses; ++i)
        cache.access(rng.nextBelow(working_set));

    double measured = static_cast<double>(cache.hits()) /
                      static_cast<double>(cache.hits() + cache.misses());
    // The fraction the timing model uses, from a one-level hierarchy
    // of the same capacity (latencies do not enter the fractions).
    CacheHierarchy hierarchy({{"L1", cfg.sizeBytes, 1.0}}, 10.0, 100.0);
    double analytic = hierarchy.levelFractions(working_set, 0.0)[0];
    EXPECT_NEAR(measured, analytic, 0.08);
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, AnalyticVsFunctional,
                         ::testing::Values(16 * KiB, 64 * KiB, 128 * KiB,
                                           256 * KiB, 1 * MiB));

class InfinityCacheTest : public ::testing::Test
{
  protected:
    InfinityCacheTest()
        : geom(mem::MemGeometryConfig{}), ic(geom, icConfig())
    {}

    static InfinityCacheConfig
    icConfig()
    {
        InfinityCacheConfig cfg;
        cfg.capacityBytes = 256 * MiB;
        return cfg;
    }

    mem::MemGeometry geom;
    InfinityCache ic;
};

TEST_F(InfinityCacheTest, SliceCapacity)
{
    EXPECT_EQ(ic.sliceCapacity(), 256 * MiB / 128);
}

TEST_F(InfinityCacheTest, SmallBalancedSetFullyCached)
{
    std::vector<mem::FrameId> frames;
    for (mem::FrameId f = 0; f < 1024; ++f)
        frames.push_back(f);
    EXPECT_DOUBLE_EQ(ic.hitFraction(frames), 1.0);
}

TEST_F(InfinityCacheTest, DoubleCapacityHalfHit)
{
    std::vector<mem::FrameId> frames;
    for (mem::FrameId f = 0; f < 2 * 256 * MiB / mem::kPageSize; ++f)
        frames.push_back(f);
    EXPECT_NEAR(ic.hitFraction(frames), 0.5, 1e-9);
}

TEST_F(InfinityCacheTest, BiasedPlacementWastesSlices)
{
    // All pages on one stack: only 1/8 of the cache is usable, so a
    // working set of exactly IC capacity is only 1/8 covered.
    std::vector<mem::FrameId> frames;
    std::uint64_t pages = 256 * MiB / mem::kPageSize;
    for (std::uint64_t i = 0; i < pages; ++i)
        frames.push_back(i * 8);  // stack 0 only
    EXPECT_NEAR(ic.hitFraction(frames), 1.0 / 8.0, 1e-9);
}

TEST_F(InfinityCacheTest, StackLoadVectorValidation)
{
    EXPECT_THROW(ic.hitFractionFromStackLoad({1, 2, 3}), SimError);
    EXPECT_DOUBLE_EQ(
        ic.hitFractionFromStackLoad({0, 0, 0, 0, 0, 0, 0, 0}), 1.0);
}

TEST(Directory, CpuOwnershipTransitions)
{
    Directory dir;
    const auto &c = dir.costs();
    EXPECT_DOUBLE_EQ(dir.cpuAtomic(1, 0), c.cpuFromMemory);
    EXPECT_DOUBLE_EQ(dir.cpuAtomic(1, 0), c.cpuLocalHit);
    EXPECT_DOUBLE_EQ(dir.cpuAtomic(1, 3), c.cpuFromOtherCore);
    EXPECT_EQ(dir.ownerOf(1), Owner::CpuCore);
    EXPECT_EQ(dir.owningCore(1), 3u);
}

TEST(Directory, GpuOwnershipTransitions)
{
    Directory dir;
    const auto &c = dir.costs();
    EXPECT_DOUBLE_EQ(dir.gpuAtomic(7), c.gpuFromMemory);
    EXPECT_DOUBLE_EQ(dir.gpuAtomic(7), c.gpuLocalOp);
    EXPECT_DOUBLE_EQ(dir.cpuAtomic(7, 0), c.cpuFromGpu);
    EXPECT_DOUBLE_EQ(dir.gpuAtomic(7), c.gpuFromCpu);
}

TEST(Directory, EvictionResetsOwnership)
{
    Directory dir;
    dir.cpuAtomic(5, 1);
    dir.evict(5);
    EXPECT_EQ(dir.ownerOf(5), Owner::None);
    EXPECT_DOUBLE_EQ(dir.cpuAtomic(5, 1), dir.costs().cpuFromMemory);
}

TEST(Directory, PingPongIsExpensive)
{
    // Alternating CPU/GPU atomics must always pay a transfer.
    Directory dir;
    SimTime total = 0.0;
    for (int i = 0; i < 10; ++i) {
        total += dir.cpuAtomic(9, 0);
        total += dir.gpuAtomic(9);
    }
    EXPECT_GT(total, 10 * (dir.costs().cpuFromGpu));
}

TEST(AtomicUnit, QueueWaitGrowsWithLoad)
{
    AtomicUnitModel unit;
    EXPECT_DOUBLE_EQ(unit.queueWait(0.0, 4.0), 0.0);
    double light = unit.queueWait(0.05, 4.0);
    double heavy = unit.queueWait(0.2, 4.0);
    EXPECT_GT(heavy, light);
    EXPECT_GT(light, 0.0);
}

TEST(AtomicUnit, QueueWaitBoundedByClamp)
{
    AtomicUnitModel unit;
    // Past saturation, utilization clamps and the wait stays finite.
    double w = unit.queueWait(100.0, 4.0);
    EXPECT_LT(w, 1000.0);
    EXPECT_GT(w, 10.0);
}

TEST(AtomicUnit, AggregateCapBlends)
{
    AtomicUnitModel unit;
    double l2 = unit.aggregateCap(1.0);
    double mem = unit.aggregateCap(0.0);
    double mix = unit.aggregateCap(0.5);
    EXPECT_DOUBLE_EQ(l2, unit.config().aggregateRateL2);
    EXPECT_DOUBLE_EQ(mem, unit.config().aggregateRateMem);
    EXPECT_GT(mix, mem);
    EXPECT_LT(mix, l2);
}

} // namespace
} // namespace upm::cache
