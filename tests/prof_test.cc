/**
 * @file
 * Tests for the profiling surfaces: counter registry, the three
 * memory-usage views and their documented blind spots (Section 3.2),
 * rocprof sessions, and perf-style fault counting.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/system.hh"
#include "prof/perf.hh"
#include "prof/rocprof.hh"

namespace upm::prof {
namespace {

TEST(Counters, AddSetReadReset)
{
    trace::MetricsRegistry reg;
    EXPECT_EQ(reg.read("x"), 0u);
    reg.add("x");
    reg.add("x", 4);
    EXPECT_EQ(reg.read("x"), 5u);
    reg.set("x", 100);
    EXPECT_EQ(reg.read("x"), 100u);
    reg.reset("x");
    EXPECT_EQ(reg.read("x"), 0u);
}

TEST(Counters, NamesAreSorted)
{
    trace::MetricsRegistry reg;
    reg.add("zeta");
    reg.add("alpha");
    reg.add("mid");
    auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[2], "zeta");
    reg.resetAll();
    EXPECT_TRUE(reg.names().empty());
}

TEST(Rocprof, SessionDeltas)
{
    trace::MetricsRegistry reg;
    reg.add(gpu_counters::kUtcl1TranslationMiss, 100);
    RocprofSession session(reg);
    session.start();
    reg.add(gpu_counters::kUtcl1TranslationMiss, 42);
    EXPECT_EQ(session.delta(gpu_counters::kUtcl1TranslationMiss), 42u);
    // A counter born after start() reads fully.
    reg.add(gpu_counters::kUtcl2Miss, 7);
    EXPECT_EQ(session.delta(gpu_counters::kUtcl2Miss), 7u);
}

class MemViewTest : public ::testing::Test
{
  protected:
    MemViewTest() : sys(config()) {}

    static core::SystemConfig
    config()
    {
        core::SystemConfig cfg;
        cfg.geometry.capacityBytes = 1 * GiB;
        return cfg;
    }

    core::System sys;
};

TEST_F(MemViewTest, NumaSeesEverythingAfterBacking)
{
    auto &rt = sys.runtime();
    std::uint64_t free0 = sys.meminfo().freeBytes();

    // On-demand allocation: invisible until first touch.
    hip::DevPtr p = rt.hostMalloc(64 * MiB);
    EXPECT_EQ(sys.meminfo().freeBytes(), free0);
    rt.cpuFirstTouch(p, 64 * MiB);
    EXPECT_EQ(sys.meminfo().freeBytes(), free0 - 64 * MiB);

    // Up-front allocation: visible immediately.
    hip::DevPtr q = rt.hipMalloc(64 * MiB);
    EXPECT_EQ(sys.meminfo().freeBytes(), free0 - 128 * MiB);
    EXPECT_EQ(sys.meminfo().usedBytes(), 128 * MiB);

    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
    EXPECT_EQ(rt.hipFree(q), hip::hipSuccess);
    EXPECT_EQ(sys.meminfo().freeBytes(), free0);
}

TEST_F(MemViewTest, PerStackFreeSumsToFree)
{
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(100 * MiB);
    auto per_stack = sys.meminfo().perStackFreeBytes();
    std::uint64_t sum = 0;
    for (auto b : per_stack)
        sum += b;
    EXPECT_EQ(sum, sys.meminfo().freeBytes());
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST_F(MemViewTest, RssMissesHipMalloc)
{
    auto &rt = sys.runtime();
    hip::DevPtr host = rt.hostMalloc(32 * MiB);
    rt.cpuFirstTouch(host, 32 * MiB);
    hip::DevPtr pinned = rt.hipHostMalloc(16 * MiB);
    hip::DevPtr dev = rt.hipMalloc(64 * MiB);

    // VmRss counts resident host-visible pages, not hipMalloc.
    EXPECT_EQ(sys.rss().rssBytes(), 48 * MiB);
    // ...while the node view counts all three.
    EXPECT_EQ(sys.meminfo().usedBytes(), 112 * MiB);
    // ...and hipMemGetInfo only hipMalloc.
    EXPECT_EQ(rt.hipMemGetInfo().freeBytes,
              sys.meminfo().totalBytes() - 64 * MiB);
    EXPECT_EQ(rt.hipFree(host), hip::hipSuccess);
    EXPECT_EQ(rt.hipFree(pinned), hip::hipSuccess);
    EXPECT_EQ(rt.hipFree(dev), hip::hipSuccess);
}

TEST_F(MemViewTest, PerfStatCountsFaultsInWindow)
{
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hostMalloc(8 * MiB);
    rt.cpuFirstTouch(p, 4 * MiB);

    PerfStat perf(rt.addressSpace());
    perf.start();
    EXPECT_EQ(perf.pageFaults(), 0u);
    rt.cpuFirstTouch(p + 4 * MiB, 4 * MiB);
    EXPECT_EQ(perf.pageFaults(), 1024u);
    perf.recordDtlbMisses(12345);
    EXPECT_EQ(perf.dtlbLoadMisses(), 12345u);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

} // namespace
} // namespace upm::prof
