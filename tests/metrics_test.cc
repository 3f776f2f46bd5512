/**
 * @file
 * MetricsRegistry tests: the counter API the profiling surfaces
 * (System::counters(), the rocprofv3 adapter) use directly, the
 * histogram surface, thread safety of a single registry, and
 * per-System registry isolation under a worker pool -- the regression
 * the registry consolidation was done for.
 * No randomness in this file (test hygiene: nothing to seed).
 */

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "exec/task_pool.hh"
#include "prof/rocprof.hh"
#include "trace/metrics.hh"

namespace upm::trace {
namespace {

TEST(Metrics, ProfRegistryIsTheMetricsRegistry)
{
    // The profiling surfaces name the thread-safe registry directly:
    // the System's counters and a rocprof session's registry are the
    // same class, with no cast anywhere.
    static_assert(std::is_same_v<
                  decltype(std::declval<core::System &>().counters()),
                  MetricsRegistry &>);
    static_assert(std::is_same_v<
                  decltype(std::declval<prof::RocprofSession &>()
                               .registry()),
                  MetricsRegistry &>);
    SUCCEED();
}

TEST(Metrics, CounterAddSetReadReset)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.read("x"), 0u);
    reg.add("x");
    reg.add("x", 4);
    EXPECT_EQ(reg.read("x"), 5u);
    reg.set("x", 100);
    EXPECT_EQ(reg.read("x"), 100u);
    reg.reset("x");
    EXPECT_EQ(reg.read("x"), 0u);
}

TEST(Metrics, HistogramBucketsAndStats)
{
    MetricsRegistry reg;
    const std::vector<double> bounds = {10.0, 100.0, 1000.0};
    reg.observe("lat", 5.0, bounds);
    reg.observe("lat", 50.0, bounds);
    reg.observe("lat", 50.0, bounds);
    reg.observe("lat", 500.0, bounds);
    reg.observe("lat", 5000.0, bounds); // overflow bucket

    auto snap = reg.histogram("lat");
    ASSERT_EQ(snap.bounds, bounds);
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 1u);
    EXPECT_EQ(snap.counts[1], 2u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.counts[3], 1u);
    EXPECT_EQ(snap.total, 5u);
    EXPECT_EQ(snap.sum, 5605.0);
    EXPECT_EQ(snap.min, 5.0);
    EXPECT_EQ(snap.max, 5000.0);
}

TEST(Metrics, HistogramBoundsAreStickyAfterFirstUse)
{
    MetricsRegistry reg;
    reg.observe("h", 1.0, {10.0});
    reg.observe("h", 2.0, {99.0, 999.0}); // ignored: bounds fixed
    auto snap = reg.histogram("h");
    EXPECT_EQ(snap.bounds, std::vector<double>{10.0});
    EXPECT_EQ(snap.total, 2u);
}

TEST(Metrics, AbsentHistogramReadsEmpty)
{
    MetricsRegistry reg;
    auto snap = reg.histogram("nope");
    EXPECT_TRUE(snap.bounds.empty());
    EXPECT_TRUE(snap.counts.empty());
    EXPECT_EQ(snap.total, 0u);
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, 0.0);
}

TEST(Metrics, DefaultBoundsAreAscending)
{
    const auto &bounds = MetricsRegistry::defaultBounds();
    ASSERT_GE(bounds.size(), 2u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST(Metrics, NamesAreSortedAndResetAllClearsEverything)
{
    MetricsRegistry reg;
    reg.add("zeta");
    reg.add("alpha");
    reg.observe("hist_b", 1.0);
    reg.observe("hist_a", 2.0);
    auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
    auto hists = reg.histogramNames();
    ASSERT_EQ(hists.size(), 2u);
    EXPECT_EQ(hists[0], "hist_a");
    EXPECT_EQ(hists[1], "hist_b");

    reg.resetAll();
    EXPECT_TRUE(reg.names().empty());
    EXPECT_TRUE(reg.histogramNames().empty());
    EXPECT_EQ(reg.histogram("hist_a").total, 0u);
}

TEST(Metrics, ConcurrentMutationFromTwoThreads)
{
    // The one place the lock matters: a tool thread reading while a
    // workload thread writes. Two writers, interleaved reads; the
    // final totals must be exact.
    MetricsRegistry reg;
    constexpr std::uint64_t kPerThread = 50'000;
    auto writer = [&reg] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            reg.add("shared");
            reg.observe("latency", static_cast<double>(i % 97));
        }
    };
    std::thread a(writer);
    std::thread b(writer);
    for (int i = 0; i < 100; ++i) {
        (void)reg.read("shared");
        (void)reg.histogram("latency").total;
    }
    a.join();
    b.join();
    EXPECT_EQ(reg.read("shared"), 2 * kPerThread);
    EXPECT_EQ(reg.histogram("latency").total, 2 * kPerThread);
}

TEST(Metrics, PerSystemRegistriesStayIsolatedUnderPool)
{
    // The sweep pattern: worker-local Systems must never share
    // counter state. Each task writes a task-specific count into its
    // own System's registry and reports what it read back.
    const unsigned restore = exec::globalPool().workers();
    exec::setGlobalWorkers(2);
    auto counts = exec::globalPool().parallelMap<std::uint64_t>(
        8, [](std::size_t i) {
            core::System sys;
            for (std::size_t k = 0; k <= i; ++k)
                sys.counters().add("task_local");
            return sys.counters().read("task_local");
        });
    exec::setGlobalWorkers(restore);
    ASSERT_EQ(counts.size(), 8u);
    for (std::uint64_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], i + 1);
}

TEST(Metrics, RocprofSessionRunsOnMetricsRegistry)
{
    // The adapter regression: sessions take deltas off the registry
    // exactly as they did off the old prof counters.
    MetricsRegistry reg;
    reg.add(prof::gpu_counters::kUtcl1TranslationMiss, 100);
    prof::RocprofSession session(reg);
    session.start();
    reg.add(prof::gpu_counters::kUtcl1TranslationMiss, 42);
    EXPECT_EQ(session.delta(prof::gpu_counters::kUtcl1TranslationMiss),
              42u);
}

TEST(Metrics, SystemCountersBackedByRegistry)
{
    core::System sys;
    sys.counters().observe("fault_latency_ns", 9000.0);
    sys.counters().observe("fault_latency_ns", 11000.0);
    auto snap = sys.counters().histogram("fault_latency_ns");
    EXPECT_EQ(snap.total, 2u);
    EXPECT_EQ(snap.min, 9000.0);
    EXPECT_EQ(snap.max, 11000.0);
}

} // namespace
} // namespace upm::trace
