/**
 * @file
 * Tests for the UVM baseline model: residency tracking, migration
 * accounting, LRU eviction under pressure, overcommit thrashing, and
 * the headline comparison the paper motivates UPM with.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "mem/geometry.hh"
#include "uvm/uvm.hh"

namespace upm::uvm {
namespace {

TEST(Uvm, AllocStartsHostResident)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), 0u);
    sim.freeManaged(h);
}

TEST(Uvm, GpuAccessMigratesOnce)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    SimTime first = sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), 4096u);
    EXPECT_EQ(sim.pagesMigratedToDevice(), 4096u);

    SimTime second = sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_EQ(sim.pagesMigratedToDevice(), 4096u);  // no refault
    EXPECT_LT(second, first / 10.0);  // resident access is cheap
}

TEST(Uvm, CpuAccessPullsPagesBack)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    sim.gpuAccess(h, 0, 16 * MiB);
    sim.cpuAccess(h, 0, 8 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), 2048u);
    EXPECT_EQ(sim.pagesMigratedToHost(), 2048u);
    EXPECT_EQ(sim.evictions(), 0u);  // explicit pull, not pressure
}

TEST(Uvm, PingPongPaysEveryIteration)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    SimTime total = 0.0;
    for (int i = 0; i < 4; ++i) {
        total += sim.cpuAccess(h, 0, 16 * MiB);
        total += sim.gpuAccess(h, 0, 16 * MiB);
    }
    // Each iteration after the first migrates the full array twice.
    EXPECT_EQ(sim.pagesMigratedToDevice(), 4u * 4096u);
    EXPECT_EQ(sim.pagesMigratedToHost(), 3u * 4096u);
    EXPECT_GT(total, 4.0 * milliseconds);
}

TEST(Uvm, OvercommitEvictsLru)
{
    UvmSimulator sim(8 * MiB);  // 2048 pages of device memory
    std::uint64_t h = sim.allocManaged(16 * MiB);
    sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), sim.deviceCapacityPages());
    EXPECT_EQ(sim.evictions(), 2048u);
    // A second full pass refaults the evicted half (and more): thrash.
    sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_GT(sim.evictions(), 4000u);
}

TEST(Uvm, ThrashingIsSlowerThanFitting)
{
    std::uint64_t bytes = 16 * MiB;
    UvmSimulator fits(32 * MiB);
    UvmSimulator thrash(8 * MiB);
    std::uint64_t hf = fits.allocManaged(bytes);
    std::uint64_t ht = thrash.allocManaged(bytes);
    SimTime t_fit = 0.0, t_thrash = 0.0;
    for (int i = 0; i < 4; ++i) {
        t_fit += fits.gpuAccess(hf, 0, bytes);
        t_thrash += thrash.gpuAccess(ht, 0, bytes);
    }
    EXPECT_GT(t_thrash, 2.0 * t_fit);
}

TEST(Uvm, FreeReleasesDeviceMemory)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    sim.gpuAccess(h, 0, 16 * MiB);
    sim.freeManaged(h);
    EXPECT_EQ(sim.deviceResidentPages(), 0u);
    EXPECT_THROW(sim.freeManaged(h), SimError);
}

TEST(Uvm, OutOfRangeAccessIsUserError)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(1 * MiB);
    EXPECT_THROW(sim.gpuAccess(h, 0, 2 * MiB), SimError);
    EXPECT_THROW(sim.cpuAccess(h, 512 * KiB, 1 * MiB), SimError);
}

TEST(Uvm, ZeroByteGpuAccessMovesNoPage)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(1 * MiB);
    for (std::uint64_t off : {0ull, 100ull, 3 * 4096ull + 5}) {
        EXPECT_EQ(sim.gpuAccess(h, off, 0), 0.0) << off;
        EXPECT_EQ(sim.deviceResidentPages(), 0u) << off;
        EXPECT_EQ(sim.pagesMigratedToDevice(), 0u) << off;
    }
}

TEST(Uvm, ZeroByteCpuAccessMovesNoPage)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(1 * MiB);
    sim.gpuAccess(h, 0, 1 * MiB);
    for (std::uint64_t off : {0ull, 100ull, 3 * 4096ull + 5}) {
        EXPECT_EQ(sim.cpuAccess(h, off, 0), 0.0) << off;
        EXPECT_EQ(sim.deviceResidentPages(), 256u) << off;
        EXPECT_EQ(sim.pagesMigratedToHost(), 0u) << off;
    }
}

TEST(Uvm, ZeroByteAllocRejected)
{
    UvmSimulator sim(64 * MiB);
    EXPECT_THROW(sim.allocManaged(0), SimError);
    EXPECT_THROW(UvmSimulator(0), SimError);
}

TEST(Uvm, MigrationCostDominatedByOverheadForSparseAccess)
{
    // The paper's UVM critique: fault overhead, not raw link
    // bandwidth, dominates page-wise migration.
    UvmCosts costs;
    UvmSimulator sim(1 * GiB, costs);
    std::uint64_t h = sim.allocManaged(64 * MiB);
    SimTime t = sim.gpuAccess(h, 0, 64 * MiB);
    SimTime raw_copy =
        static_cast<double>(64 * MiB) / costs.linkBandwidth;
    EXPECT_GT(t, 2.0 * raw_copy);
}

} // namespace
} // namespace upm::uvm
