/**
 * @file
 * Tests for the vm module: system and GPU page tables, the driver's
 * fragment computation (property-tested), HMM mirroring, the address
 * space (VMAs, population paths, XNACK semantics), and the fault
 * handler's timing model.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/stats.hh"
#include "mem/node.hh"
#include "vm/address_space.hh"
#include "vm/fault_handler.hh"

namespace upm::vm {
namespace {

mem::MemGeometryConfig
smallGeomConfig()
{
    mem::MemGeometryConfig cfg;
    cfg.capacityBytes = 64 * MiB;
    return cfg;
}

TEST(SystemPageTable, InsertLookupRemove)
{
    SystemPageTable pt;
    pt.insert(10, 1234);
    EXPECT_TRUE(pt.present(10));
    auto pte = pt.lookup(10);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->frame, 1234u);
    EXPECT_EQ(pt.remove(10), std::optional<FrameId>(1234));
    EXPECT_FALSE(pt.present(10));
    EXPECT_EQ(pt.remove(10), std::nullopt);
}

TEST(SystemPageTable, DoubleInsertPanics)
{
    SystemPageTable pt;
    pt.insert(10, 1);
    EXPECT_THROW(pt.insert(10, 2), SimError);
}

TEST(SystemPageTable, RangeIterationIsOrderedAndBounded)
{
    SystemPageTable pt;
    for (Vpn vpn : {5, 1, 9, 3, 7})
        pt.insert(vpn, vpn * 10);
    std::vector<Vpn> seen;
    pt.forRange(2, 8, [&](Vpn vpn, const Pte &) { seen.push_back(vpn); });
    EXPECT_EQ(seen, (std::vector<Vpn>{3, 5, 7}));
    EXPECT_EQ(pt.presentInRange(0, 100), 5u);
}

TEST(SystemPageTable, FlagsUpdate)
{
    SystemPageTable pt;
    pt.insert(4, 44);
    PteFlags pinned{.writable = true, .pinned = true, .uncached = false};
    pt.setFlags(4, pinned);
    EXPECT_TRUE(pt.lookup(4)->flags.pinned);
    EXPECT_THROW(pt.setFlags(5, pinned), SimError);
}

TEST(GpuPageTable, ContiguousRunGetsLargeFragments)
{
    GpuPageTable pt;
    // 64 pages, vpn and frame both aligned to 64.
    for (Vpn vpn = 0; vpn < 64; ++vpn)
        pt.insert(64 + vpn, 128 + vpn);
    pt.recomputeFragments(64, 128);
    auto frag = pt.fragmentOf(64);
    EXPECT_EQ(frag.span, 64u);
    EXPECT_EQ(frag.base, 64u);
}

TEST(GpuPageTable, ScatteredFramesGetUnitFragments)
{
    GpuPageTable pt;
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        pt.insert(vpn, vpn * 7 + 3);  // physically discontiguous
    pt.recomputeFragments(0, 32);
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        EXPECT_EQ(pt.fragmentOf(vpn).span, 1u) << vpn;
}

TEST(GpuPageTable, MisalignedRunSplitsGreedily)
{
    GpuPageTable pt;
    // Run of 6 pages starting at vpn 2 / frame 2: blocks 2,4+4?? ->
    // greedy: [2,4) (align 2), [4,8) (align 4).
    for (Vpn vpn = 2; vpn < 8; ++vpn)
        pt.insert(vpn, vpn);
    pt.recomputeFragments(0, 16);
    EXPECT_EQ(pt.fragmentOf(2).span, 2u);
    EXPECT_EQ(pt.fragmentOf(4).span, 4u);
}

TEST(GpuPageTable, FlagBoundarySplitsRun)
{
    GpuPageTable pt;
    PteFlags pinned{.writable = true, .pinned = true, .uncached = false};
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        pt.insert(vpn, vpn, vpn < 4 ? PteFlags{} : pinned);
    pt.recomputeFragments(0, 8);
    EXPECT_EQ(pt.fragmentOf(0).span, 4u);
    EXPECT_EQ(pt.fragmentOf(4).span, 4u);
    EXPECT_EQ(pt.fragmentOf(3).base, 0u);
    EXPECT_EQ(pt.fragmentOf(7).base, 4u);
}

TEST(GpuPageTable, PhysicalMisalignmentLimitsFragment)
{
    GpuPageTable pt;
    // vpn aligned, frames offset by 1: alignment limited by frames.
    for (Vpn vpn = 0; vpn < 16; ++vpn)
        pt.insert(vpn, vpn + 1);
    pt.recomputeFragments(0, 16);
    // frame 1 has tz 0 -> first block span 1.
    EXPECT_EQ(pt.fragmentOf(0).span, 1u);
    // frame 2 at vpn 1: min(tz(1), tz(2)) = 0 -> span 1 again.
    EXPECT_EQ(pt.fragmentOf(1).span, 1u);
}

/** Fragment invariants over random populations. */
class FragmentProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FragmentProperty, FragmentsAreAlignedCoveringBlocks)
{
    SplitMix64 rng(GetParam());
    GpuPageTable pt;
    Vpn vpn = 0;
    FrameId frame = rng.nextBelow(1000);
    for (int i = 0; i < 500; ++i) {
        pt.insert(vpn, frame);
        // Random mix of contiguous extension and jumps.
        if (rng.nextBelow(4) == 0) {
            vpn += 1 + rng.nextBelow(5);
            frame += 7 + rng.nextBelow(13);
        } else {
            vpn += 1;
            frame += 1;
        }
    }
    pt.recomputeFragments(0, vpn + 1);

    pt.forRange(0, vpn + 1, [&](Vpn v, const GpuPte &pte) {
        std::uint64_t span = 1ull << pte.fragment;
        Vpn base = v & ~(span - 1);
        // Every page of the fragment block must exist, be contiguous
        // physically, share flags, and carry the same fragment value.
        auto base_pte = pt.lookup(base);
        ASSERT_TRUE(base_pte.has_value());
        for (Vpn p = base; p < base + span; ++p) {
            auto q = pt.lookup(p);
            ASSERT_TRUE(q.has_value()) << p;
            EXPECT_EQ(q->frame, base_pte->frame + (p - base));
            EXPECT_EQ(q->fragment, pte.fragment);
        }
        // Physical base must be aligned at least as much as the block.
        EXPECT_EQ(base_pte->frame & (span - 1), 0u);
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceTest()
        : geom(smallGeomConfig()), node(geom, {}, 1),
          frames(node.shard(0)), as(node, store)
    {}

    VirtAddr
    mapOnDemand(std::uint64_t size)
    {
        VmaPolicy policy;
        policy.onDemand = true;
        policy.placement = Placement::Scattered;
        auto mapped = as.tryMmapAnon(size, policy, "test");
        EXPECT_EQ(mapped.status, Status::Success);
        return mapped.base;
    }

    /** First-touch one page; @return pages newly faulted in. */
    std::uint64_t
    cpuFault(Vpn vpn)
    {
        auto result = as.tryResolveCpuFaultRange(vpn, vpn + 1);
        EXPECT_EQ(result.status, Status::Success);
        return result.pages;
    }

    mem::MemGeometry geom;
    mem::NodeMemory node;
    mem::FrameAllocator &frames;
    mem::BackingStore store;
    AddressSpace as;
};

TEST_F(AddressSpaceTest, MmapCreatesVmaAndBacking)
{
    VirtAddr base = mapOnDemand(1 * MiB);
    const Vma *vma = as.findVma(base + 1234);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->base, base);
    EXPECT_EQ(vma->numPages(), 256u);
    EXPECT_TRUE(store.contains(base));
    EXPECT_EQ(as.findVma(base + 1 * MiB), nullptr);
}

TEST_F(AddressSpaceTest, VmaBasesAre2MiBAligned)
{
    VirtAddr a = mapOnDemand(4096);
    VirtAddr b = mapOnDemand(4096);
    EXPECT_EQ(a % (2 * MiB), 0u);
    EXPECT_EQ(b % (2 * MiB), 0u);
    EXPECT_NE(a, b);
}

TEST_F(AddressSpaceTest, OnDemandHasNoFramesUntilFault)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    EXPECT_TRUE(as.framesOf(base, 64 * KiB).empty());
    EXPECT_EQ(cpuFault(vpnOf(base)), 1u);
    EXPECT_EQ(as.framesOf(base, 64 * KiB).size(), 1u);
    EXPECT_EQ(as.cpuFaults(), 1u);
}

TEST_F(AddressSpaceTest, CpuFaultIsIdempotent)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    EXPECT_EQ(cpuFault(vpnOf(base)), 1u);
    EXPECT_EQ(cpuFault(vpnOf(base)), 0u);
    EXPECT_EQ(as.cpuFaults(), 1u);
}

TEST_F(AddressSpaceTest, CpuFaultOutsideVmaIsSegfault)
{
    EXPECT_EQ(as.tryResolveCpuFaultRange(1, 2).status,
              Status::AccessFault);
}

TEST_F(AddressSpaceTest, PopulateContiguousMapsBothTables)
{
    VmaPolicy policy;
    policy.onDemand = false;
    policy.gpuMapped = true;
    policy.pinned = true;
    policy.placement = Placement::Contiguous;
    auto mapped = as.tryMmapAnon(1 * MiB, policy, "hip");
    ASSERT_EQ(mapped.status, Status::Success);
    VirtAddr base = mapped.base;
    auto populated = as.tryPopulateRange(base, 1 * MiB);
    EXPECT_EQ(populated.status, Status::Success);
    EXPECT_EQ(populated.pages, 256u);
    EXPECT_TRUE(as.cpuPresent(base));
    EXPECT_TRUE(as.gpuPresent(base));
    // Contiguous placement earns a large fragment.
    EXPECT_GE(as.gpuTable().fragmentOf(vpnOf(base)).span, 256u);
}

TEST_F(AddressSpaceTest, GpuFaultWithoutXnackIsViolation)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(false);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 4), GpuFaultKind::Violation);
}

TEST_F(AddressSpaceTest, GpuMajorFaultAllocatesAndMirrors)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 16), GpuFaultKind::Major);
    EXPECT_EQ(as.gpuMajorFaults(), 16u);
    EXPECT_TRUE(as.gpuPresent(base));
    EXPECT_TRUE(as.cpuPresent(base));
}

TEST_F(AddressSpaceTest, GpuMinorFaultMirrorsExistingPages)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    for (Vpn vpn = vpnOf(base); vpn < vpnOf(base) + 16; ++vpn)
        EXPECT_EQ(cpuFault(vpn), 1u);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 16), GpuFaultKind::Minor);
    EXPECT_EQ(as.gpuMinorFaults(), 16u);
    EXPECT_EQ(as.gpuMajorFaults(), 0u);
}

TEST_F(AddressSpaceTest, GpuFaultOnMappedRangeIsNone)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    as.resolveGpuFault(vpnOf(base), 16);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 16), GpuFaultKind::None);
}

TEST_F(AddressSpaceTest, GpuMajorPlacementIsBalancedButFragmentFree)
{
    VirtAddr base = mapOnDemand(4 * MiB);
    as.setXnack(true);
    as.resolveGpuFault(vpnOf(base), 1024);
    auto frame_list = as.framesOf(base, 4 * MiB);
    EXPECT_GT(geom.stackBalance(frame_list), 0.9);
    // Virtually-random arrival order prevents large fragments.
    auto hist = as.gpuTable().fragmentHistogram(vpnOf(base),
                                                vpnOf(base) + 1024);
    std::uint64_t small = hist[0] + hist[1] + hist[2];
    EXPECT_GT(small, 900u);
}

TEST_F(AddressSpaceTest, PinAndMapGpuKeepsScatteredPlacement)
{
    VirtAddr base = mapOnDemand(1 * MiB);
    EXPECT_EQ(cpuFault(vpnOf(base)), 1u);  // partial CPU history
    EXPECT_EQ(as.pinAndMapGpu(base), Status::Success);
    const Vma *vma = as.findVma(base);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(vma->policy.pinned);
    EXPECT_TRUE(vma->policy.gpuMapped);
    EXPECT_FALSE(vma->policy.onDemand);
    EXPECT_TRUE(as.gpuPresent(base));
    EXPECT_GT(vma->scatteredFraction(), 0.99);
    // Pages are pinned in the system table too.
    EXPECT_TRUE(as.systemTable().lookup(vpnOf(base))->flags.pinned);
}

TEST_F(AddressSpaceTest, MunmapFreesEverything)
{
    VmaPolicy policy;
    policy.onDemand = false;
    policy.gpuMapped = true;
    policy.placement = Placement::Contiguous;
    auto mapped = as.tryMmapAnon(2 * MiB, policy, "tmp");
    ASSERT_EQ(mapped.status, Status::Success);
    VirtAddr base = mapped.base;
    EXPECT_EQ(as.tryPopulateRange(base, 2 * MiB).status, Status::Success);
    std::uint64_t free_before = frames.freeFrames();
    EXPECT_EQ(as.munmap(base), Status::Success);
    EXPECT_EQ(frames.freeFrames(), free_before + 512);
    EXPECT_EQ(as.findVma(base), nullptr);
    EXPECT_FALSE(as.gpuPresent(base));
    EXPECT_EQ(as.munmap(base), Status::NotFound);
}

TEST_F(AddressSpaceTest, TranslatePreservesOffset)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    EXPECT_EQ(cpuFault(vpnOf(base)), 1u);
    mem::PhysAddr pa = as.translate(base + 123);
    EXPECT_EQ(pa & (mem::kPageSize - 1), 123u);
    EXPECT_THROW(as.translate(base + 5 * mem::kPageSize), SimError);
}

TEST_F(AddressSpaceTest, ScatteredFractionTracksPlacementMix)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    EXPECT_EQ(cpuFault(vpnOf(base)), 1u);     // 1 scattered
    as.resolveGpuFault(vpnOf(base) + 1, 15);  // 15 batch-placed
    const Vma *vma = as.findVma(base);
    EXPECT_NEAR(vma->scatteredFraction(), 1.0 / 16.0, 1e-9);
}

TEST(HmmMirror, PropagatesOnlyPresentAndCountsWork)
{
    mem::MemGeometry geom{smallGeomConfig()};
    mem::NodeMemory node(geom, {}, 1);
    mem::BackingStore store;
    AddressSpace as(node, store);
    VmaPolicy policy;
    policy.onDemand = true;
    auto mapped = as.tryMmapAnon(64 * KiB, policy, "hmm");
    ASSERT_EQ(mapped.status, Status::Success);
    VirtAddr base = mapped.base;
    for (int i = 0; i < 8; i += 2) {
        Vpn vpn = vpnOf(base) + i;
        EXPECT_EQ(as.tryResolveCpuFaultRange(vpn, vpn + 1).status,
                  Status::Success);
    }

    Vpn begin = vpnOf(base);
    EXPECT_EQ(as.mirror().mirrorRange(begin, begin + 8), 4u);
    EXPECT_EQ(as.mirror().mirrorRange(begin, begin + 8), 0u);  // idempotent
    EXPECT_EQ(as.mirror().propagated(), 4u);
    EXPECT_EQ(as.mirror().invalidateRange(begin, begin + 8), 4u);
    EXPECT_FALSE(as.gpuPresent(base));
    EXPECT_TRUE(as.cpuPresent(base));  // system table untouched
}

TEST(FaultHandler, ColdLatencyMatchesPaperAnchors)
{
    FaultHandler handler;
    SampleStats cpu, minor, major;
    for (int i = 0; i < 2000; ++i) {
        cpu.add(handler.sampleColdLatency(FaultType::Cpu));
        minor.add(handler.sampleColdLatency(FaultType::GpuMinor));
        major.add(handler.sampleColdLatency(FaultType::GpuMajor));
    }
    EXPECT_NEAR(cpu.mean(), 9000.0, 500.0);
    EXPECT_NEAR(cpu.percentile(95), 11000.0, 900.0);
    EXPECT_NEAR(minor.mean(), 16000.0, 900.0);
    EXPECT_NEAR(major.mean(), 18000.0, 1000.0);
    // GPU faults are 1.8-2.0x slower than CPU faults.
    EXPECT_GT(major.mean() / cpu.mean(), 1.7);
    EXPECT_LT(major.mean() / cpu.mean(), 2.2);
}

TEST(FaultHandler, ThroughputPlateaus)
{
    FaultHandler handler;
    // Plateaus from the paper (pages/s).
    EXPECT_NEAR(handler.throughput(FaultType::Cpu, 10'000'000), 872e3,
                40e3);
    EXPECT_NEAR(handler.throughput(FaultType::Cpu, 10'000'000, 12),
                3.7e6, 0.2e6);
    EXPECT_NEAR(handler.throughput(FaultType::GpuMajor, 10'000'000),
                1.1e6, 0.05e6);
    EXPECT_NEAR(handler.throughput(FaultType::GpuMinor, 10'000'000),
                9.0e6, 0.6e6);
}

TEST(FaultHandler, ThroughputGrowsWithBatchSize)
{
    FaultHandler handler;
    for (auto type :
         {FaultType::Cpu, FaultType::GpuMinor, FaultType::GpuMajor}) {
        double small = handler.throughput(type, 100);
        double large = handler.throughput(type, 1'000'000);
        EXPECT_GT(large, small);
    }
}

TEST(FaultHandler, ZeroPagesIsFree)
{
    FaultHandler handler;
    EXPECT_DOUBLE_EQ(handler.serviceTime(FaultType::Cpu, 0), 0.0);
}

} // namespace
} // namespace upm::vm
