/**
 * @file
 * The frame-free path is one path: FrameAllocator::freeRange and
 * AddressSpace::munmap free the same frames, reach the same buddy
 * state and report the same violations whether or not an auditor is
 * attached, and both match a page-by-page freeFrame oracle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "audit/auditor.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "mem/node.hh"
#include "vm/address_space.hh"

namespace upm {
namespace {

using mem::FrameId;

mem::MemGeometry
smallGeometry()
{
    mem::MemGeometryConfig cfg;
    cfg.capacityBytes = 64 * MiB;  // 16384 frames
    return mem::MemGeometry(cfg);
}

audit::AuditConfig
quietAudit()
{
    audit::AuditConfig cfg;
    cfg.enabled = true;
    cfg.warnOnViolation = false;
    return cfg;
}

/** Everything observable about a buddy allocator's state. */
void
expectSameState(mem::FrameAllocator &want, mem::FrameAllocator &got)
{
    EXPECT_EQ(got.freeFrames(), want.freeFrames());
    EXPECT_EQ(got.freeListNodes(), want.freeListNodes());
    EXPECT_EQ(got.busyMap(), want.busyMap());
    // Equal free lists hand out equal blocks, largest first.
    for (std::uint64_t n : {1u, 3u, 64u, 512u, 700u}) {
        auto a = want.allocRun(n);
        auto b = got.allocRun(n);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(*b, *a) << n;
    }
}

/** Allocate one 1024-frame run and punch single-frame holes in it. */
class FreeRangeHoleTest : public ::testing::Test
{
  protected:
    FreeRangeHoleTest() : geom(smallGeometry()) {}

    /** Allocator with the busy range and holes in place. */
    std::unique_ptr<mem::FrameAllocator>
    makeHoled(const Hooks &hooks = {})
    {
        auto alloc = std::make_unique<mem::FrameAllocator>(
            geom, mem::FrameAllocatorConfig{}, 0, 0, hooks);
        auto runs = alloc->allocRun(kFrames);
        EXPECT_TRUE(runs.has_value());
        EXPECT_EQ(runs->size(), 1u);
        base = (*runs)[0].base;
        for (FrameId hole : kHoles)
            EXPECT_TRUE(alloc->freeFrame(base + hole));
        return alloc;
    }

    static constexpr std::uint64_t kFrames = 1024;
    /** Hole offsets: at the start, mid-block, adjacent, at the end. */
    static constexpr FrameId kHoles[] = {0, 5, 17, 18, 511, 512, 1023};

    mem::MemGeometry geom;
    FrameId base = 0;
};

TEST_F(FreeRangeHoleTest, AuditedAndUnauditedMatchPerPageOracle)
{
    auto oracle = makeHoled();
    for (std::uint64_t i = 0; i < kFrames; ++i)
        (void)oracle->freeFrame(base + i);

    auto plain = makeHoled();
    EXPECT_FALSE(plain->freeRange({base, kFrames}));

    audit::Auditor aud(quietAudit());
    auto audited = makeHoled({.aud = &aud});
    EXPECT_FALSE(audited->freeRange({base, kFrames}));

    // One FrameDoubleFree per hole frame, in frame order.
    ASSERT_EQ(aud.countOf(audit::ViolationKind::FrameDoubleFree),
              std::size(kHoles));
    ASSERT_EQ(aud.violations().size(), std::size(kHoles));
    for (std::size_t i = 0; i < std::size(kHoles); ++i)
        EXPECT_EQ(aud.violations()[i].addr, base + kHoles[i]);

    EXPECT_EQ(plain->freeFrames(), geom.numFrames());
    expectSameState(*oracle, *plain);
    auto oracle2 = makeHoled();
    for (std::uint64_t i = 0; i < kFrames; ++i)
        (void)oracle2->freeFrame(base + i);
    expectSameState(*oracle2, *audited);
}

/** A 1-socket node, backing store and address space, optionally
 *  audited. */
struct Space
{
    explicit Space(const mem::MemGeometry &geom, audit::Auditor *aud)
        : node(geom, {}, 1, {.aud = aud}), frames(node.shard(0)),
          as(node, store, {.aud = aud})
    {
    }

    mem::NodeMemory node;
    mem::FrameAllocator &frames;
    mem::BackingStore store;
    vm::AddressSpace as;
};

TEST(FreePath, MunmapOfScatterVmaIsAuditNeutral)
{
    mem::MemGeometry geom = smallGeometry();
    audit::Auditor aud(quietAudit());
    Space plain(geom, nullptr);
    Space audited(geom, &aud);

    auto churn = [](vm::AddressSpace &as) {
        vm::VmaPolicy policy;
        policy.onDemand = true;
        policy.placement = vm::Placement::Scattered;
        // A keeper VMA interleaves its first-touch frames with the
        // victim's, so the victim's frames are scattered and its
        // merged free intervals are short.
        auto keep = as.tryMmapAnon(4 * MiB, policy, "keep");
        auto victim = as.tryMmapAnon(12 * MiB, policy, "victim");
        ASSERT_EQ(keep.status, Status::Success);
        ASSERT_EQ(victim.status, Status::Success);
        vm::Vpn keep0 = vm::vpnOf(keep.base);
        vm::Vpn victim0 = vm::vpnOf(victim.base);
        auto fault = [&as](vm::Vpn vpn) {
            return as.tryResolveCpuFaultRange(vpn, vpn + 1).pages;
        };
        for (std::uint64_t i = 0; i < 1024; ++i) {
            ASSERT_EQ(fault(victim0 + 2 * i), 1u);
            ASSERT_EQ(fault(keep0 + i), 1u);
            ASSERT_EQ(fault(victim0 + 2 * i + 1), 1u);
        }
        EXPECT_EQ(as.tryResolveCpuFaultRange(victim0 + 2048,
                                             victim0 + 2048 + 300)
                      .pages,
                  300u);
        EXPECT_EQ(as.munmap(victim.base), Status::Success);
    };
    churn(plain.as);
    churn(audited.as);

    EXPECT_TRUE(aud.clean()) << aud.summary();
    EXPECT_LT(plain.frames.freeFrames(), geom.numFrames());
    EXPECT_EQ(audited.frames.freeFrames(), plain.frames.freeFrames());
    EXPECT_EQ(audited.frames.freeListNodes(),
              plain.frames.freeListNodes());
    EXPECT_EQ(audited.frames.busyMap(), plain.frames.busyMap());
}

} // namespace
} // namespace upm
