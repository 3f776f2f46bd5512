/**
 * @file
 * Capacity-exhaustion matrix: every Table 1 allocator configuration
 * (the six kinds, with hipMallocManaged in both XNACK modes) must
 * surface OOM as a structured, recoverable error -- hipErrorOutOfMemory
 * from tryAllocate() for the up-front allocators, StatusError
 * (OutOfMemory) at first touch for the on-demand ones -- and must not
 * leak a single frame on the failure path. UPMSan's frame-leak audit
 * checks the no-leak half structurally.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

namespace upm::alloc {
namespace {

/** One of the paper's seven allocator configurations. */
struct OomCase
{
    AllocatorKind kind;
    bool xnack;
    /** True when population happens at allocation time, so the OOM
     *  surfaces from tryAllocate() rather than at first touch. */
    bool upFront;
    const char *label;
};

const OomCase kCases[] = {
    {AllocatorKind::Malloc, true, false, "malloc+xnack"},
    {AllocatorKind::MallocRegistered, false, true, "malloc+register"},
    {AllocatorKind::HipMalloc, false, true, "hipMalloc"},
    {AllocatorKind::HipHostMalloc, false, true, "hipHostMalloc"},
    {AllocatorKind::HipMallocManaged, false, true, "managed"},
    {AllocatorKind::HipMallocManaged, true, false, "managed+xnack"},
    {AllocatorKind::ManagedStatic, false, true, "managedStatic"},
};

/** Print a case by its label, so test names carry no pointer bytes. */
void
PrintTo(const OomCase &c, std::ostream *os)
{
    *os << c.label;
}

core::SystemConfig
tinyAuditedConfig()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 64 * MiB;
    cfg.audit.enabled = true;
    cfg.audit.warnOnViolation = false;
    return cfg;
}

class OomMatrix : public ::testing::TestWithParam<OomCase>
{
};

TEST_P(OomMatrix, ExhaustionIsStructuredAndLeakFree)
{
    const OomCase &c = GetParam();
    core::System sys(tinyAuditedConfig());
    auto &rt = sys.runtime();
    rt.setXnack(c.xnack);

    std::uint64_t total_frames = sys.frames().freeFrames();
    std::uint64_t oversize = 2 * sys.geometry().capacity();

    hip::DevPtr p = 0;
    hip::hipError_t err = rt.tryAllocate(c.kind, oversize, p);
    if (c.upFront) {
        EXPECT_EQ(err, hip::hipErrorOutOfMemory) << c.label;
        EXPECT_EQ(p, 0u) << c.label;
        EXPECT_EQ(rt.hipGetLastError(), hip::hipErrorOutOfMemory);
    } else {
        // On-demand: the oversized reservation itself succeeds (it is
        // VA only), and capacity exhaustion surfaces at first touch.
        ASSERT_EQ(err, hip::hipSuccess) << c.label;
        try {
            rt.cpuFirstTouch(p, oversize);
            FAIL() << c.label << ": expected StatusError(OutOfMemory)";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.code(), Status::OutOfMemory) << c.label;
        }
        // Thrown StatusErrors are recorded in the sticky last error
        // before the throw (the hipGetLastError contract).
        EXPECT_EQ(rt.hipGetLastError(), hip::hipErrorOutOfMemory);
        EXPECT_EQ(rt.hipFree(p), hip::hipSuccess) << c.label;
    }

    // A smaller allocation still succeeds afterwards: the failure was
    // recoverable, not a poisoned allocator.
    hip::DevPtr q = 0;
    ASSERT_EQ(rt.tryAllocate(c.kind, 1 * MiB, q), hip::hipSuccess)
        << c.label;
    if (!c.upFront)
        rt.cpuFirstTouch(q, 1 * MiB);
    EXPECT_EQ(rt.hipFree(q), hip::hipSuccess);

    // No frame may be stranded by the failure path.
    EXPECT_EQ(sys.frames().freeFrames(), total_frames) << c.label;
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u)
        << c.label;
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameDoubleFree),
              0u)
        << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, OomMatrix, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<OomCase> &info) {
        std::string name = info.param.label;
        for (char &ch : name)
            if (ch == '+')
                ch = '_';
        return name;
    });

/** Near-capacity (not oversized) exhaustion: fill most of memory, then
 *  ask for more than the remainder. Exercises the partial-populate
 *  unwind rather than the early reservation failure. */
TEST(OomMatrixEdge, PartialPopulationUnwindsCleanly)
{
    core::System sys(tinyAuditedConfig());
    auto &rt = sys.runtime();

    std::uint64_t total_frames = sys.frames().freeFrames();
    hip::DevPtr big = 0;
    ASSERT_EQ(rt.tryAllocate(AllocatorKind::HipHostMalloc, 48 * MiB, big),
              hip::hipSuccess);
    // 16 MiB remain; this must fail *after* populating part of the
    // range, and the unwind must give those frames back.
    std::uint64_t free_mid = sys.frames().freeFrames();
    hip::DevPtr p = 0;
    EXPECT_EQ(rt.tryAllocate(AllocatorKind::HipHostMalloc, 32 * MiB, p),
              hip::hipErrorOutOfMemory);
    EXPECT_EQ(sys.frames().freeFrames(), free_mid);

    EXPECT_EQ(rt.hipFree(big), hip::hipSuccess);
    EXPECT_EQ(sys.frames().freeFrames(), total_frames);
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u);
}

} // namespace
} // namespace upm::alloc
