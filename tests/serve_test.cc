/**
 * @file
 * Tests for UPMServe: admission control (accept / queue-with-deadline /
 * reject), graceful degradation tiers, bounded OOM retry, chaos (kills
 * and storms) with leak-free crash reclamation, observer callbacks,
 * same-seed determinism, and the long-horizon churn soak (>= 2000
 * process create/destroy cycles under UPMSan with bounded free-list
 * fragmentation).
 */

#include <gtest/gtest.h>

#include "audit/auditor.hh"
#include "core/system.hh"
#include "serve/node.hh"

namespace upm::serve {
namespace {

core::SystemConfig
smallSystem(std::uint64_t capacity_bytes = 256 * MiB)
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = capacity_bytes;
    return cfg;
}

ServeConfig
smallServe(std::uint64_t requests = 256)
{
    ServeConfig cfg;
    cfg.numRequests = requests;
    return cfg;
}

/** Every counter and both latency digests, for equality checks. */
void
expectSameStats(const ServeStats &a, const ServeStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.stormArrivals, b.stormArrivals);
    EXPECT_EQ(a.queued, b.queued);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.deadlineShed, b.deadlineShed);
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.oomFailed, b.oomFailed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.retries, b.retries);
    for (int t = 0; t < 3; ++t)
        EXPECT_EQ(a.degradeEvents[t], b.degradeEvents[t]);
    EXPECT_EQ(a.processesSpawned, b.processesSpawned);
    EXPECT_EQ(a.processesRetired, b.processesRetired);
    EXPECT_EQ(a.processesCrashed, b.processesCrashed);
    EXPECT_EQ(a.processesEvicted, b.processesEvicted);
    EXPECT_EQ(a.pagesReclaimedDegrade, b.pagesReclaimedDegrade);
    EXPECT_EQ(a.pagesReclaimedCrash, b.pagesReclaimedCrash);
    EXPECT_EQ(a.pagesReclaimedRetire, b.pagesReclaimedRetire);
    EXPECT_EQ(a.endNs, b.endNs);
    ASSERT_EQ(a.latency.count(), b.latency.count());
    if (a.latency.count() != 0) {
        EXPECT_EQ(a.latency.mean(), b.latency.mean());
        EXPECT_EQ(a.latency.p999(), b.latency.p999());
    }
    ASSERT_EQ(a.queueWait.count(), b.queueWait.count());
}

TEST(Serve, SmokeCompletesEverythingWithHeadroom)
{
    core::System sys(smallSystem());
    ServeNode node(sys, smallServe());
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_EQ(st.arrivals, 256u);
    EXPECT_EQ(st.completed, 256u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_EQ(st.deadlineShed, 0u);
    EXPECT_EQ(st.cancelled, 0u);
    EXPECT_EQ(st.oomFailed, 0u);
    EXPECT_EQ(st.latency.count(), 256u);
    EXPECT_GT(st.latency.mean(), 0.0);
    // Tail ordering: p50 <= p99 <= p999 <= max.
    EXPECT_LE(st.latency.percentile(50.0), st.latency.percentile(99.0));
    EXPECT_LE(st.latency.percentile(99.0), st.latency.p999());
    EXPECT_LE(st.latency.p999(), st.latency.max());
    // Every spawned process was retired before run() returned.
    EXPECT_EQ(st.processesSpawned,
              st.processesRetired + st.processesCrashed +
                  st.processesEvicted);
    EXPECT_TRUE(sys.processes().empty());
    EXPECT_GT(st.endNs, 0.0);
}

TEST(Serve, RunIsCallableExactlyOnce)
{
    core::System sys(smallSystem());
    ServeNode node(sys, smallServe(8));
    node.run();
    EXPECT_THROW(node.run(), SimError);
}

TEST(Serve, ConfigValidationPanicsEarly)
{
    core::System sys(smallSystem());
    ServeConfig bad = smallServe();
    bad.numTenants = 0;
    EXPECT_THROW(ServeNode(sys, bad), SimError);
    bad = smallServe();
    bad.degradedArenaBytes = bad.arenaBytes + 1;
    EXPECT_THROW(ServeNode(sys, bad), SimError);
    bad = smallServe();
    bad.arenaBytes = bad.kvSliceBytes / 2;
    EXPECT_THROW(ServeNode(sys, bad), SimError);
}

TEST(Serve, SameSeedIsBitIdentical)
{
    ServeStats first;
    {
        core::System sys(smallSystem());
        ServeNode node(sys, smallServe(512));
        node.run();
        first = node.stats();
    }
    core::System sys(smallSystem());
    ServeNode node(sys, smallServe(512));
    node.run();
    expectSameStats(first, node.stats());
}

TEST(Serve, DifferentSeedsDiverge)
{
    ServeConfig cfg = smallServe(512);
    core::System sysA(smallSystem());
    ServeNode a(sysA, cfg);
    a.run();

    cfg.seed ^= 0x1234'5678ull;
    core::System sysB(smallSystem());
    ServeNode b(sysB, cfg);
    b.run();

    EXPECT_NE(a.stats().endNs, b.stats().endNs);
}

TEST(Serve, HighPressureQueuesThenShedsOnDeadline)
{
    // Ballast parks pressure in [queuePressure, tier1Pressure): every
    // arrival queues, nothing can dispatch (degradation has nothing to
    // reclaim), so the queue drains purely through deadline sheds and
    // overflow rejects -- all with structured statuses.
    core::System sys(smallSystem(128 * MiB));
    sys.runtime().hipMalloc(92 * MiB);  // pressure ~0.72

    ServeNode node(sys, smallServe(200));
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_EQ(st.completed, 0u);
    EXPECT_GT(st.deadlineShed, 0u);
    EXPECT_EQ(st.deadlineShed + st.rejected, st.arrivals);
    EXPECT_EQ(st.queued, st.deadlineShed);
    EXPECT_EQ(st.processesSpawned, 0u);
}

TEST(Serve, ExtremePressureRejectsOutright)
{
    core::System sys(smallSystem(128 * MiB));
    sys.runtime().hipMalloc(120 * MiB);  // pressure ~0.94 >= reject

    ServeNode node(sys, smallServe(64));
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_EQ(st.rejected, st.arrivals);
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.queued, 0u);
}

TEST(Serve, TierOneShrinksArenas)
{
    // Base pressure just under tier 1; the first full-size arena tips
    // it over, the next arrival enters tier 1 and reclaims the
    // oversized arena, and later arenas come up at the degraded size.
    core::System sys(smallSystem(128 * MiB));
    sys.runtime().hipMalloc(57 * MiB);  // pressure ~0.445

    ServeConfig cfg = smallServe(256);
    cfg.tier1Pressure = 0.50;
    cfg.tier2Pressure = 1.1;  // disabled
    cfg.tier3Pressure = 1.1;
    cfg.queuePressure = 0.95;
    cfg.rejectPressure = 0.98;
    cfg.rearmPressure = 0.10;
    ServeNode node(sys, cfg);
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_GE(st.degradeEvents[0], 1u);
    EXPECT_EQ(st.degradeEvents[1], 0u);
    EXPECT_EQ(st.degradeEvents[2], 0u);
    EXPECT_GT(st.pagesReclaimedDegrade, 0u);
    EXPECT_EQ(st.completed, st.arrivals);
    EXPECT_GE(node.degradeTier(), 1u);
}

TEST(Serve, TierLadderEscalatesToEviction)
{
    // Ballast above every (lowered) threshold: the first arrival walks
    // the whole ladder 1 -> 2 -> 3. Tier 3 evicts idle processes as
    // they accumulate, so the node keeps serving.
    core::System sys(smallSystem(128 * MiB));
    sys.runtime().hipMalloc(80 * MiB);  // pressure ~0.625

    ServeConfig cfg = smallServe(256);
    cfg.tier1Pressure = 0.50;
    cfg.tier2Pressure = 0.55;
    cfg.tier3Pressure = 0.60;
    cfg.queuePressure = 0.90;
    cfg.rejectPressure = 0.95;
    cfg.rearmPressure = 0.10;
    ServeNode node(sys, cfg);
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_GE(st.degradeEvents[0], 1u);
    EXPECT_GE(st.degradeEvents[1], 1u);
    EXPECT_GE(st.degradeEvents[2], 1u);
    EXPECT_GT(st.processesEvicted, 0u);
    EXPECT_GT(st.completed, 0u);
    EXPECT_EQ(node.degradeTier(), 3u);
}

TEST(Serve, AllocationFailureSurfacesAsStructuredOom)
{
    // Admission wide open but almost no memory: every arena allocation
    // exhausts the bounded retry ladder and the request reports
    // OutOfMemory -- never a panic, never a silent drop.
    core::System sys(smallSystem(64 * MiB));
    sys.runtime().hipMalloc(63 * MiB);

    ServeConfig cfg = smallServe(32);
    cfg.queuePressure = 1.1;   // disabled: force the dispatch path
    cfg.rejectPressure = 1.2;
    cfg.tier1Pressure = 1.1;
    cfg.tier2Pressure = 1.2;
    cfg.tier3Pressure = 1.3;
    ServeNode node(sys, cfg);
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_EQ(st.oomFailed, st.arrivals);
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.retries, st.arrivals * cfg.maxRetries);
}

/** Counts every callback; proves the hook sees each disposition. */
class CountingObserver : public ServeObserver
{
  public:
    void onAdmit(const Request &, bool queued) override
    {
        ++admits;
        if (queued)
            ++queuedAdmits;
    }
    void onShed(const Request &, Status why) override
    {
        ++sheds;
        lastShedStatus = why;
    }
    void onComplete(const Request &, Status status, SimTime) override
    {
        ++completes;
        if (status == Status::Cancelled)
            ++cancelled;
    }
    void onDegrade(unsigned tier, std::uint64_t) override
    {
        maxTier = std::max(maxTier, tier);
    }
    void onProcessSpawn(std::uint64_t, unsigned) override { ++spawns; }
    void onProcessExit(std::uint64_t, unsigned, bool crashed,
                       std::uint64_t) override
    {
        ++exits;
        if (crashed)
            ++crashes;
    }

    std::uint64_t admits = 0, queuedAdmits = 0, sheds = 0, completes = 0;
    std::uint64_t cancelled = 0, spawns = 0, exits = 0, crashes = 0;
    unsigned maxTier = 0;
    Status lastShedStatus = Status::Success;
};

TEST(Serve, ObserverSeesEveryDisposition)
{
    core::System sys(smallSystem());
    CountingObserver counting;
    ServeNode node(sys, smallServe(300), &counting);
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_EQ(counting.admits + counting.sheds, st.arrivals);
    EXPECT_EQ(counting.queuedAdmits, st.queued);
    EXPECT_EQ(counting.completes,
              st.completed + st.cancelled + st.oomFailed);
    EXPECT_EQ(counting.spawns, st.processesSpawned);
    EXPECT_EQ(counting.exits, st.processesSpawned);
}

TEST(Serve, ObserverDoesNotPerturbOutcomes)
{
    ServeStats without;
    {
        core::System sys(smallSystem());
        ServeNode node(sys, smallServe(300));
        node.run();
        without = node.stats();
    }
    core::System sys(smallSystem());
    CountingObserver counting;
    ServeNode node(sys, smallServe(300), &counting);
    node.run();
    expectSameStats(without, node.stats());
}

core::SystemConfig
chaosSystem()
{
    core::SystemConfig cfg = smallSystem();
    cfg.audit.enabled = true;
    cfg.inject.enabled = true;
    cfg.inject.processKillProb = 0.05;
    cfg.inject.requestStormProb = 0.05;
    cfg.inject.requestStormMaxBurst = 8;
    return cfg;
}

TEST(Serve, ChaosKillsAndStormsStayStructuredAndLeakFree)
{
    core::System sys(chaosSystem());
    ServeNode node(sys, smallServe(600));
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_GT(st.processesCrashed, 0u);
    EXPECT_EQ(st.cancelled, st.processesCrashed);
    EXPECT_GT(st.stormArrivals, 0u);
    EXPECT_GT(st.completed, 0u);
    // Crash reclamation went through the normal free paths: UPMSan's
    // end-of-run scans see no leaked frames and a clean shadow.
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u);
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();
}

TEST(Serve, ChaosCampaignIsSeedDeterministic)
{
    ServeStats first;
    {
        core::System sys(chaosSystem());
        ServeNode node(sys, smallServe(400));
        node.run();
        first = node.stats();
    }
    core::System sys(chaosSystem());
    ServeNode node(sys, smallServe(400));
    node.run();
    expectSameStats(first, node.stats());
}

// ---- Satellite: long-horizon churn soak --------------------------------

TEST(ServeSoak, TwoThousandProcessCyclesLeakFreeAndUnfragmented)
{
    core::SystemConfig syscfg = smallSystem(512 * MiB);
    syscfg.audit.enabled = true;
    core::System sys(syscfg);
    const std::uint64_t baselineNodes = sys.nodeMemory().freeListNodes();

    // processLifetime 1 makes every served request a full AddressSpace
    // create/run/destroy cycle.
    ServeConfig cfg;
    cfg.numRequests = 2200;
    cfg.processLifetime = 1;
    cfg.numTenants = 4;
    cfg.arenaBytes = 2 * MiB;
    cfg.degradedArenaBytes = 1 * MiB;
    cfg.kvCacheBytes = 1 * MiB;
    cfg.kvSliceBytes = 256 * KiB;
    ServeNode node(sys, cfg);
    node.run();

    const ServeStats &st = node.stats();
    EXPECT_GE(st.processesSpawned, 2000u);
    EXPECT_EQ(st.processesSpawned,
              st.processesRetired + st.processesCrashed +
                  st.processesEvicted);
    EXPECT_TRUE(sys.processes().empty());
    EXPECT_EQ(sys.processesCreated(), st.processesSpawned);

    // Zero leaks, zero cross-shard violations after the final epoch.
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u);
    EXPECT_EQ(
        sys.auditor()->countOf(audit::ViolationKind::CrossSocketOwner),
        0u);
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();

    // Bounded fragmentation: after thousands of buddy alloc/free
    // cycles the free lists must have coalesced back to (near) the
    // pristine shape, not accumulated splinters.
    EXPECT_LE(sys.nodeMemory().freeListNodes(), baselineNodes + 16);
}

TEST(ServeSoak, MultiSocketChurnKeepsShardOwnershipClean)
{
    core::SystemConfig syscfg = smallSystem(256 * MiB);
    syscfg.numSockets = 2;
    syscfg.audit.enabled = true;
    core::System sys(syscfg);

    ServeConfig cfg;
    cfg.numRequests = 512;
    cfg.processLifetime = 8;
    cfg.numTenants = 4;
    cfg.arenaBytes = 2 * MiB;
    cfg.degradedArenaBytes = 1 * MiB;
    cfg.kvCacheBytes = 1 * MiB;
    ServeNode node(sys, cfg);
    node.run();

    EXPECT_GT(node.stats().completed, 0u);
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u);
    EXPECT_EQ(
        sys.auditor()->countOf(audit::ViolationKind::CrossSocketOwner),
        0u);
}

} // namespace
} // namespace upm::serve
