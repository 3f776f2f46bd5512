/**
 * @file
 * UPMPolicy unit tests: eviction-policy semantics and tie-breaks
 * (including the evictOne() lowest-page-id regression), engine
 * counters and trace emission, replay folding of the policy events,
 * and the System / ServeNode wiring of the `pol` hook.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/system.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "sched/replay.hh"
#include "serve/node.hh"
#include "trace/tracer.hh"
#include "uvm/uvm.hh"

namespace upm::policy {
namespace {

constexpr EvictionKind kKinds[] = {
    EvictionKind::Lru,
    EvictionKind::Lfu,
    EvictionKind::Random,
    EvictionKind::Predictive,
};

// ---- Eviction semantics -------------------------------------------------

TEST(Eviction, LruEvictsOldest)
{
    LruEviction lru;
    lru.insert({1, 0}, 1);
    lru.insert({1, 1}, 2);
    lru.insert({1, 2}, 3);
    EXPECT_EQ(lru.evict(), (PageKey{1, 0}));
    EXPECT_EQ(lru.evict(), (PageKey{1, 1}));
    EXPECT_EQ(lru.size(), 1u);
}

TEST(Eviction, LruTouchRefreshes)
{
    LruEviction lru;
    lru.insert({1, 0}, 1);
    lru.insert({1, 1}, 2);
    lru.touch({1, 0}, 3);
    EXPECT_EQ(lru.evict(), (PageKey{1, 1}));
    EXPECT_EQ(lru.evict(), (PageKey{1, 0}));
}

TEST(Eviction, LruSameTickTieBreaksLowestKey)
{
    // Pages stamped by the same logical tick must evict in PageKey
    // order regardless of insertion order -- the representation-
    // independence fix for the retired list's implicit ordering.
    LruEviction lru;
    lru.insert({2, 7}, 5);
    lru.insert({1, 9}, 5);
    lru.insert({2, 3}, 5);
    EXPECT_EQ(lru.evict(), (PageKey{1, 9}));
    EXPECT_EQ(lru.evict(), (PageKey{2, 3}));
    EXPECT_EQ(lru.evict(), (PageKey{2, 7}));
}

TEST(Eviction, LfuEvictsLeastFrequent)
{
    LfuEviction lfu;
    lfu.insert({1, 0}, 1);
    lfu.insert({1, 1}, 1);
    lfu.touch({1, 0}, 2);
    lfu.touch({1, 0}, 3);
    lfu.touch({1, 1}, 4);
    lfu.insert({1, 2}, 5);  // freq 1: the coldest
    EXPECT_EQ(lfu.evict(), (PageKey{1, 2}));
    EXPECT_EQ(lfu.evict(), (PageKey{1, 1}));
    EXPECT_EQ(lfu.evict(), (PageKey{1, 0}));
}

TEST(Eviction, LfuTieFallsBackToStampThenKey)
{
    LfuEviction lfu;
    lfu.insert({1, 5}, 2);  // freq 1, stamp 2
    lfu.insert({1, 1}, 2);  // freq 1, stamp 2: key breaks the tie
    lfu.insert({1, 9}, 1);  // freq 1, stamp 1: oldest goes first
    EXPECT_EQ(lfu.evict(), (PageKey{1, 9}));
    EXPECT_EQ(lfu.evict(), (PageKey{1, 1}));
    EXPECT_EQ(lfu.evict(), (PageKey{1, 5}));
}

TEST(Eviction, RandomSeedDeterministic)
{
    RandomEviction a(42), b(42);
    for (std::uint64_t p = 0; p < 64; ++p) {
        a.insert({1, p}, p);
        b.insert({1, p}, p);
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.evict(), b.evict());
    EXPECT_EQ(a.size(), 0u);
}

TEST(Eviction, RandomVictimAlwaysTracked)
{
    RandomEviction rnd(7);
    for (std::uint64_t p = 0; p < 32; ++p)
        rnd.insert({3, p}, 0);
    rnd.remove({3, 10});
    rnd.remove({3, 31});  // exercises the swap-remove tail case
    for (int i = 0; i < 30; ++i) {
        PageKey v = rnd.evict();
        EXPECT_NE(v, (PageKey{3, 10}));
        EXPECT_NE(v, (PageKey{3, 31}));
        EXPECT_FALSE(rnd.contains(v));
    }
    EXPECT_EQ(rnd.size(), 0u);
}

TEST(Eviction, PredictiveEvictsFurthestPredicted)
{
    PredictiveEviction pred;
    // Page 0: retouched every tick (gap 1). Page 1: gap 8. Both seen
    // at tick 16; page 1's predicted next touch is further out.
    pred.insert({1, 0}, 1);
    pred.insert({1, 1}, 8);
    for (std::uint64_t t = 2; t <= 16; ++t)
        pred.touch({1, 0}, t);
    pred.touch({1, 1}, 16);
    EXPECT_EQ(pred.evict(), (PageKey{1, 1}));
    EXPECT_EQ(pred.evict(), (PageKey{1, 0}));
}

TEST(Eviction, PredictiveNeverReusedGoesFirst)
{
    PredictiveEviction pred;
    pred.insert({1, 0}, 1);
    pred.touch({1, 0}, 2);   // has a reuse history now
    pred.insert({1, 1}, 3);  // never retouched: predicted never
    EXPECT_EQ(pred.evict(), (PageKey{1, 1}));
}

TEST(Eviction, PredictiveOverflowClampsToNeverReused)
{
    PredictiveEviction pred;
    std::uint64_t huge = ~0ull - 4;
    pred.insert({1, 0}, huge);
    pred.touch({1, 0}, ~0ull - 1);  // stamp + gap would overflow
    pred.insert({1, 1}, ~0ull - 1);
    pred.touch({1, 1}, ~0ull);  // gap 1, prediction overflows too
    // Both clamp to "never reused"; the tie falls to stamp then key.
    EXPECT_EQ(pred.evict(), (PageKey{1, 0}));
    EXPECT_EQ(pred.evict(), (PageKey{1, 1}));
}

TEST(Eviction, RunFormsKeepOneNodePerSameStateRun)
{
    // A million pages inserted as one run are one node; a touch in the
    // middle splits it in three, and touching the rest re-merges.
    LruEviction lru;
    lru.insertRun({1, 0}, 1u << 20, 1);
    EXPECT_EQ(lru.size(), 1u << 20);
    EXPECT_EQ(lru.runCount(), 1u);
    lru.touchRun({1, 100}, 50, 2);
    EXPECT_EQ(lru.runCount(), 3u);
    lru.touchRun({1, 0}, 100, 2);
    EXPECT_EQ(lru.runCount(), 2u);
    lru.touchRun({1, 150}, (1u << 20) - 150, 2);
    EXPECT_EQ(lru.runCount(), 1u);
    EXPECT_EQ(lru.evictRun(10), (PageRun{{1, 0}, 10}));
    EXPECT_EQ(lru.evict(), (PageKey{1, 10}));

    // Single-page calls at one tick coalesce too.
    LfuEviction lfu;
    PredictiveEviction pred;
    for (std::uint64_t p = 0; p < 1000; ++p) {
        lfu.insert({2, p}, 5);
        pred.insert({2, p}, 5);
    }
    for (std::uint64_t p = 0; p < 1000; ++p) {
        lfu.touch({2, p}, 6);
        pred.touch({2, p}, 6);
    }
    EXPECT_EQ(lfu.runCount(), 1u);
    EXPECT_EQ(pred.runCount(), 1u);
    lfu.removeRun({2, 10}, 980);
    EXPECT_EQ(lfu.runCount(), 2u);
    EXPECT_EQ(lfu.size(), 20u);
}

TEST(Eviction, AdmitRunWithNoRoomEvictsAheadOfTheRun)
{
    // LFU with only frequency-2 pages tracked and no room: the first
    // admitted page evicts one of them, every later one the admitted
    // page before it (frequency 1 orders first).
    LfuEviction lfu;
    lfu.insertRun({1, 0}, 4, 1);
    lfu.touchRun({1, 0}, 4, 2);
    std::vector<PageRun> victims;
    lfu.admitRun({1, 10}, 3, 3, 0, victims);
    std::vector<PageRun> want{{{1, 0}, 1}, {{1, 10}, 2}};
    EXPECT_EQ(victims, want);
    EXPECT_EQ(lfu.size(), 4u);
    EXPECT_TRUE(lfu.contains({1, 12}));
}

TEST(Eviction, MisusePanicsForEveryKind)
{
    for (EvictionKind kind : kKinds) {
        auto ev = makeEviction(kind, 1);
        EXPECT_THROW(ev->evict(), SimError) << ev->name();
        EXPECT_THROW(ev->touch({1, 0}, 1), SimError) << ev->name();
        EXPECT_THROW(ev->remove({1, 0}), SimError) << ev->name();
        ev->insert({1, 0}, 1);
        EXPECT_THROW(ev->insert({1, 0}, 2), SimError) << ev->name();
    }
}

TEST(Eviction, RunMisusePanicsForEveryKind)
{
    // Pages 0-3 and 8-9 tracked: every run op that names page 5 (an
    // untracked gap) or re-inserts page 9 must panic.
    for (EvictionKind kind : kKinds) {
        auto ev = makeEviction(kind, 1);
        ev->insertRun({1, 0}, 4, 1);
        ev->insertRun({1, 8}, 2, 1);
        EXPECT_THROW(ev->touchRun({1, 2}, 4, 2), SimError) << ev->name();
        EXPECT_THROW(ev->removeRun({1, 5}, 1), SimError) << ev->name();
        EXPECT_THROW(ev->insertRun({1, 4}, 6, 2), SimError) << ev->name();
    }
}

TEST(Eviction, FactoryKindAndNameAgree)
{
    for (EvictionKind kind : kKinds) {
        auto ev = makeEviction(kind, 9);
        EXPECT_EQ(ev->kind(), kind);
        EXPECT_STREQ(ev->name(), evictionKindName(kind));
    }
}

TEST(Policy, NameParseRoundTrips)
{
    for (EvictionKind kind : kKinds) {
        EvictionKind out;
        EXPECT_TRUE(parseEvictionKind(evictionKindName(kind), &out));
        EXPECT_EQ(out, kind);
    }
    for (MigrationKind kind :
         {MigrationKind::Off, MigrationKind::HotCold}) {
        MigrationKind out;
        EXPECT_TRUE(parseMigrationKind(migrationKindName(kind), &out));
        EXPECT_EQ(out, kind);
    }
    EvictionKind ev;
    EXPECT_FALSE(parseEvictionKind("mru", &ev));
    MigrationKind mg;
    EXPECT_FALSE(parseMigrationKind("eager", &mg));
}

// ---- uvm integration ----------------------------------------------------

TEST(Uvm, EvictionTieBreakIsLowestPageId)
{
    // Three pages touched by ONE access call share a stamp; evicting
    // the third must pick page 0 -- the lowest page id -- not
    // whatever a container happened to order first.
    uvm::UvmSimulator sim(2 * mem::kPageSize * 1024);  // 2048 pages
    std::uint64_t h = sim.allocManaged(3 * 4 * MiB);
    sim.gpuAccess(h, 0, 3 * 4 * MiB);  // 3072 pages, 1024 evictions
    EXPECT_EQ(sim.evictions(), 1024u);
    // The evicted low pages are host-resident: a CPU touch of page 0
    // migrates nothing back (it is already home).
    std::uint64_t to_host = sim.pagesMigratedToHost();
    sim.cpuAccess(h, 0, mem::kPageSize);
    EXPECT_EQ(sim.pagesMigratedToHost(), to_host);
    // The tail pages survived on the device: touching the last page
    // pulls exactly one back.
    sim.cpuAccess(h, 3 * 4 * MiB - mem::kPageSize, mem::kPageSize);
    EXPECT_EQ(sim.pagesMigratedToHost(), to_host + 1);
}

TEST(Uvm, EvictionKindExposed)
{
    uvm::UvmSimulator lru(8 * MiB);
    EXPECT_EQ(lru.evictionKind(), EvictionKind::Lru);
    uvm::UvmSimulator rnd(8 * MiB, EvictionKind::Random, 3);
    EXPECT_EQ(rnd.evictionKind(), EvictionKind::Random);
}

TEST(Uvm, LfuKeepsHotPageUnderStreaming)
{
    // Device memory of 4 pages; page 0 is hot, pages 1..15 stream
    // through. LFU keeps the hot page resident; LRU would have cycled
    // it out with the stream.
    uvm::UvmSimulator sim(4 * mem::kPageSize, EvictionKind::Lfu, 0);
    std::uint64_t h = sim.allocManaged(16 * mem::kPageSize);
    for (std::uint64_t p = 1; p < 16; ++p) {
        sim.gpuAccess(h, 0, mem::kPageSize);  // hot page 0
        sim.gpuAccess(h, p * mem::kPageSize, mem::kPageSize);
    }
    // Pulling page 0 back must migrate: it stayed device-resident.
    std::uint64_t to_host = sim.pagesMigratedToHost();
    sim.cpuAccess(h, 0, mem::kPageSize);
    EXPECT_EQ(sim.pagesMigratedToHost(), to_host + 1);
}

// ---- Engine -------------------------------------------------------------

TEST(Engine, DefaultsLruAndOff)
{
    PolicyConfig cfg;
    cfg.enabled = true;
    PolicyEngine engine(cfg);
    EXPECT_FALSE(engine.migrates());
    EXPECT_EQ(makeEviction(cfg.eviction, cfg.seed)->kind(), EvictionKind::Lru);
    EXPECT_EQ(engine.residentIn(Tier::Fast), 0u);
    EXPECT_EQ(engine.residentIn(Tier::Slow), 0u);
}

TEST(Engine, AccessCountingCheapPathMatchesSlowPath)
{
    PolicyConfig off;
    off.enabled = true;
    PolicyConfig hot = off;
    hot.migration = MigrationKind::HotCold;
    PolicyEngine a(off), b(hot);
    a.advanceTick();
    b.advanceTick();
    a.noteAccessRange(1, 0, 128);
    b.noteAccessRange(1, 0, 128);
    EXPECT_EQ(a.stats().accesses, 128u);
    EXPECT_EQ(b.stats().accesses, 128u);
}

TEST(Engine, EmitsPolicyEvictOnUvmOvercommit)
{
    trace::TraceConfig tcfg;
    tcfg.enabled = true;
    trace::Tracer tracer(tcfg);

    PolicyConfig cfg;
    cfg.enabled = true;
    PolicyEngine engine(cfg, {.tr = &tracer});

    uvm::UvmSimulator sim(4 * mem::kPageSize);
    sim.setPolicyEngine(&engine);
    std::uint64_t h = sim.allocManaged(8 * mem::kPageSize);
    sim.gpuAccess(h, 0, 8 * mem::kPageSize);

    EXPECT_EQ(sim.evictions(), 4u);
    EXPECT_EQ(engine.stats().evictions, 4u);
    std::uint64_t evict_events = 0;
    for (const auto &ev : tracer.events()) {
        if (ev.kind != trace::EventKind::PolicyEvict)
            continue;
        ++evict_events;
        EXPECT_EQ(ev.layer, trace::Layer::Vm);
        EXPECT_EQ(ev.a, h);
        EXPECT_LT(ev.b, 8u);  // a page of the one region
        EXPECT_EQ(ev.c, static_cast<std::uint64_t>(EvictionKind::Lru));
    }
    EXPECT_EQ(evict_events, 4u);
}

TEST(Engine, MigrationProposalsNotTracedUntilApplied)
{
    trace::TraceConfig tcfg;
    tcfg.enabled = true;
    trace::Tracer tracer(tcfg);

    PolicyConfig cfg;
    cfg.enabled = true;
    cfg.migration = MigrationKind::HotCold;
    PolicyEngine engine(cfg, {.tr = &tracer});

    engine.noteResident({1, 0}, Tier::Slow);
    for (int i = 0; i < 5; ++i) {
        engine.advanceTick();
        engine.noteAccess({1, 0});
    }
    auto proposals = engine.migrationStep();
    ASSERT_EQ(proposals.size(), 1u);
    EXPECT_EQ(proposals[0].key, (PageKey{1, 0}));
    EXPECT_EQ(proposals[0].to, Tier::Fast);
    EXPECT_TRUE(tracer.events().empty());  // proposal, not decision

    engine.noteMigrated(proposals[0].key, proposals[0].to);
    // events() returns by value: keep the copy alive while ev is used.
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 1u);
    const auto &ev = events[0];
    EXPECT_EQ(ev.kind, trace::EventKind::PolicyMigrate);
    EXPECT_EQ(ev.a, 1u);
    EXPECT_EQ(ev.b, 0u);
    EXPECT_EQ(ev.c, static_cast<std::uint64_t>(Tier::Fast));
    EXPECT_EQ(engine.stats().promotions, 1u);
    EXPECT_EQ(engine.residentIn(Tier::Fast), 1u);
}

// ---- Trace plumbing -----------------------------------------------------

TEST(Trace, PolicyEventNamesAndLayer)
{
    using trace::EventKind;
    EXPECT_STREQ(trace::eventKindName(EventKind::PolicyPlace),
                 "policy_place");
    EXPECT_STREQ(trace::eventKindName(EventKind::PolicyMigrate),
                 "policy_migrate");
    EXPECT_STREQ(trace::eventKindName(EventKind::PolicyEvict),
                 "policy_evict");
    for (EventKind kind : {EventKind::PolicyPlace,
                           EventKind::PolicyMigrate,
                           EventKind::PolicyEvict}) {
        EXPECT_EQ(trace::layerOf(kind), trace::Layer::Vm);
        EXPECT_NE(trace::argName(kind, 0), nullptr);
        EXPECT_NE(trace::argName(kind, 3), nullptr);
    }
}

TEST(Replay, FoldsPolicyCounters)
{
    sched::TraceReplayer replayer;
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::PolicyPlace;
    ev.layer = trace::Layer::Vm;
    replayer.apply(ev);
    ev.kind = trace::EventKind::PolicyMigrate;
    replayer.apply(ev);
    replayer.apply(ev);
    ev.kind = trace::EventKind::PolicyEvict;
    replayer.apply(ev);
    const auto &m = replayer.metrics();
    EXPECT_EQ(m.policyPlaces, 1u);
    EXPECT_EQ(m.policyMigrates, 2u);
    EXPECT_EQ(m.policyEvicts, 1u);
    EXPECT_EQ(m.eventsApplied, 4u);
}

TEST(Replay, RingDumpRoundTripsPolicyEvents)
{
    // Policy decisions recorded into the packed ring must unpack and
    // replay to the same decision counts -- the upmreplay path.
    trace::TraceConfig tcfg;
    tcfg.enabled = true;
    tcfg.ring = true;
    trace::Tracer tracer(tcfg);

    PolicyConfig cfg;
    cfg.enabled = true;
    PolicyEngine engine(cfg, {.tr = &tracer});

    uvm::UvmSimulator sim(4 * mem::kPageSize);
    sim.setPolicyEngine(&engine);
    std::uint64_t h = sim.allocManaged(16 * mem::kPageSize);
    sim.gpuAccess(h, 0, 16 * mem::kPageSize);
    ASSERT_EQ(engine.stats().evictions, 12u);

    std::string path = std::string(::testing::TempDir()) +
                       "policy_ring_roundtrip.upmt";
    ASSERT_TRUE(tracer.ringSink()->dump(path));
    std::vector<trace::TraceEvent> events;
    ASSERT_EQ(sched::loadDump(path, events), Status::Success);
    sched::TraceReplayer replayer;
    replayer.applyAll(events);
    EXPECT_EQ(replayer.metrics().policyEvicts, 12u);
    std::remove(path.c_str());
}

// ---- System / ServeNode wiring ------------------------------------------

TEST(System, PolicyEngineWiredOnlyWhenEnabled)
{
    core::System plain;
    EXPECT_EQ(plain.policyEngine(), nullptr);

    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 256 * MiB;
    cfg.policy.enabled = true;
    core::System sys(cfg);
    ASSERT_NE(sys.policyEngine(), nullptr);
    EXPECT_EQ(sys.addressSpace().policyEngine(), sys.policyEngine());
    // Processes inherit the System-owned engine.
    auto proc = sys.createProcess();
    EXPECT_EQ(proc->addressSpace().policyEngine(), sys.policyEngine());
}

TEST(System, EngineObservesRuntimeAccessStream)
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 256 * MiB;
    cfg.policy.enabled = true;
    core::System sys(cfg);
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(4 * MiB);
    rt.cpuFirstTouch(p, 4 * MiB);
    rt.cpuStream(p, 4 * MiB, 24);
    EXPECT_GT(sys.policyEngine()->stats().accesses, 0u);
    EXPECT_GT(sys.policyEngine()->tick(), 0u);
    rt.freeChecked(p);
}

TEST(Serve, SystemOwnedEngineWinsOverServeConfig)
{
    // SystemConfig::policy is the one way to give a node an engine:
    // ServeConfig carries no policy, and the primary space and every
    // spawned process are built with the System's engine.
    core::SystemConfig scfg;
    scfg.geometry.capacityBytes = 256 * MiB;
    scfg.policy.enabled = true;
    core::System sys(scfg);
    serve::ServeConfig cfg;
    cfg.numRequests = 16;
    serve::ServeNode node(sys, cfg);
    ASSERT_NE(node.policyEngine(), nullptr);
    EXPECT_EQ(node.policyEngine(), sys.policyEngine());
    node.run();
    EXPECT_GT(node.policyEngine()->stats().accesses, 0u);
}

} // namespace
} // namespace upm::policy
