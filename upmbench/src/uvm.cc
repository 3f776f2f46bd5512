/**
 * @file
 * Workload `uvm_oversub`: the software-UVM baseline under device
 * memory oversubscription, one UvmSimulator per point.
 *
 * Every EvictionKind runs stream at 1.5x, hotcold at 1.25x and
 * pingpong at 1.25x of a 256 MiB device; a thirteenth point wires a
 * PolicyEngine with HotCold migration. Nearly all host time goes to
 * uvm and to policy's per-page ordered containers; pingpong adds the
 * remove path beside insert/touch/evict. No System exists here, so
 * vm, mem, hip and audit are idle.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "exec/task_pool.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "policy/eviction.hh"
#include "trace/event.hh"
#include "uvm/uvm.hh"

namespace upmbench {

namespace {

using namespace upm;
using policy::EvictionKind;

constexpr std::uint64_t kCapacity = 256 * MiB;
constexpr std::uint64_t kPage = mem::kPageSize;

constexpr EvictionKind kKinds[] = {EvictionKind::Lru, EvictionKind::Lfu,
                                   EvictionKind::Random,
                                   EvictionKind::Predictive};
constexpr std::size_t kNumKinds = std::size(kKinds);

enum class Pattern { Stream, HotCold, PingPong };

struct PatternSpec
{
    Pattern pattern;
    double pressure;  //!< working set / device memory
};

constexpr PatternSpec kPatterns[] = {
    {Pattern::Stream, 1.50},
    {Pattern::HotCold, 1.25},
    {Pattern::PingPong, 1.25},
};
constexpr std::size_t kNumPatterns = std::size(kPatterns);
constexpr std::size_t kGridPoints = kNumKinds * kNumPatterns;

constexpr const char *kLabels[kNumKinds][kNumPatterns] = {
    {"lru/stream", "lru/hotcold", "lru/pingpong"},
    {"lfu/stream", "lfu/hotcold", "lfu/pingpong"},
    {"random/stream", "random/hotcold", "random/pingpong"},
    {"predictive/stream", "predictive/hotcold", "predictive/pingpong"},
};
constexpr const char *kMigrationLabel = "lru/migration";

/** One access call, as page range [first, last). */
struct Call
{
    bool gpu;
    std::uint64_t first;
    std::uint64_t last;
};

/** Counters of one point, read back from the simulator. */
struct Point
{
    std::uint64_t evictions = 0;
    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t resident = 0;
    std::uint64_t uniquePages = 0;  //!< distinct pages the GPU touches
    std::uint64_t calls = 0;
    std::uint64_t pagesNamed = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t handle = 0;
    SimTime simNs = 0.0;
    std::string error;
    double setupS = 0.0;
    PhaseClock measured;
    std::vector<Call> record;  //!< filled only when recording

    void
    addTo(Digest &d) const
    {
        for (std::uint64_t v : {evictions, toDevice, toHost, resident,
                                calls, pagesNamed, promotions, demotions})
            d.add(v);
        d.add(simNs);
        d.add(error);
    }
};

/** Routes the access stream through spans (and the recorder). */
class Traffic
{
  public:
    Traffic(uvm::UvmSimulator &s, Point &p, bool recording)
        : sim(s), pt(p), rec(recording)
    {
    }

    void
    gpu(std::uint64_t handle, std::uint64_t off, std::uint64_t bytes)
    {
        note(true, off, bytes);
        SpanScope sp("uvm::UvmSimulator::gpuAccess");
        pt.simNs += sim.gpuAccess(handle, off, bytes);
    }

    void
    cpu(std::uint64_t handle, std::uint64_t off, std::uint64_t bytes)
    {
        note(false, off, bytes);
        SpanScope sp("uvm::UvmSimulator::cpuAccess");
        pt.simNs += sim.cpuAccess(handle, off, bytes);
    }

    /** One migrationStep(); false once the engine is quiescent. */
    bool
    migrate()
    {
        SpanScope sp("uvm::UvmSimulator::migrationStep");
        SimTime t = sim.migrationStep();
        pt.simNs += t;
        return t > 0.0;
    }

  private:
    void
    note(bool is_gpu, std::uint64_t off, std::uint64_t bytes)
    {
        const std::uint64_t first = off / kPage;
        const std::uint64_t last = ceilDiv(off + bytes, kPage);
        ++pt.calls;
        pt.pagesNamed += last - first;
        if (rec)
            pt.record.push_back({is_gpu, first, last});
    }

    uvm::UvmSimulator &sim;
    Point &pt;
    bool rec;
};

/** Windowed sequential passes over the working set. */
void
runStream(Traffic &d, std::uint64_t h, std::uint64_t ws)
{
    const std::uint64_t window = std::max(ws / 16, kPage);
    for (unsigned pass = 0; pass < 4; ++pass) {
        for (std::uint64_t off = 0; off < ws; off += window)
            d.gpu(h, off, std::min(window, ws - off));
    }
}

/** A hot quarter at a seeded offset, touched 4x per iteration, plus a
 *  windowed scan of the cold remainder. */
void
runHotCold(Traffic &d, std::uint64_t h, std::uint64_t ws,
           std::uint64_t hot_at)
{
    const std::uint64_t hot = std::max(ws / 4, kPage);
    const std::uint64_t window = std::max((ws - hot) / 8, kPage);
    auto scan = [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t off = lo; off < hi; off += window)
            d.gpu(h, off, std::min(window, hi - off));
    };
    for (unsigned iter = 0; iter < 6; ++iter) {
        for (unsigned k = 0; k < 4; ++k)
            d.gpu(h, hot_at, hot);
        scan(0, hot_at);
        scan(hot_at + hot, ws);
    }
}

/** GPU/CPU alternation on one half-capacity slice. */
void
runPingPong(Traffic &d, std::uint64_t h, std::uint64_t slice)
{
    for (unsigned iter = 0; iter < 8; ++iter) {
        d.gpu(h, 0, slice);
        d.cpu(h, 0, slice);
    }
}

/** Page-aligned offset of a @p span-byte region inside @p ws bytes. */
std::uint64_t
seededOffset(std::uint64_t seed, std::uint64_t ws, std::uint64_t span)
{
    SplitMix64 rng(seed);
    return (rng.next() % ((ws - span) / kPage + 1)) * kPage;
}

Point
runGridPoint(std::size_t ki, std::size_t pi, std::uint64_t seed,
             std::uint64_t unit_id, bool recording)
{
    Point pt;
    const PatternSpec &spec = kPatterns[pi];
    SpanScope unit_span(kUnitSpan, kLabels[ki][pi], unit_id);
    const std::uint64_t ws = static_cast<std::uint64_t>(
        static_cast<double>(kCapacity) * spec.pressure);
    PhaseClock setup;
    setup.start();
    std::unique_ptr<uvm::UvmSimulator> sim;
    std::uint64_t h = 0;
    {
        SpanScope sp("uvm::UvmSimulator::UvmSimulator");
        sim = std::make_unique<uvm::UvmSimulator>(kCapacity, kKinds[ki],
                                                  seed);
    }
    {
        SpanScope sp("uvm::UvmSimulator::allocManaged");
        h = sim->allocManaged(ws);
    }
    pt.handle = h;
    setup.stop();
    pt.setupS = setup.wall;

    pt.measured.start();
    Traffic d(*sim, pt, recording);
    pt.uniquePages = ceilDiv(ws, kPage);
    try {
        switch (spec.pattern) {
          case Pattern::Stream:
            runStream(d, h, ws);
            break;
          case Pattern::HotCold:
            runHotCold(d, h, ws, seededOffset(seed, ws, ws / 4));
            break;
          case Pattern::PingPong: {
            const std::uint64_t slice = std::min(ws, kCapacity) / 2;
            pt.uniquePages = ceilDiv(slice, kPage);
            runPingPong(d, h, slice);
            break;
          }
        }
    } catch (const std::exception &e) {
        pt.error = e.what();
    }
    pt.evictions = sim->evictions();
    pt.toDevice = sim->pagesMigratedToDevice();
    pt.toHost = sim->pagesMigratedToHost();
    pt.resident = sim->deviceResidentPages();
    sim.reset();
    pt.measured.stop();
    return pt;
}

/** Engine-wired HotCold migration: CPU warm-up makes a seeded hot
 *  quarter promotion-eligible, migration prefetches it, the GPU phase
 *  hits it, and a stale phase drains demotions. Fits in device
 *  memory, so it never evicts. */
Point
runMigrationPoint(std::uint64_t seed, std::uint64_t unit_id,
                  bool corrupt, PassResult &out)
{
    Point pt;
    SpanScope unit_span(kUnitSpan, kMigrationLabel, unit_id);
    const std::uint64_t total = kCapacity / 2;
    const std::uint64_t hot = kCapacity / 4;
    const std::uint64_t hot_at = seededOffset(seed, total, hot);
    const std::uint64_t other = hot_at + hot < total ? hot_at + hot : 0;

    PhaseClock setup;
    setup.start();
    policy::PolicyConfig pcfg;
    pcfg.enabled = true;
    pcfg.migration = policy::MigrationKind::HotCold;
    pcfg.seed = seed;
    auto engine = std::make_unique<policy::PolicyEngine>(pcfg);
    std::unique_ptr<uvm::UvmSimulator> sim;
    std::uint64_t h = 0;
    {
        SpanScope sp("uvm::UvmSimulator::UvmSimulator");
        sim = std::make_unique<uvm::UvmSimulator>(
            kCapacity, EvictionKind::Lru, pcfg.seed);
        sim->setPolicyEngine(engine.get());
    }
    {
        SpanScope sp("uvm::UvmSimulator::allocManaged");
        h = sim->allocManaged(total);
    }
    setup.stop();
    pt.setupS = setup.wall;

    pt.measured.start();
    Traffic d(*sim, pt, false);
    try {
        for (unsigned i = 0; i < 6; ++i)
            d.cpu(h, hot_at, hot);
        for (unsigned guard = 0; guard < 100000 && d.migrate(); ++guard) {
        }
        d.gpu(h, hot_at, hot);
        for (unsigned i = 0; i < 17; ++i)
            d.gpu(h, other, kPage);
        for (unsigned guard = 0; guard < 100000 && d.migrate(); ++guard) {
        }
    } catch (const std::exception &e) {
        pt.error = e.what();
    }
    if (corrupt) {
        // A page the simulator never allocated, booked as resident.
        engine->noteResident({h + 1, 0}, policy::Tier::Fast);
    }
    pt.evictions = sim->evictions();
    pt.toDevice = sim->pagesMigratedToDevice();
    pt.toHost = sim->pagesMigratedToHost();
    pt.resident = sim->deviceResidentPages();
    pt.promotions = engine->stats().promotions;
    pt.demotions = engine->stats().demotions;
    const std::uint64_t fast = engine->residentIn(policy::Tier::Fast);
    const std::uint64_t slow = engine->residentIn(policy::Tier::Slow);
    const std::uint64_t capacity_pages = sim->deviceCapacityPages();
    sim.reset();
    engine.reset();
    pt.measured.stop();

    const std::string where = std::string("uvm_oversub/") +
                              kMigrationLabel + ": ";
    if (!pt.error.empty())
        out.fail(where + "unstructured error: " + pt.error);
    else if (fast + slow != ceilDiv(total, kPage))
        out.fail(where + "engine Fast + Slow != allocated pages");
    else if (fast != pt.resident)
        out.fail(where + "engine Fast != device-resident pages");
    else if (pt.toDevice - pt.toHost != pt.resident ||
             pt.resident > capacity_pages)
        out.fail(where + "residency not conserved");
    else if (pt.promotions == 0 || pt.demotions == 0)
        out.fail(where + "HotCold migration made no moves");
    return pt;
}

void
checkGrid(std::size_t ki, std::size_t pi, const Point &pt,
          PassResult &out)
{
    const std::string where =
        std::string("uvm_oversub/") + kLabels[ki][pi] + ": ";
    if (!pt.error.empty())
        out.fail(where + "unstructured error: " + pt.error);
    else if (pt.toDevice - pt.toHost != pt.resident ||
             pt.resident > kCapacity / kPage)
        out.fail(where + "residency not conserved");
    else if (pt.uniquePages > kCapacity / kPage && pt.evictions == 0)
        out.fail(where + "GPU set exceeds device memory, no eviction");
}

/** One EvictionPolicy call of a replayed access stream. */
struct PolicyOp
{
    enum Kind : std::uint8_t { Insert, Touch, Remove, Evict };
    std::uint32_t page;
    std::uint32_t tick;  //!< insert/touch only
    Kind kind;
};

struct Replay
{
    std::uint64_t evictions = 0;
    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t ops = 0;
    std::uint64_t victimMismatches = 0;
    double seconds = 0.0;  //!< timed policy calls only
};

/**
 * Replay a recorded access stream through a standalone policy with
 * UvmSimulator's residency rules, then time the resulting policy call
 * sequence alone on a fresh instance of the same policy and seed.
 */
Replay
replayPolicy(EvictionKind kind, std::uint64_t seed, std::uint64_t space,
             std::uint64_t total_pages, const std::vector<Call> &calls)
{
    Replay r;
    const std::uint64_t cap = kCapacity / kPage;
    auto pol = policy::makeEviction(kind, seed);
    std::vector<std::uint8_t> resident(total_pages, 0);
    std::vector<PolicyOp> ops;
    std::uint64_t held = 0;
    std::uint32_t tick = 0;
    for (const Call &c : calls) {
        ++tick;
        for (std::uint64_t p = c.first; p < c.last; ++p) {
            const auto page = static_cast<std::uint32_t>(p);
            if (!c.gpu) {
                if (resident[p]) {
                    resident[p] = 0;
                    pol->remove({space, p});
                    ops.push_back({page, 0, PolicyOp::Remove});
                    --held;
                    ++r.toHost;
                }
            } else if (resident[p]) {
                pol->touch({space, p}, tick);
                ops.push_back({page, tick, PolicyOp::Touch});
            } else {
                resident[p] = 1;
                while (held >= cap) {
                    policy::PageKey v = pol->evict();
                    ops.push_back({static_cast<std::uint32_t>(v.page), 0,
                                   PolicyOp::Evict});
                    resident[v.page] = 0;
                    --held;
                    ++r.toHost;
                    ++r.evictions;
                }
                pol->insert({space, p}, tick);
                ops.push_back({page, tick, PolicyOp::Insert});
                ++held;
                ++r.toDevice;
            }
        }
    }

    auto timed = policy::makeEviction(kind, seed);
    const double t0 = wallNow();
    for (const PolicyOp &op : ops) {
        switch (op.kind) {
          case PolicyOp::Insert:
            timed->insert({space, op.page}, op.tick);
            break;
          case PolicyOp::Touch:
            timed->touch({space, op.page}, op.tick);
            break;
          case PolicyOp::Remove:
            timed->remove({space, op.page});
            break;
          case PolicyOp::Evict:
            if (timed->evict().page != op.page)
                ++r.victimMismatches;
            break;
        }
    }
    r.seconds = wallNow() - t0;
    r.ops = ops.size();
    return r;
}

class UvmRunner : public Runner
{
  public:
    explicit UvmRunner(const Options &options) : opt(options) {}

    unsigned workers() const override { return 1; }

    std::uint64_t
    pointSeed(std::size_t t) const
    {
        return exec::taskSeed(opt.seed, t);
    }

    PassResult
    pass() override
    {
        PassResult out;
        Digest digest;
        std::uint64_t evictions = 0, to_device = 0, to_host = 0,
                      refaults = 0;
        std::vector<Point> points;
        for (std::size_t t = 0; t < kGridPoints; ++t) {
            const std::size_t ki = t / kNumPatterns, pi = t % kNumPatterns;
            points.push_back(
                runGridPoint(ki, pi, pointSeed(t), nextUnit++, false));
            checkGrid(ki, pi, points.back(), out);
        }
        points.push_back(runMigrationPoint(pointSeed(kGridPoints),
                                           nextUnit++, opt.breakInvariant,
                                           out));
        for (const Point &pt : points) {
            ++out.ops;
            pt.addTo(digest);
            out.setupS += pt.setupS;
            out.wallS += pt.measured.wall;
            out.cpuS += pt.measured.cpu;
            out.requests += static_cast<double>(pt.calls);
            out.pages += static_cast<double>(pt.pagesNamed);
            evictions += pt.evictions;
            to_device += pt.toDevice;
            to_host += pt.toHost;
            if (pt.toDevice > pt.uniquePages)
                refaults += pt.toDevice - pt.uniquePages;
        }
        Metrics &c = out.counts;
        c["uvm.evictions"] = static_cast<double>(evictions);
        c["uvm.pages_to_device"] = static_cast<double>(to_device);
        c["uvm.pages_to_host"] = static_cast<double>(to_host);
        c["uvm.refault_frac"] =
            to_device > 0 ? static_cast<double>(refaults) /
                                static_cast<double>(to_device)
                          : 0.0;
        c["policy.promotions"] =
            static_cast<double>(points.back().promotions);
        c["policy.demotions"] = static_cast<double>(points.back().demotions);
        out.digest = digest.value();
        return out;
    }

    Metrics
    layerMetrics(const std::vector<const Span *> &spans,
                 const PassResult &result) override
    {
        Metrics m = result.counts;
        const double gpu_ms = sumMs(spans, "uvm::UvmSimulator::gpuAccess");
        const double cpu_ms = sumMs(spans, "uvm::UvmSimulator::cpuAccess");
        m["uvm.gpu_access_ms"] = gpu_ms;
        m["uvm.cpu_access_ms"] = cpu_ms;
        m["uvm.migration_step_ms"] =
            sumMs(spans, "uvm::UvmSimulator::migrationStep");
        SampleStats calls;
        calls.add(durationsUs(spans, "uvm::UvmSimulator::gpuAccess"));
        m["uvm.gpu_access_calls"] = static_cast<double>(calls.count());
        m["uvm.gpu_access_us_p50"] =
            calls.count() != 0 ? calls.percentile(50.0) : 0.0;
        m["uvm.gpu_access_us_p90"] =
            calls.count() != 0 ? calls.percentile(90.0) : 0.0;
        const double moved =
            result.counts.at("uvm.pages_to_device") +
            result.counts.at("uvm.pages_to_host");
        m["uvm.host_ns_per_moved_page"] =
            moved > 0.0 ? (gpu_ms + cpu_ms) * 1e6 / moved : 0.0;
        m["uvm.setup_ms"] =
            sumMs(spans, "uvm::UvmSimulator::UvmSimulator") +
            sumMs(spans, "uvm::UvmSimulator::allocManaged");
        return m;
    }

    Attribution
    attribute(const Metrics &layers) override
    {
        // Verified policy traffic: rerun each grid point recording its
        // access calls, replay them through a standalone policy, and
        // demand UvmSimulator's exact counters back.
        Attribution a;
        double replay_s = 0.0;
        std::uint64_t total_ops = 0;
        for (std::size_t ki = 0; ki < kNumKinds; ++ki) {
            double kind_s = 0.0;
            std::uint64_t kind_ops = 0;
            for (std::size_t pi = 0; pi < kNumPatterns; ++pi) {
                const std::size_t t = ki * kNumPatterns + pi;
                Point pt = runGridPoint(ki, pi, pointSeed(t), nextUnit++,
                                        true);
                const std::uint64_t total_pages = ceilDiv(
                    static_cast<std::uint64_t>(
                        static_cast<double>(kCapacity) *
                        kPatterns[pi].pressure),
                    kPage);
                Replay r = replayPolicy(kKinds[ki], pointSeed(t), pt.handle,
                                        total_pages, pt.record);
                ++a.ops;
                if (!pt.error.empty() || r.evictions != pt.evictions ||
                    r.toDevice != pt.toDevice || r.toHost != pt.toHost ||
                    r.victimMismatches != 0) {
                    a.fail(std::string("uvm_oversub/") + kLabels[ki][pi] +
                           ": policy replay disagrees with UvmSimulator");
                }
                kind_s += r.seconds;
                kind_ops += r.ops;
            }
            a.metrics[std::string("policy.") +
                      policy::evictionKindName(kKinds[ki]) +
                      ".ns_per_op"] =
                kind_ops > 0 ? kind_s * 1e9 / static_cast<double>(kind_ops)
                             : 0.0;
            replay_s += kind_s;
            total_ops += kind_ops;
        }
        a.metrics["policy.ops"] = static_cast<double>(total_ops);
        const double access_ms = layers.at("uvm.gpu_access_ms") +
                                 layers.at("uvm.cpu_access_ms");
        a.metrics["policy.share"] =
            access_ms > 0.0 ? replay_s * 1e3 / access_ms : 0.0;
        // No System exists on this workload, so UPMTrace sees nothing.
        const std::uint64_t no_events[trace::kNumLayers] = {};
        addTraceEvents(a.metrics, no_events);
        return a;
    }

  private:
    Options opt;
    std::uint64_t nextUnit = 0;
};

} // namespace

std::unique_ptr<Runner>
makeUvmOversub(const Options &opt)
{
    return std::make_unique<UvmRunner>(opt);
}

} // namespace upmbench
