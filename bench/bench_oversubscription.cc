/**
 * @file
 * Oversubscription survival bench (paper Sections 2.1 and 7).
 *
 * UPM has one physical memory and *no overcommit*: when a working set
 * exceeds capacity, the paper's robustness finding is that allocation
 * fails with a clean ENOMEM-equivalent rather than thrashing. UVM on
 * a discrete GPU is the opposite trade: overcommit works, paid for in
 * LRU eviction and re-migration on every pass.
 *
 * This bench drives both sides of that contrast. Phase 1 sweeps every
 * Table 1 allocator configuration over working sets from 0.5x to 1.5x
 * of capacity, allocating in chunks through the status-returning API
 * (tryAllocate / StatusError at first touch) and verifying that every
 * failure is a structured hipErrorOutOfMemory, that the system keeps
 * serving after the failure, and -- via UPMSan's teardown leak scan --
 * that the failure paths strand no frames. Phase 2 runs the same
 * working sets through the uvm::UvmSimulator LRU model, which always
 * completes, with eviction counts and the slowdown of a re-walked
 * pass as the price.
 *
 * All sweep points run on the deterministic worker pool with one
 * System per point: results are byte-identical at any --workers.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/system.hh"
#include "uvm/uvm.hh"

using namespace upm;

namespace {

using AK = alloc::AllocatorKind;

/** One of the paper's seven allocator configurations. */
struct Config
{
    AK kind;
    bool xnack;
    /** Populated at allocation time (OOM from tryAllocate) rather
     *  than at first touch (StatusError from cpuFirstTouch). */
    bool upFront;
    const char *label;
};

constexpr Config kConfigs[] = {
    {AK::Malloc, true, false, "malloc+xnack"},
    {AK::MallocRegistered, false, true, "malloc+register"},
    {AK::HipMalloc, false, true, "hipMalloc"},
    {AK::HipHostMalloc, false, true, "hipHostMalloc"},
    {AK::HipMallocManaged, false, true, "managed"},
    {AK::HipMallocManaged, true, false, "managed+xnack"},
    {AK::ManagedStatic, false, true, "managedStatic"},
};
constexpr std::size_t kNumConfigs =
    sizeof(kConfigs) / sizeof(kConfigs[0]);

/** Outcome of one (config, fraction) UPM survival point. */
struct UpmPoint
{
    std::uint64_t requested = 0;
    std::uint64_t allocated = 0;  //!< bytes successfully backed
    bool sawOom = false;
    bool structuredOnly = true;   //!< every failure was a clean OOM
    bool recoveredAfter = false;  //!< post-OOM small alloc succeeded
    std::uint64_t frameLeaks = 0;
    std::uint64_t strandedFrames = 0;
    SimTime simTime = 0.0;
};

/** Outcome of one UVM oversubscription point. */
struct UvmPoint
{
    SimTime firstPass = 0.0;
    SimTime secondPass = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t migratedPages = 0;
};

UpmPoint
runUpmPoint(const Config &c, double fraction, std::uint64_t capacity)
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = capacity;
    cfg.audit.enabled = true;
    cfg.audit.warnOnViolation = false;
    core::System sys(cfg);
    auto &rt = sys.runtime();
    rt.setXnack(c.xnack);

    UpmPoint out;
    std::uint64_t total_frames = sys.frames().freeFrames();
    out.requested = static_cast<std::uint64_t>(
        static_cast<double>(capacity) * fraction);
    std::uint64_t chunk = capacity / 64;
    SimTime t0 = rt.now();

    std::vector<hip::DevPtr> live;
    for (std::uint64_t done = 0; done < out.requested; done += chunk) {
        std::uint64_t want = std::min(chunk, out.requested - done);
        hip::DevPtr p = 0;
        hip::hipError_t err = rt.tryAllocate(c.kind, want, p);
        if (err != hip::hipSuccess) {
            out.sawOom = true;
            if (err != hip::hipErrorOutOfMemory)
                out.structuredOnly = false;
            break;
        }
        live.push_back(p);
        if (!c.upFront) {
            // On-demand config: back the reservation by touching it.
            try {
                rt.cpuFirstTouch(p, want);
            } catch (const StatusError &e) {
                out.sawOom = true;
                if (e.code() != Status::OutOfMemory)
                    out.structuredOnly = false;
                break;
            } catch (...) {
                out.structuredOnly = false;
                break;
            }
        }
        out.allocated += want;
    }
    out.simTime = rt.now() - t0;

    // Survival: after a clean OOM the system must keep serving.
    if (out.sawOom) {
        hip::DevPtr q = 0;
        // A page is always reclaimable: drop one live chunk first.
        if (!live.empty()) {
            rt.freeChecked(live.back());
            live.pop_back();
        }
        out.recoveredAfter =
            rt.tryAllocate(c.kind, mem::kPageSize, q) ==
            hip::hipSuccess;
        if (out.recoveredAfter)
            rt.freeChecked(q);
    }

    for (hip::DevPtr p : live)
        rt.freeChecked(p);
    out.strandedFrames = total_frames - sys.frames().freeFrames();
    sys.finalizeAudit();
    out.frameLeaks =
        sys.auditor()->countOf(audit::ViolationKind::FrameLeak);
    return out;
}

UvmPoint
runUvmPoint(double fraction, std::uint64_t capacity,
            policy::EvictionKind eviction)
{
    // Discrete-GPU UVM with device memory equal to the APU capacity:
    // the same working set, with overcommit allowed. The victim
    // policy is the --policy flag's (default lru, the pre-policy
    // behaviour, byte-identical).
    uvm::UvmSimulator sim(capacity, eviction,
                          policy::PolicyConfig().seed);
    std::uint64_t working_set = static_cast<std::uint64_t>(
        static_cast<double>(capacity) * fraction);
    std::uint64_t h = sim.allocManaged(working_set);
    std::uint64_t window = capacity / 64;

    UvmPoint out;
    // Two windowed passes: the second re-faults whatever the LRU
    // evicted during the first, so oversubscribed sets degrade while
    // in-capacity sets run from residence.
    for (std::uint64_t off = 0; off < working_set; off += window) {
        out.firstPass += sim.gpuAccess(
            h, off, std::min(window, working_set - off));
    }
    for (std::uint64_t off = 0; off < working_set; off += window) {
        out.secondPass += sim.gpuAccess(
            h, off, std::min(window, working_set - off));
    }
    out.evictions = sim.evictions();
    out.migratedPages = sim.pagesMigratedToDevice();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::Options::parse(argc, argv, /*allow_audit=*/false,
                                     /*allow_inject=*/false,
                                     /*allow_oversubscribe=*/true,
                                     /*allow_sockets=*/false,
                                     /*allow_policy=*/true);
    setQuiet(true);
    bench::banner("Oversubscription survival (Sections 2.1/7)",
                  "UPM clean OOM vs UVM LRU-eviction degradation");

    const std::uint64_t capacity = opt.smoke ? 512 * MiB : 2 * GiB;
    const std::vector<double> fractions =
        opt.oversubscribe > 0.0
            ? std::vector<double>{opt.oversubscribe}
            : opt.smoke ? std::vector<double>{0.75, 1.25}
                        : std::vector<double>{0.50, 0.75, 0.90, 1.00,
                                              1.10, 1.25, 1.50};

    bench::JsonReporter json("oversubscription", opt.jsonPath);

    // One pool sweep: the UVM baseline, one task per fraction, then
    // the UPM survival matrix, one System per point.
    const std::size_t n_uvm = fractions.size();
    const std::size_t n_upm = kNumConfigs * fractions.size();
    std::vector<UvmPoint> uvm(n_uvm);
    std::vector<UpmPoint> upm(n_upm);
    exec::globalPool().parallelFor(n_uvm + n_upm, [&](std::size_t t) {
        if (t < n_uvm) {
            uvm[t] = runUvmPoint(fractions[t], capacity, opt.policyKind);
            return;
        }
        t -= n_uvm;
        upm[t] = runUpmPoint(kConfigs[t / fractions.size()],
                             fractions[t % fractions.size()], capacity);
    });
    const std::string uvm_label =
        std::string("uvm-") + policy::evictionKindName(opt.policyKind);

    int failures = 0;
    std::printf("UPM (capacity %s): structured OOM, no overcommit\n",
                bench::fmtBytes(capacity).c_str());
    std::printf("%-16s %9s %12s %12s %6s %10s %7s\n", "config",
                "fraction", "requested", "backed", "oom",
                "recovered", "leaks");
    for (std::size_t ci = 0; ci < kNumConfigs; ++ci) {
        for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
            const UpmPoint &p = upm[ci * fractions.size() + fi];
            const Config &c = kConfigs[ci];
            bool bad = p.frameLeaks > 0 || p.strandedFrames > 0 ||
                       !p.structuredOnly ||
                       (p.sawOom && !p.recoveredAfter);
            if (bad)
                ++failures;
            std::printf("%-16s %8.2fx %12s %12s %6s %10s %7llu%s\n",
                        c.label, fractions[fi],
                        bench::fmtBytes(p.requested).c_str(),
                        bench::fmtBytes(p.allocated).c_str(),
                        p.sawOom ? "OOM" : "-",
                        p.sawOom ? (p.recoveredAfter ? "yes" : "NO")
                                 : "-",
                        static_cast<unsigned long long>(p.frameLeaks),
                        bad ? "  <-- FAIL" : "");
            json.point()
                .param("config", std::string(c.label))
                .param("fraction", strprintf("%.2f", fractions[fi]))
                .param("capacity_bytes", capacity)
                .metric("requested_bytes", p.requested)
                .metric("backed_bytes", p.allocated)
                .metric("oom",
                        static_cast<std::uint64_t>(p.sawOom ? 1 : 0))
                .metric("structured_only",
                        static_cast<std::uint64_t>(
                            p.structuredOnly ? 1 : 0))
                .metric("recovered_after_oom",
                        static_cast<std::uint64_t>(
                            p.sawOom && p.recoveredAfter ? 1 : 0))
                .metric("frame_leaks", p.frameLeaks)
                .metric("stranded_frames", p.strandedFrames)
                .metric("sim_time_ns", p.simTime);
        }
    }

    std::printf("\nUVM baseline (device memory %s): overcommit "
                "completes, but pays in re-migration\n",
                bench::fmtBytes(capacity).c_str());
    std::printf("%-16s %9s %12s %12s %10s %12s\n", "config",
                "fraction", "pass 1", "pass 2", "evictions",
                "pages moved");
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
        const UvmPoint &p = uvm[fi];
        std::printf("%-16s %8.2fx %12s %12s %10llu %12llu\n",
                    uvm_label.c_str(), fractions[fi],
                    bench::fmtTime(p.firstPass).c_str(),
                    bench::fmtTime(p.secondPass).c_str(),
                    static_cast<unsigned long long>(p.evictions),
                    static_cast<unsigned long long>(p.migratedPages));
        json.point()
            .param("config", uvm_label)
            .param("fraction", strprintf("%.2f", fractions[fi]))
            .param("capacity_bytes", capacity)
            .metric("first_pass_ns", p.firstPass)
            .metric("second_pass_ns", p.secondPass)
            .metric("evictions", p.evictions)
            .metric("migrated_pages", p.migratedPages);
    }

    // The paper's contrast, stated as a check: oversubscribed UPM
    // points must OOM cleanly; oversubscribed UVM points must survive
    // with evictions.
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
        if (fractions[fi] <= 1.0)
            continue;
        for (std::size_t ci = 0; ci < kNumConfigs; ++ci) {
            if (!upm[ci * fractions.size() + fi].sawOom) {
                std::printf("FAIL: %s at %.2fx did not hit OOM\n",
                            kConfigs[ci].label, fractions[fi]);
                ++failures;
            }
        }
        if (uvm[fi].evictions == 0) {
            std::printf("FAIL: UVM at %.2fx saw no evictions\n",
                        fractions[fi]);
            ++failures;
        }
    }

    json.write();
    {
        // Traced capture: fill a small system to OOM so the failed
        // AllocCalls and the recovery free/alloc land on the bus.
        core::SystemConfig tcfg;
        tcfg.geometry.capacityBytes = 512 * MiB;
        bench::captureTrace(opt, tcfg, [&](core::System &sys) {
            auto &rt = sys.runtime();
            std::vector<hip::DevPtr> live;
            hip::DevPtr p = 0;
            while (rt.tryAllocate(AK::HipMalloc, 64 * MiB, p) ==
                   hip::hipSuccess)
                live.push_back(p);
            if (!live.empty()) {
                rt.freeChecked(live.back());
                live.pop_back();
            }
            if (rt.tryAllocate(AK::HipMalloc, mem::kPageSize, p) ==
                hip::hipSuccess)
                live.push_back(p);
            for (hip::DevPtr q : live)
                rt.freeChecked(q);
        });
    }
    if (failures > 0) {
        std::printf("\n%d survival check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall survival checks passed\n");
    return 0;
}
