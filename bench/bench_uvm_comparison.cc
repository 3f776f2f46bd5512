/**
 * @file
 * UVM-vs-UPM motivation study (paper Sections 1 and 2.1; not a figure
 * of the evaluation, but the baseline the paper argues against).
 *
 * Runs an iterative CPU-update / GPU-compute loop in four setups:
 *   1. discrete GPU, explicit copies (the classic high-performance
 *      model);
 *   2. discrete GPU, UVM managed memory (fault-driven migration --
 *      the paper cites 2-3x, up to 14x, degradation vs explicit);
 *   3. MI300A UPM, unified model (this repo's subject);
 * and demonstrates the one capability UVM keeps over UPM: device
 * memory overcommit (UVM thrashes but completes; UPM runs out of
 * physical memory).
 *
 * --json writes the explicit / UVM / UPM times per update fraction and
 * the overcommit run's UVM time and eviction count; CI compares them
 * with bench/baselines/uvm_comparison.json.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/system.hh"
#include "uvm/uvm.hh"

using namespace upm;

namespace {

constexpr std::uint64_t kArray = 256 * MiB;
constexpr unsigned kIters = 10;

/** Discrete-GPU explicit model: copy updated range, run kernel. */
SimTime
discreteExplicit(double update_fraction)
{
    uvm::UvmCosts costs;
    SimTime t = 0.0;
    std::uint64_t updated =
        static_cast<std::uint64_t>(kArray * update_fraction);
    for (unsigned i = 0; i < kIters; ++i) {
        t += updated / costs.hostBandwidth;       // CPU writes
        t += updated / costs.linkBandwidth;       // explicit H2D copy
        t += kArray / costs.deviceBandwidth;      // kernel
    }
    return t;
}

/** Discrete-GPU UVM: the same loop through fault-driven migration. */
SimTime
discreteUvm(double update_fraction, std::uint64_t device_bytes,
            uvm::UvmSimulator *out_sim = nullptr)
{
    uvm::UvmSimulator sim(device_bytes);
    std::uint64_t h = sim.allocManaged(kArray);
    std::uint64_t updated =
        static_cast<std::uint64_t>(kArray * update_fraction);
    SimTime t = 0.0;
    for (unsigned i = 0; i < kIters; ++i) {
        t += sim.cpuAccess(h, 0, updated);
        t += sim.gpuAccess(h, 0, kArray);
    }
    if (out_sim != nullptr)
        *out_sim = std::move(sim);
    return t;
}

/** MI300A UPM: one unified allocation, no migration at all. */
SimTime
upmUnified(double update_fraction)
{
    core::System sys;
    auto &rt = sys.runtime();
    hip::DevPtr u = rt.hipMalloc(kArray);
    std::uint64_t updated =
        static_cast<std::uint64_t>(kArray * update_fraction);
    SimTime start = rt.now();
    for (unsigned i = 0; i < kIters; ++i) {
        rt.cpuStream(u, updated, 24);
        hip::KernelDesc k;
        k.buffers.push_back({u, kArray, kArray});
        rt.launchKernel(k, nullptr);
        rt.deviceSynchronize();
    }
    return rt.now() - start;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::Options::parse(argc, argv);
    setQuiet(true);
    bench::banner("Sections 1/2.1 (motivation)",
                  "UVM (discrete) vs explicit (discrete) vs UPM");
    bench::JsonReporter report("uvm_comparison", opt.jsonPath);

    std::printf("%-22s %12s %12s %12s %10s\n", "CPU update/iter",
                "explicit", "UVM", "UPM", "UVM/expl");
    for (double frac : {1.0, 0.1}) {
        SimTime e = discreteExplicit(frac);
        SimTime v = discreteUvm(frac, 8 * GiB);
        SimTime u = upmUnified(frac);
        report.point()
            .param("sweep", std::string("update"))
            .param("update_pct", static_cast<std::uint64_t>(frac * 100))
            .metric("explicit_ns", e)
            .metric("uvm_ns", v)
            .metric("upm_ns", u);
        std::printf("%-22s %10.1fms %10.1fms %10.1fms %9.1fx\n",
                    frac == 1.0 ? "full array" : "10% of array",
                    e / 1e6, v / 1e6, u / 1e6, v / e);
    }

    std::printf("\nOvercommit (working set 1.5x device memory):\n");
    {
        // UVM: works, but every pass re-migrates evicted pages.
        uvm::UvmSimulator sim(kArray * 2 / 3);
        std::uint64_t h = sim.allocManaged(kArray);
        SimTime t = 0.0;
        for (unsigned i = 0; i < 4; ++i)
            t += sim.gpuAccess(h, 0, kArray);
        report.point()
            .param("sweep", std::string("overcommit"))
            .param("working_set_pct", static_cast<std::uint64_t>(150))
            .metric("uvm_ns", t)
            .metric("evictions", sim.evictions());
        std::printf("  UVM: completes in %.1f ms with %llu evictions "
                    "(thrashing: every pass refaults)\n",
                    t / 1e6,
                    static_cast<unsigned long long>(sim.evictions()));
    }
    {
        // UPM: one physical memory; exceeding it is fatal.
        core::System sys;
        try {
            sys.runtime().hipMalloc(
                sys.meminfo().totalBytes() + 1 * GiB);
            std::printf("  UPM: unexpectedly succeeded\n");
        } catch (const SimError &) {
            std::printf("  UPM: out of physical memory (no overcommit "
                        "-- the paper's Section 2.1 caveat)\n");
        }
    }
    report.write();
    bench::captureTrace(opt, {}, [](core::System &sys) {
        auto &rt = sys.runtime();
        hip::DevPtr u = rt.hipMalloc(16 * MiB);
        rt.cpuStream(u, 16 * MiB, 24);
        hip::KernelDesc k;
        k.name = "uvm_compare";
        k.buffers.push_back({u, 16 * MiB, 16 * MiB});
        rt.launchKernel(k, nullptr);
        rt.deviceSynchronize();
        rt.freeChecked(u);
    });
    return 0;
}
