/**
 * @file
 * Hook wiring: every observer reaches every space it should.
 *
 * core::System builds its observers (UPMSan, UPMTrace, UPMInject, the
 * event calendar, UPMPolicy) first and hands one upm::Hooks bundle to
 * each layer's constructor; core::Process builds its layers from the
 * same bundle with its own calendar and policy space. The table below
 * runs a small allocate / kernel / free in one space -- the primary
 * space or one createProcess() process -- and checks that each
 * observer saw it, per layer where the observer tells layers apart
 * (the policy rows pick workloads only one layer reports). A hook
 * dropped from either construction path fails its cell.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/process.hh"
#include "core/system.hh"
#include "hip/kernel.hh"

namespace upm {
namespace {

using Count = std::function<std::uint64_t(core::System &,
                                          sched::EventCalendar &)>;
/** A small workload in one space; @return the buffers to free. */
using Act = std::vector<hip::DevPtr> (*)(hip::Runtime &);

void
launchOver(hip::Runtime &rt, hip::DevPtr buf)
{
    hip::KernelDesc k;
    k.buffers.push_back({buf, 1 * MiB, 1 * MiB});
    rt.launchKernel(k, nullptr);
    rt.deviceSynchronize();
}

/** GPU faults on host memory, a kernel, and an SDMA copy. */
std::vector<hip::DevPtr>
faultCopyKernel(hip::Runtime &rt)
{
    rt.setXnack(true);
    hip::DevPtr host = rt.hostMalloc(1 * MiB);
    launchOver(rt, host);
    hip::DevPtr dev = rt.hipMalloc(1 * MiB);
    (void)rt.hipMemcpy(dev, host, 1 * MiB);
    return {host, dev};
}

/** CPU first-touch faults only: the address space feeds the engine. */
std::vector<hip::DevPtr>
cpuTouch(hip::Runtime &rt)
{
    hip::DevPtr host = rt.hostMalloc(1 * MiB);
    rt.cpuFirstTouch(host, 1 * MiB);
    return {host};
}

/** A kernel over pre-populated memory: no faults, so only the runtime
 *  feeds the engine. */
std::vector<hip::DevPtr>
kernelNoFaults(hip::Runtime &rt)
{
    hip::DevPtr dev = rt.hipMalloc(1 * MiB);
    launchOver(rt, dev);
    return {dev};
}

/** One observer as seen from one layer, under one workload. */
struct Probe
{
    const char *name;
    Count count;
    Act act = faultCopyKernel;
};

std::uint64_t
eventsOf(core::System &sys, trace::EventKind kind)
{
    std::uint64_t n = 0;
    for (const auto &ev : sys.tracer()->events())
        n += ev.kind == kind;
    return n;
}

Count
traced(trace::EventKind kind)
{
    return [kind](core::System &sys, sched::EventCalendar &) {
        return eventsOf(sys, kind);
    };
}

Count
decided(inject::Site site)
{
    return [site](core::System &sys, sched::EventCalendar &) {
        return sys.injector()->decisionsAt(site);
    };
}

std::uint64_t
policyAccesses(core::System &sys, sched::EventCalendar &)
{
    return sys.policyEngine()->stats().accesses;
}

const Probe kProbes[] = {
    // hip::Runtime feeds the race detector.
    {"aud_runtime",
     [](core::System &sys, sched::EventCalendar &) {
         return static_cast<std::uint64_t>(
             sys.auditor()->races().trackedPages());
     }},
    {"tr_vm", traced(trace::EventKind::VmaMap)},
    {"tr_fault", traced(trace::EventKind::FaultService)},
    {"tr_hip", traced(trace::EventKind::KernelLaunch)},
    {"tr_perf", traced(trace::EventKind::IcQuery)},
    {"tr_mem", traced(trace::EventKind::FrameAlloc)},
    {"inj_fault", decided(inject::Site::HmmDrop)},
    {"inj_hip", decided(inject::Site::HbmDegrade)},
    {"inj_copy", decided(inject::Site::SdmaStall)},
    {"inj_mem", decided(inject::Site::FrameAlloc)},
    {"cal",
     [](core::System &, sched::EventCalendar &cal) {
         std::uint64_t n = cal.pending();
         for (unsigned e = 0; e < sched::kNumEngines; ++e)
             n += cal.stats(static_cast<sched::EngineId>(e)).executed;
         return n;
     }},
    {"pol_vm", policyAccesses, cpuTouch},
    {"pol_runtime", policyAccesses, kernelNoFaults},
};

core::SystemConfig
observedConfig()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 256 * MiB;
    cfg.numSockets = 2;
    cfg.audit.enabled = true;
    cfg.trace.enabled = true;
    cfg.inject.enabled = true;  // every probability 0: decisions only
    cfg.policy.enabled = true;
    return cfg;
}

class HookWiring
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>>
{
};

TEST_P(HookWiring, ObserverSeesTheSpace)
{
    const auto [probe_index, in_process] = GetParam();
    const Probe &probe = kProbes[probe_index];
    core::System sys(observedConfig());
    std::unique_ptr<core::Process> proc;
    if (in_process)
        proc = sys.createProcess();
    hip::Runtime &rt = in_process ? proc->runtime() : sys.runtime();
    sched::EventCalendar &cal =
        in_process ? proc->eventCalendar() : sys.eventCalendar();

    const std::uint64_t before = probe.count(sys, cal);
    std::vector<hip::DevPtr> bufs = probe.act(rt);
    EXPECT_GT(probe.count(sys, cal), before) << probe.name;
    for (hip::DevPtr buf : bufs)
        EXPECT_EQ(rt.hipFree(buf), hip::hipSuccess);
    proc.reset();
    sys.finalizeAudit();
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();
}

INSTANTIATE_TEST_SUITE_P(
    Table, HookWiring,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kProbes)),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(kProbes[std::get<0>(info.param)].name) +
               (std::get<1>(info.param) ? "_process" : "_primary");
    });

} // namespace
} // namespace upm
