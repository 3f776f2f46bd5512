#include "core/fault_probe.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/scope_guard.hh"
#include "exec/task_pool.hh"
#include "trace/tracer.hh"

namespace upm::core {

const char *
faultScenarioName(FaultScenario scenario)
{
    switch (scenario) {
      case FaultScenario::GpuMajor: return "GPU Major";
      case FaultScenario::GpuMinor: return "GPU Minor";
      case FaultScenario::Cpu1: return "1CPU";
      case FaultScenario::Cpu12: return "12CPU";
    }
    return "<unknown>";
}

namespace {

vm::FaultType
faultTypeOf(FaultScenario scenario)
{
    switch (scenario) {
      case FaultScenario::GpuMajor: return vm::FaultType::GpuMajor;
      case FaultScenario::GpuMinor: return vm::FaultType::GpuMinor;
      case FaultScenario::Cpu1:
      case FaultScenario::Cpu12:
      default: return vm::FaultType::Cpu;
    }
}

unsigned
coresOf(FaultScenario scenario)
{
    return scenario == FaultScenario::Cpu12 ? 12 : 1;
}

} // namespace

void
FaultProbe::functionalFaults(FaultScenario scenario, std::uint64_t pages)
{
    auto &as = sys.addressSpace();
    bool saved_xnack = as.xnackEnabled();
    ScopeExit restore_xnack([&as, saved_xnack] {
        as.setXnack(saved_xnack);
    });
    as.setXnack(true);

    vm::VmaPolicy policy;  // mmap-fresh anonymous memory
    policy.onDemand = true;
    policy.placement = vm::Placement::Scattered;
    auto mapped =
        as.tryMmapAnon(pages * mem::kPageSize, policy, "fault_probe");
    if (!mapped) {
        fatal("fault probe: mmap of %llu page(s) failed: %s",
              static_cast<unsigned long long>(pages),
              statusName(mapped.status));
    }
    vm::Vpn first = vm::vpnOf(mapped.base);

    auto cpu_faults = [&] {
        auto result = as.tryResolveCpuFaultRange(first, first + pages);
        if (!result) {
            fatal("fault probe: CPU fault on %llu page(s) failed: %s",
                  static_cast<unsigned long long>(pages),
                  statusName(result.status));
        }
    };
    auto gpu_faults = [&] {
        auto kind = as.resolveGpuFault(first, pages);
        if (kind == vm::GpuFaultKind::Violation ||
            kind == vm::GpuFaultKind::OutOfMemory) {
            fatal("fault probe: GPU fault on %llu page(s) failed: %s",
                  static_cast<unsigned long long>(pages),
                  statusName(kind == vm::GpuFaultKind::OutOfMemory
                                 ? Status::OutOfMemory
                                 : Status::AccessFault));
        }
    };
    switch (scenario) {
      case FaultScenario::GpuMajor:
        gpu_faults();
        break;
      case FaultScenario::GpuMinor:
        cpu_faults();
        gpu_faults();
        break;
      case FaultScenario::Cpu1:
      case FaultScenario::Cpu12:
        cpu_faults();
        break;
    }
    as.munmapChecked(mapped.base);
}

SampleStats
FaultProbe::latencyDistribution(FaultScenario scenario)
{
    vm::FaultType type = faultTypeOf(scenario);
    const unsigned iters = cfg.timedIterations;
    const unsigned chunk = std::max(1u, cfg.iterationsPerTask);
    const std::size_t tasks = (iters + chunk - 1) / chunk;
    const SystemConfig &config = sys.config();

    // Iteration i's sample depends only on taskSeed(rootSeed, i); the
    // fixed chunking keeps task boundaries independent of the worker
    // count, so the distribution is identical at 1 or N workers.
    std::vector<std::vector<double>> parts(tasks);
    exec::globalPool().parallelFor(tasks, [&](std::size_t t) {
        System local(config);
        trace::TaskTraceScope task_scope(local.tracer(), t,
                                         exec::taskSeed(cfg.rootSeed, t));
        FaultProbe probe(local, cfg);
        auto &handler = local.faultHandler();
        unsigned lo = static_cast<unsigned>(t) * chunk;
        unsigned hi = std::min(iters, lo + chunk);
        parts[t].reserve(hi - lo);
        for (unsigned i = lo; i < hi; ++i) {
            // One page, resolved through the real VM path, priced cold.
            probe.functionalFaults(scenario, 1);
            handler.reseed(exec::taskSeed(cfg.rootSeed, i));
            parts[t].push_back(handler.sampleColdLatency(type));
        }
    });

    SampleStats stats;
    for (const auto &part : parts)
        stats.add(part);
    return stats;
}

std::vector<double>
FaultProbe::throughputSweep(FaultScenario scenario,
                            const std::vector<std::uint64_t> &pages)
{
    const SystemConfig &config = sys.config();
    return exec::globalPool().parallelMap<double>(
        pages.size(), [&](std::size_t i) {
            System local(config);
            trace::TaskTraceScope task_scope(
                local.tracer(), i, exec::taskSeed(cfg.rootSeed, i));
            FaultProbe probe(local, cfg);
            return probe.throughput(scenario, pages[i]);
        });
}

double
FaultProbe::throughput(FaultScenario scenario, std::uint64_t pages)
{
    if (pages == 0)
        fatal("fault throughput of zero pages");
    std::uint64_t functional =
        std::min<std::uint64_t>(pages, cfg.functionalPageCap);
    functionalFaults(scenario, functional);
    return sys.faultHandler().throughput(faultTypeOf(scenario), pages,
                                         coresOf(scenario));
}

} // namespace upm::core
