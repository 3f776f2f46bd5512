#include "vm/fault_handler.hh"

#include <cmath>

#include "common/log.hh"
#include "fabric/fabric.hh"
#include "inject/injector.hh"
#include "trace/tracer.hh"

namespace upm::vm {

FaultHandler::FaultHandler(const FaultCosts &costs, std::uint64_t seed,
                           const Hooks &hooks)
    : cost(costs), rng(seed), inj(hooks.inj), tr(hooks.tr)
{
}

SimTime
FaultHandler::lognormal(SimTime median, double sigma)
{
    // Box-Muller on two uniform draws.
    double u1 = rng.nextDouble();
    double u2 = rng.nextDouble();
    if (u1 < 1e-12)
        u1 = 1e-12;
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    return median * std::exp(sigma * z);
}

SimTime
FaultHandler::sampleColdLatency(FaultType type, unsigned hops)
{
    SimTime latency;
    switch (type) {
      case FaultType::Cpu:
        latency = lognormal(cost.cpuCold, cost.cpuSigma);
        break;
      case FaultType::GpuMinor:
        latency = lognormal(cost.gpuMinorCold, cost.gpuSigma);
        break;
      case FaultType::GpuMajor:
        latency = lognormal(cost.gpuMajorCold, cost.gpuSigma);
        break;
      default:
        panic("unknown fault type");
    }
    // A remote fault's allocation + PTE propagation crosses the xGMI
    // fabric; the cold path pays the full round trip, undiluted.
    if (fab != nullptr && hops > 0)
        latency += fab->remoteFaultCost(hops);
    if (tr != nullptr) {
        tr->emit(trace::EventKind::ColdFault,
                 static_cast<std::uint64_t>(type), 0, 0, 0, 0, latency);
    }
    return latency;
}

SimTime
FaultHandler::serviceTime(FaultType type, std::uint64_t pages,
                          unsigned cpu_cores, unsigned hops) const
{
    if (pages == 0)
        return 0.0;
    double n = static_cast<double>(pages);

    SimTime steady;
    double ramp;
    switch (type) {
      case FaultType::Cpu:
        steady = cost.cpuSteady;
        ramp = cost.cpuRamp;
        break;
      case FaultType::GpuMinor:
        steady = cost.gpuMinorSteady;
        ramp = cost.gpuMinorRamp;
        break;
      case FaultType::GpuMajor:
      default:
        steady = cost.gpuMajorSteady;
        ramp = cost.gpuMajorRamp;
        break;
    }

    // Batch ramp: per-page cost shrinks toward `steady` as the handler
    // pipeline warms and HMM walks batch up.
    SimTime per_page = steady * (1.0 + ramp / std::sqrt(n));

    if (type == FaultType::Cpu && cpu_cores > 1) {
        double speedup = static_cast<double>(cpu_cores) /
                         (1.0 + cost.cpuContentionAlpha *
                                    static_cast<double>(cpu_cores - 1));
        per_page /= speedup;
    }
    if (fab != nullptr && hops > 0) {
        // Steady-state remote faults pipeline their PTE propagation
        // over the fabric, so each page pays the link latency (not the
        // full round trip), plus one pipeline-entry round trip per
        // batch. hops == 0 leaves the local arithmetic untouched.
        per_page += fab->latencyForHops(hops, 0.5);
        return per_page * n + fab->remoteFaultCost(hops);
    }
    return per_page * n;
}

FaultService
FaultHandler::service(FaultType type, std::uint64_t pages,
                      unsigned cpu_cores, unsigned hops)
{
    FaultService result;
    SimTime base = serviceTime(type, pages, cpu_cores, hops);
    auto emit_service = [&](const FaultService &r) {
        ++serviceTally.calls;
        serviceTally.pages += pages;
        serviceTally.timeNs += r.time;
        if (tr != nullptr) {
            tr->emit(trace::EventKind::FaultService,
                     static_cast<std::uint64_t>(type), pages, r.retries,
                     r.replays, static_cast<std::uint64_t>(r.status),
                     r.time);
        }
        return r;
    };
    // The common case must stay bit-identical to serviceTime(): the
    // byte-identical-baselines guarantee rests on this early return.
    if (inj == nullptr) {
        result.time = base;
        return emit_service(result);
    }

    SimTime attempt = base;
    if (type != FaultType::Cpu) {
        // GPU faults ride the HMM worker + XNACK replay pipeline; CPU
        // faults resolve synchronously in the trap handler and only
        // share the frame-allocation site.
        unsigned storm = inj->xnackReplayStorm(pages);
        result.replays = storm;
        attempt += static_cast<SimTime>(storm) * base;
        attempt *= inj->hmmDelayFactor();

        while (inj->dropHmmCompletion()) {
            if (result.retries == cost.maxRetries) {
                result.status = Status::Timeout;
                result.time = attempt;
                return emit_service(result);
            }
            ++result.retries;
            attempt += cost.retryBackoff *
                       std::pow(cost.retryBackoffGrowth,
                                static_cast<double>(result.retries - 1));
            // The re-sent fault pays the service pipeline again.
            attempt += base;
        }
    }
    result.time = attempt;
    return emit_service(result);
}

double
FaultHandler::throughput(FaultType type, std::uint64_t pages,
                         unsigned cpu_cores, unsigned hops) const
{
    SimTime total = serviceTime(type, pages, cpu_cores, hops);
    if (total <= 0.0)
        return 0.0;
    return static_cast<double>(pages) / total * 1e9;  // pages per second
}

} // namespace upm::vm
