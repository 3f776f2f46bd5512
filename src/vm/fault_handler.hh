/**
 * @file
 * Page-fault timing model.
 *
 * Functional fault resolution lives in AddressSpace; this class prices
 * it. The model separates *cold* single-fault latency (what the
 * paper's Fig. 8 latency benchmark measures: one isolated fault,
 * including trap entry, VMA walk, allocation and -- for GPU faults --
 * the interrupt + HMM + PTE-propagation + XNACK-replay round trip)
 * from *steady-state* per-page service time (what the throughput
 * benchmark in Fig. 7 measures once the handler pipeline is warm and
 * faults batch). Throughput additionally ramps with batch size as the
 * HMM walks amortize, and multi-core CPU faulting contends on
 * mmap_lock-style serialization.
 */

#ifndef UPM_VM_FAULT_HANDLER_HH
#define UPM_VM_FAULT_HANDLER_HH

#include <cstdint>

#include "common/hooks.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/units.hh"

namespace upm::fabric {
class Fabric;
}

namespace upm::vm {

/** Calibrated constants; see core/calibration.hh for provenance. */
struct FaultCosts
{
    // Cold single-fault medians (ns). Paper Fig. 8: CPU 9 us mean,
    // GPU minor 16 us, GPU major 18 us.
    SimTime cpuCold = 9000.0;
    SimTime gpuMinorCold = 16000.0;
    SimTime gpuMajorCold = 18000.0;

    // Lognormal spread: sigma chosen so the 95th percentile / median
    // ratios match the paper's tails (11/9, 20/16, 22/18).
    double cpuSigma = 0.120;
    double gpuSigma = 0.135;

    // Steady-state per-page service times (ns). Plateaus in Fig. 7:
    // 1 CPU core 872 K pages/s, GPU major 1.1 M/s, GPU minor 9.0 M/s.
    SimTime cpuSteady = 1147.0;
    SimTime gpuMajorSteady = 909.0;
    SimTime gpuMinorSteady = 111.0;

    // Batch-ramp constants: effective per-page time is
    // steady * (1 + ramp / sqrt(pages)), making throughput grow with
    // the number of concurrently faulted pages as the paper observes.
    double cpuRamp = 7.0;
    double gpuMajorRamp = 20.0;
    double gpuMinorRamp = 140.0;

    /** mmap_lock-style contention factor for multi-core CPU faulting:
     *  aggregate rate = cores * rate1 / (1 + alpha * (cores - 1)). */
    double cpuContentionAlpha = 0.166;

    // Bounded recovery from lost HMM fault-worker completions (only
    // reachable under injection): attempts beyond maxRetries report
    // Status::Timeout instead of hanging, the way amdgpu's fence
    // timeout turns a wedged fault into a reported GPU hang.
    unsigned maxRetries = 3;
    SimTime retryBackoff = 20000.0;
    double retryBackoffGrowth = 2.0;
};

/** Flavours of fault the model prices. */
enum class FaultType : std::uint8_t { Cpu, GpuMinor, GpuMajor };

/**
 * Running totals over every service() call, accumulated in call order
 * (the replay backend reproduces timeNs byte-exactly by folding
 * FaultService trace events in sequence order).
 */
struct ServiceTally
{
    std::uint64_t calls = 0;
    std::uint64_t pages = 0;
    SimTime timeNs = 0.0;
};

/** Outcome of a full fault-service attempt (see service()). */
struct FaultService
{
    Status status = Status::Success;
    /** Total simulated time spent, including retries and backoff. */
    SimTime time = 0.0;
    /** Completion-drop retries performed (injection only). */
    unsigned retries = 0;
    /** Extra XNACK replay rounds suffered (injection only). */
    unsigned replays = 0;

    explicit operator bool() const { return status == Status::Success; }
};

/**
 * Prices faults; owns a deterministic RNG for latency jitter so the
 * latency-distribution bench is reproducible.
 */
class FaultHandler
{
  public:
    /** Jitter seed of a handler built without an explicit one. */
    static constexpr std::uint64_t kDefaultSeed = 0xfa17u;

    explicit FaultHandler(const FaultCosts &costs = {},
                          std::uint64_t seed = kDefaultSeed,
                          const Hooks &hooks = {});

    /**
     * Sample a cold, isolated single-fault latency (lognormal).
     * @param hops xGMI hops to the faulted page's owning socket; a
     *        remote fault pays the full cross-fabric round trip on top
     *        (0, the default, is exactly the local model).
     */
    SimTime sampleColdLatency(FaultType type, unsigned hops = 0);

    /**
     * Reset the jitter RNG to @p seed. The parallel fault sweep seeds
     * each task with `exec::taskSeed(root, index)` so a sample depends
     * only on its task index, never on worker count or scheduling.
     */
    void reseed(std::uint64_t seed) { rng = SplitMix64(seed); }

    /**
     * Total service time for @p pages concurrent faults of @p type.
     * @param cpu_cores number of faulting cores (CPU type only).
     * @param hops xGMI hops to the owning socket: remote faults pay a
     *        per-batch pipeline-entry cost plus a per-page propagation
     *        adder from the fabric model. With hops 0 or no fabric
     *        attached the arithmetic is exactly the local model.
     */
    SimTime serviceTime(FaultType type, std::uint64_t pages,
                        unsigned cpu_cores = 1, unsigned hops = 0) const;

    /**
     * Full fault service with failure semantics: serviceTime() plus
     * whatever UPMInject throws at the pipeline -- delayed HMM
     * completions (time multiplier), XNACK replay storms (extra
     * per-round service), and dropped completions (bounded
     * retry-with-backoff; exhausting FaultCosts::maxRetries reports
     * Status::Timeout). With no injector attached the result is
     * exactly { Success, serviceTime(...) }, bit for bit.
     */
    FaultService service(FaultType type, std::uint64_t pages,
                         unsigned cpu_cores = 1, unsigned hops = 0);

    /** Attach the xGMI link model; null (the default) keeps every
     *  fault local and the timing byte-identical to the 1-socket
     *  model. */
    void setFabric(const fabric::Fabric *fabric_model)
    {
        fab = fabric_model;
    }

    /** Convenience: pages/s throughput for a scenario. */
    double throughput(FaultType type, std::uint64_t pages,
                      unsigned cpu_cores = 1, unsigned hops = 0) const;

    const FaultCosts &costs() const { return cost; }

    /** Totals over every service() call since construction / reset. */
    const ServiceTally &tally() const { return serviceTally; }
    void resetTally() { serviceTally = {}; }

  private:
    SimTime lognormal(SimTime median, double sigma);

    FaultCosts cost;
    SplitMix64 rng;
    ServiceTally serviceTally;
    /** xGMI model; null on a single-socket System (no remote cost). */
    const fabric::Fabric *fab = nullptr;
    /** UPMInject hook; null (no overhead, no perturbation) unless
     *  injection is on. */
    inject::Injector *inj = nullptr;
    /** UPMTrace hook; null (no overhead) unless tracing is on. Emits
     *  ColdFault per sampled latency and FaultService per service()
     *  call (retry/replay chain included). */
    trace::Tracer *tr = nullptr;
};

} // namespace upm::vm

#endif // UPM_VM_FAULT_HANDLER_HH
