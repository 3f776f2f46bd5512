/**
 * @file
 * The simhip runtime: a HIP-shaped API over the simulated APU.
 *
 * Mirrors the subset of HIP the paper's benchmarks and workloads use:
 * the allocator family, hipMemcpy, kernel launch on streams, events,
 * synchronization, hipMemGetInfo (with its real-world blind spot: it
 * only accounts hipMalloc), XNACK mode, and SDMA toggling. Kernel
 * bodies execute functionally against the host backing store at
 * enqueue time; all timing is simulated.
 */

#ifndef UPM_HIP_RUNTIME_HH
#define UPM_HIP_RUNTIME_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "alloc/registry.hh"
#include "common/clock.hh"
#include "common/hooks.hh"
#include "common/status.hh"
#include "hip/kernel.hh"
#include "hip/memcpy_engine.hh"
#include "hip/perf_model.hh"
#include "hip/stream.hh"
#include "vm/fault_handler.hh"

namespace upm::hip {

/**
 * The HIP-shaped spelling of the simulator-wide Status codes. simhip
 * keeps the two enums literally identical so a Status from any layer
 * can be returned through the runtime without translation, while
 * application-facing code reads like HIP.
 */
using hipError_t = Status;

inline constexpr hipError_t hipSuccess = Status::Success;
/** UPM has no overcommit: capacity exhaustion is a clean ENOMEM. */
inline constexpr hipError_t hipErrorOutOfMemory = Status::OutOfMemory;
inline constexpr hipError_t hipErrorInvalidValue = Status::InvalidValue;
inline constexpr hipError_t hipErrorNotFound = Status::NotFound;
inline constexpr hipError_t hipErrorIllegalAddress = Status::AccessFault;
inline constexpr hipError_t hipErrorTimeout = Status::Timeout;

/** hipGetErrorName analogue. */
inline const char *
hipErrorName(hipError_t error)
{
    return statusName(error);
}

/** Runtime-level counters (profiling surface). The *TimeNs totals are
 *  summed in call order, so a trace replay that folds event values in
 *  sequence order reproduces them byte-exactly. */
struct RuntimeStats
{
    std::uint64_t kernelsLaunched = 0;
    std::uint64_t memcpyCalls = 0;
    std::uint64_t bytesCopied = 0;
    std::uint64_t gpuFaultedPagesMajor = 0;
    std::uint64_t gpuFaultedPagesMinor = 0;
    std::uint64_t cpuFaultedPages = 0;
    std::uint64_t allocCalls = 0;
    std::uint64_t failedAllocCalls = 0;
    std::uint64_t freeCalls = 0;
    /** Sum of modelled kernel durations (excluding queue wait). */
    SimTime kernelTimeNs = 0.0;
    /** Sum of modelled memcpy transfer times (sync and async). */
    SimTime memcpyTimeNs = 0.0;
};

/** hipMemGetInfo result. */
struct MemInfo
{
    std::uint64_t freeBytes = 0;
    std::uint64_t totalBytes = 0;
};

/**
 * One simulated process on one APU. Owns the host clock, streams, and
 * the DevPtr -> Allocation map.
 */
class Runtime
{
  public:
    /** @p hooks wire the runtime, its perf model (tr) and its copy
     *  engine (inj); the fault handler and frame allocator get their
     *  own at construction. @p hooks.polSpace must match the wired
     *  AddressSpace's. */
    Runtime(vm::AddressSpace &address_space,
            alloc::AllocatorRegistry &registry,
            vm::FaultHandler &fault_handler,
            const core::SystemConfig &config,
            const mem::MemGeometry &geometry, const Hooks &hooks = {});

    // ---- Memory management -------------------------------------------
    /**
     * Allocate with any Table 1 configuration; charges host time.
     * The status form: @p out receives the pointer on success and the
     * error is returned (hipErrorOutOfMemory on exhaustion,
     * hipErrorInvalidValue for a zero-byte request) with no partial
     * state left behind.
     */
    hipError_t tryAllocate(alloc::AllocatorKind kind, std::uint64_t size,
                           DevPtr &out);

    /** Convenience form of tryAllocate(); throws StatusError. */
    DevPtr allocate(alloc::AllocatorKind kind, std::uint64_t size);

    DevPtr hipMalloc(std::uint64_t size);
    DevPtr hipHostMalloc(std::uint64_t size);
    DevPtr hipMallocManaged(std::uint64_t size);
    /** Plain host malloc (on-demand). */
    DevPtr hostMalloc(std::uint64_t size);
    /** A __managed__ static variable (registered at "load time"). */
    DevPtr managedStatic(std::uint64_t size);

    /** Free any allocation; charges host time.
     *  @return hipErrorNotFound for a pointer simhip never returned. */
    hipError_t hipFree(DevPtr ptr);

    /**
     * Teardown form of hipFree(): panics on failure. For call sites
     * that free pointers they themselves allocated (workload and
     * bench teardown), where hipErrorNotFound is a double-free or
     * stale-pointer bug, never a condition to handle.
     */
    void freeChecked(DevPtr ptr);

    /**
     * Free every live allocation, in ascending pointer order, through
     * the normal deallocate path (so UPMSan's VA shadow and the trace
     * bus see ordinary frees). The crash-reclamation primitive: when a
     * simulated serving process dies, its runtime releases everything
     * it held before the address space is torn down.
     * @return allocations released.
     */
    std::size_t releaseAll();

    /** Live allocations currently tracked (0 after releaseAll). */
    std::size_t liveAllocations() const { return allocations.size(); }

    /** Pin + GPU-map an existing host allocation.
     *  @return hipErrorNotFound for an unknown pointer,
     *          hipErrorOutOfMemory when pinning cannot populate. */
    hipError_t hipHostRegister(DevPtr ptr);

    /** Last recorded runtime error; reading clears it (HIP's
     *  hipGetLastError contract). Errors surfaced as StatusError
     *  throws are recorded here too, before the throw. */
    hipError_t hipGetLastError();

    /** As hipGetLastError() without clearing. */
    hipError_t hipPeekAtLastError() const { return lastErr; }

    /** The allocation record behind @p ptr (must exist). */
    const alloc::Allocation &allocationOf(DevPtr ptr) const;

    /** Typed host pointer into the backing store. */
    template <typename T>
    T *
    hostPtr(DevPtr ptr, std::uint64_t count = 1)
    {
        return as.backing().hostPtrAs<T>(ptr, count);
    }

    /** hipMemGetInfo: counts ONLY hipMalloc allocations (real HIP
     *  behaviour the paper documents in Section 3.2). Memory consumed
     *  by malloc / hipHostMalloc / hipMallocManaged is invisible here,
     *  so fit checks against freeBytes silently over-commit. UPMSan
     *  covers the blind spot from the other side: the audit layer's
     *  allocation shadow (audit::Auditor::noteAlloc, fed by
     *  alloc::AllocatorRegistry) tracks every allocator kind and flags
     *  overlapping live ranges and use-after-free that such
     *  over-commit can produce. */
    MemInfo hipMemGetInfo() const;

    // ---- Data movement -----------------------------------------------
    /** Synchronous hipMemcpy; performs the copy and charges time.
     *  @return the path taken (for the Section 4.3 bench). */
    CopyPath hipMemcpy(DevPtr dst, DevPtr src, std::uint64_t bytes);

    /**
     * hipMemcpyAsync: the copy is performed functionally now, but its
     * time is enqueued on @p stream so it overlaps host work (the
     * explicit-model pipelines in dwt2d/heartwall rely on this).
     */
    CopyPath hipMemcpyAsync(DevPtr dst, DevPtr src, std::uint64_t bytes,
                            Stream &stream);

    // ---- Kernels and synchronization ----------------------------------
    /**
     * Launch a kernel: resolve GPU faults on its footprint, time it,
     * run @p body functionally, enqueue on @p stream (default stream
     * if null). @return the kernel's modelled duration (excluding
     * queue wait).
     */
    SimTime launchKernel(const KernelDesc &desc,
                         const std::function<void()> &body,
                         Stream *stream = nullptr);

    void deviceSynchronize();
    void streamSynchronize(Stream &stream);

    Event eventRecord(Stream &stream);
    /** Elapsed simulated time between two recorded events. */
    SimTime eventElapsed(const Event &start, const Event &stop) const;

    // ---- CPU-side modelled operations ---------------------------------
    /**
     * CPU first touch of [ptr, ptr+size): resolves and charges CPU
     * page faults for missing pages. @return the fault time charged.
     */
    SimTime cpuFirstTouch(DevPtr ptr, std::uint64_t size,
                          unsigned threads = 1);

    /** Charge CPU streaming over the region (plus faults if any). */
    SimTime cpuStream(DevPtr ptr, std::uint64_t bytes, unsigned threads);

    /** Charge arbitrary host time (I/O phases, serial CPU work). */
    void advanceHost(SimTime duration);

    // ---- Introspection -------------------------------------------------
    SimTime now() const { return hostClock.now(); }
    SimClock &clock() { return hostClock; }
    Stream &defaultStream() { return stream0; }
    Stream makeStream();

    void setXnack(bool enabled) { as.setXnack(enabled); }
    bool xnack() const { return as.xnackEnabled(); }
    void setSdma(bool enabled) { copyEngine.setSdma(enabled); }

    PerfModel &perf() { return perfModel; }
    MemcpyEngine &memcpyEngine() { return copyEngine; }
    vm::AddressSpace &addressSpace() { return as; }
    vm::FaultHandler &faultHandler() { return faults; }
    alloc::AllocatorRegistry &allocators() { return registry; }

    const RuntimeStats &stats() const { return runtimeStats; }
    void resetStats() { runtimeStats = {}; }

    /** Peak physical memory used since construction / last reset. */
    std::uint64_t peakBytesUsed() const { return peakBytes; }
    void resetPeak();

  private:
    /** Resolve GPU faults on a kernel buffer; @return time charged.
     *  Throws StatusError on violation / OOM / injected timeout. */
    SimTime resolveKernelFaults(const BufferUse &use);
    void notePeak();
    /** Record @p error as the sticky last error and return it. */
    hipError_t fail(hipError_t error);
    /** Record @p error as the sticky last error and throw it as a
     *  StatusError carrying @p msg. */
    [[noreturn]] void failThrow(hipError_t error, const std::string &msg);
    /** Feed one modelled access to the race detector (page range is
     *  clamped to the pointer's VMA; no-op when unaudited). */
    void auditAccess(unsigned agent, DevPtr ptr, std::uint64_t bytes,
                     bool is_write, const char *site);

    vm::AddressSpace &as;
    alloc::AllocatorRegistry &registry;
    vm::FaultHandler &faults;
    core::SystemConfig cfg;
    PerfModel perfModel;
    MemcpyEngine copyEngine;

    SimClock hostClock;
    Stream stream0;
    unsigned nextStreamId = 1;

    std::unordered_map<DevPtr, alloc::Allocation> allocations;
    std::uint64_t hipMallocBytes = 0;

    RuntimeStats runtimeStats;
    std::uint64_t peakBytes = 0;
    /** UPMSan hook; null (no overhead) unless auditing is enabled.
     *  The runtime feeds the simulated race detector: every modelled
     *  access (kernels, memcpys, cpuFirstTouch / cpuStream) becomes a
     *  page-granular vector-clock access, and enqueue / synchronize
     *  calls become happens-before edges. Raw hostPtr() accesses are
     *  NOT tracked. */
    audit::Auditor *aud = nullptr;
    /** UPMInject hook; null (no overhead) unless injection is on.
     *  Covers the SDMA-stall and HBM-degradation sites. */
    inject::Injector *inj = nullptr;
    /** UPMTrace hook; null (no overhead) unless tracing is on.
     *  Allocator calls (including failures), frees, memcpys with their
     *  classified path and transfer time, and kernel launches land on
     *  the event bus. */
    trace::Tracer *tr = nullptr;
    /** Event-calendar hook; null (no overhead) unless attached. Every
     *  timed runtime operation posts a completion event on its
     *  engine's queue -- host work on Host, copies on Sdma, fault
     *  service on Fault, kernels on Kernel -- and the synchronize
     *  calls drain the calendar up to the synchronized timestamp. The
     *  events are pure stats markers: a calendar never changes
     *  simulated numbers. */
    sched::EventCalendar *cal = nullptr;
    /** UPMPolicy hook; null keeps the runtime byte-identical. Kernel
     *  launches and CPU streaming feed the engine's per-page access
     *  counters (the stream hot/cold migration decides from). */
    policy::PolicyEngine *pol = nullptr;
    /** PageKey.space for this runtime's access notifications. */
    std::uint64_t polSpace = 0;
    /** Sticky last error (hipGetLastError surface). */
    hipError_t lastErr = hipSuccess;
};

} // namespace upm::hip

#endif // UPM_HIP_RUNTIME_HH
