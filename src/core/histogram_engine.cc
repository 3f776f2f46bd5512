#include "core/histogram_engine.hh"

#include <algorithm>

#include "cache/atomic_unit.hh"
#include "cache/directory.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sched/time_heap.hh"

namespace upm::core {

HistogramResult
HistogramEngine::run(const HistogramParams &params)
{
    if (params.elems == 0)
        fatal("histogram needs at least one element");
    if (params.cpuThreads == 0 && params.gpuThreads == 0)
        fatal("histogram needs at least one thread");

    auto &rt = sys.runtime();
    const auto &cal = sys.config().atomicsModel;
    cache::Directory directory(sys.config().coherence,
                              {.aud = sys.auditor()});
    cache::AtomicUnitModel unit(sys.config().atomics);

    // The functional histogram lives in a unified allocation.
    hip::DevPtr buf = rt.hipMalloc(params.elems * sizeof(std::uint64_t));
    auto *histogram =
        rt.hostPtr<std::uint64_t>(buf, params.elems);
    std::fill(histogram, histogram + params.elems, 0);

    struct Agent
    {
        bool gpu;
        SimTime clock = 0.0;
        MinStdRand cpu_rng{1};
        Xorwow gpu_rng{1};
        unsigned ops_done = 0;
    };

    std::vector<Agent> agents;
    agents.reserve(params.cpuThreads + params.gpuThreads);
    for (unsigned t = 0; t < params.cpuThreads; ++t) {
        Agent agent;
        agent.gpu = false;
        agent.cpu_rng = MinStdRand(static_cast<std::uint32_t>(
            params.seed * 2654435761ull + t + 1));
        agents.push_back(agent);
    }
    for (unsigned t = 0; t < params.gpuThreads; ++t) {
        Agent agent;
        agent.gpu = true;
        agent.gpu_rng = Xorwow(params.seed * 11400714819323198485ull +
                               t + 1);
        agents.push_back(agent);
    }

    // Per-line availability timestamps enforce atomic serialization.
    // A dense vector keyed by line id: deterministic by construction
    // (the unordered map it replaces kept SimTime behind hashed keys,
    // the pattern the determinism contract bans from sim layers).
    std::uint64_t last_line =
        (params.elems * sizeof(std::uint64_t) - 1) / 64;
    std::vector<SimTime> line_free_at(last_line + 1, 0.0);
    HistogramResult result;

    // One atomic update by @p agent: draw an index, bump the
    // functional histogram, pay work + ownership transfer + line
    // serialization. Unowned lines of a cache-resident histogram come
    // from the shared level, not from memory (the directory prices the
    // worst case).
    auto step = [&](Agent &agent) {
        std::uint64_t idx =
            agent.gpu
                ? agent.gpu_rng.nextBelow(params.elems)
                : agent.cpu_rng.nextBelow(
                      static_cast<std::uint32_t>(std::min<std::uint64_t>(
                          params.elems, 0xffffffffull)));
        ++histogram[idx];
        std::uint64_t line = idx * sizeof(std::uint64_t) / 64;

        bool was_unowned =
            directory.ownerOf(line) == cache::Owner::None;
        SimTime work = agent.gpu ? cal.gpuOpLatencyL2 * 0.02
                                 : cal.cpuWork;
        SimTime xfer = agent.gpu
                           ? directory.gpuAtomic(line)
                           : directory.cpuAtomic(
                                 line, static_cast<unsigned>(
                                           &agent - agents.data()) %
                                           sys.config().numCpuCores);
        if (!agent.gpu && was_unowned &&
            params.elems * sizeof(std::uint64_t) <= cal.cpuAggL2Bytes) {
            xfer = cal.cpuCleanNear;
        }
        if (!agent.gpu && params.type == AtomicType::Fp64)
            xfer *= cal.casFactor;

        SimTime service = agent.gpu ? unit.lineServiceTime()
                                    : cal.cpuLineService;
        SimTime start = agent.clock + work;
        if (line_free_at[line] > start) {
            ++result.lineConflicts;
            start = line_free_at[line];
        }
        SimTime done = start + xfer;
        line_free_at[line] = done + service;
        agent.clock = done;
        ++agent.ops_done;
    };

    std::uint64_t remaining = static_cast<std::uint64_t>(agents.size()) *
                              params.opsPerThread;
    result.totalOps = remaining;
    if (params.impl == HistogramImpl::Scan) {
        // Reference loop: pick the least-advanced runnable agent each
        // step by linear scan (lowest index among same-clock ties).
        while (remaining > 0) {
            Agent *next = nullptr;
            for (auto &agent : agents) {
                if (agent.ops_done >= params.opsPerThread)
                    continue;
                if (next == nullptr || agent.clock < next->clock)
                    next = &agent;
            }
            step(*next);
            --remaining;
        }
    } else {
        // Event-calendar loop: the same total order out of a TimeHeap
        // keyed (clock, agent index). Each agent is in the heap at
        // most once, so the (when, key) pair is already unique and the
        // pop sequence reproduces the scan byte for byte in O(log n).
        sched::TimeHeap<std::uint32_t> ready;
        for (std::size_t i = 0; i < agents.size(); ++i) {
            if (params.opsPerThread > 0)
                ready.push(agents[i].clock, i,
                           static_cast<std::uint32_t>(i));
        }
        while (!ready.empty()) {
            auto entry = ready.pop();
            Agent &agent = agents[entry.payload];
            step(agent);
            if (agent.ops_done < params.opsPerThread)
                ready.push(agent.clock, entry.key, entry.payload);
        }
    }

    // Makespan per agent class -> throughput.
    SimTime cpu_makespan = 0.0, gpu_makespan = 0.0;
    std::uint64_t cpu_ops = 0, gpu_ops = 0;
    for (const auto &agent : agents) {
        if (agent.gpu) {
            gpu_makespan = std::max(gpu_makespan, agent.clock);
            gpu_ops += agent.ops_done;
        } else {
            cpu_makespan = std::max(cpu_makespan, agent.clock);
            cpu_ops += agent.ops_done;
        }
    }
    if (cpu_ops > 0 && cpu_makespan > 0.0)
        result.cpuOpsPerNs = static_cast<double>(cpu_ops) / cpu_makespan;
    if (gpu_ops > 0 && gpu_makespan > 0.0)
        result.gpuOpsPerNs = static_cast<double>(gpu_ops) / gpu_makespan;

    for (std::uint64_t i = 0; i < params.elems; ++i)
        result.histogramSum += histogram[i];

    rt.freeChecked(buf);
    return result;
}

} // namespace upm::core
