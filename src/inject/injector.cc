#include "inject/injector.hh"

#include "common/log.hh"
#include "trace/tracer.hh"

namespace upm::inject {

const char *
siteName(Site site)
{
    switch (site) {
      case Site::FrameAlloc: return "frame-alloc";
      case Site::HmmDrop: return "hmm-drop";
      case Site::HmmDelay: return "hmm-delay";
      case Site::XnackStorm: return "xnack-storm";
      case Site::SdmaStall: return "sdma-stall";
      case Site::HbmDegrade: return "hbm-degrade";
      case Site::ProcessKill: return "process-kill";
      case Site::RequestStorm: return "request-storm";
    }
    return "<unknown>";
}

Injector::Injector(const InjectConfig &config, const Hooks &hooks)
    : cfg(config), tr(hooks.tr)
{
    // One independent stream per site, all derived from the root
    // seed: a component exercising one site never perturbs another
    // site's decision sequence.
    SplitMix64 seeder(cfg.seed);
    streams.reserve(kNumSites);
    for (unsigned s = 0; s < kNumSites; ++s)
        streams.emplace_back(seeder.next());
}

bool
Injector::roll(Site site, double prob)
{
    auto s = static_cast<std::size_t>(site);
    ++decisions[s];
    if (prob <= 0.0)
        return false;
    return streams[s].nextDouble() < prob;
}

void
Injector::record(Site site, std::string detail)
{
    auto s = static_cast<std::size_t>(site);
    ++counts[s];
    ++total;
    if (tr != nullptr) {
        tr->emit(trace::EventKind::InjectDecision,
                 static_cast<std::uint64_t>(site), total - 1,
                 decisions[s] - 1, 0, 0, 0.0, detail);
    }
    if (log.size() < cfg.maxRecorded) {
        log.push_back({site, total - 1, decisions[s] - 1,
                       std::move(detail)});
    }
}

bool
Injector::failFrameAlloc(std::uint64_t frames)
{
    if (!roll(Site::FrameAlloc, cfg.frameAllocFailProb))
        return false;
    record(Site::FrameAlloc,
           strprintf("failed allocation of %llu frame(s)",
                     static_cast<unsigned long long>(frames)));
    return true;
}

bool
Injector::dropHmmCompletion()
{
    if (!roll(Site::HmmDrop, cfg.hmmDropProb))
        return false;
    record(Site::HmmDrop, "dropped HMM fault-worker completion");
    return true;
}

double
Injector::hmmDelayFactor()
{
    if (!roll(Site::HmmDelay, cfg.hmmDelayProb))
        return 1.0;
    record(Site::HmmDelay,
           strprintf("HMM completion delayed %.1fx", cfg.hmmDelayFactor));
    return cfg.hmmDelayFactor;
}

unsigned
Injector::xnackReplayStorm(std::uint64_t pages)
{
    if (!roll(Site::XnackStorm, cfg.xnackStormProb))
        return 0;
    // Storm size comes from the same site stream, after the decision
    // draw, so it is as reproducible as the decision itself.
    auto s = static_cast<std::size_t>(Site::XnackStorm);
    unsigned max_replays = cfg.xnackStormMaxReplays > 0
                               ? cfg.xnackStormMaxReplays
                               : 1u;
    auto extra = static_cast<unsigned>(
        streams[s].nextBelow(max_replays) + 1);
    record(Site::XnackStorm,
           strprintf("%u extra replay round(s) on a %llu-page batch",
                     extra, static_cast<unsigned long long>(pages)));
    return extra;
}

SimTime
Injector::sdmaStall()
{
    if (!roll(Site::SdmaStall, cfg.sdmaStallProb))
        return 0.0;
    record(Site::SdmaStall,
           strprintf("SDMA stall of %.0f ns", cfg.sdmaStallTime));
    return cfg.sdmaStallTime;
}

double
Injector::hbmDegradeFactor()
{
    if (degradeOpsLeft > 0) {
        --degradeOpsLeft;
        return cfg.hbmDegradeFactor;
    }
    if (!roll(Site::HbmDegrade, cfg.hbmDegradeProb))
        return 1.0;
    record(Site::HbmDegrade,
           strprintf("HBM channel degraded to %.2fx for %llu op(s)",
                     cfg.hbmDegradeFactor,
                     static_cast<unsigned long long>(cfg.hbmDegradeOps)));
    // The triggering operation is the first degraded one.
    degradeOpsLeft = cfg.hbmDegradeOps > 0 ? cfg.hbmDegradeOps - 1 : 0;
    return cfg.hbmDegradeFactor;
}

bool
Injector::killProcess(std::uint64_t pid)
{
    if (!roll(Site::ProcessKill, cfg.processKillProb))
        return false;
    record(Site::ProcessKill,
           strprintf("killed serving process %llu",
                     static_cast<unsigned long long>(pid)));
    return true;
}

unsigned
Injector::requestStorm()
{
    if (!roll(Site::RequestStorm, cfg.requestStormProb))
        return 0;
    // Burst size comes from the same site stream, after the decision
    // draw (the xnackReplayStorm pattern).
    auto s = static_cast<std::size_t>(Site::RequestStorm);
    unsigned max_burst =
        cfg.requestStormMaxBurst > 0 ? cfg.requestStormMaxBurst : 1u;
    auto extra =
        static_cast<unsigned>(streams[s].nextBelow(max_burst) + 1);
    record(Site::RequestStorm,
           strprintf("request storm of %u extra arrival(s)", extra));
    return extra;
}

std::uint64_t
Injector::countOf(Site site) const
{
    return counts[static_cast<std::size_t>(site)];
}

std::uint64_t
Injector::decisionsAt(Site site) const
{
    return decisions[static_cast<std::size_t>(site)];
}

std::string
Injector::summary() const
{
    std::string out = strprintf(
        "UPMInject: %llu event(s) from seed 0x%llx",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(cfg.seed));
    for (unsigned s = 0; s < kNumSites; ++s) {
        if (counts[s] == 0)
            continue;
        out += strprintf(", %s %llu", siteName(static_cast<Site>(s)),
                         static_cast<unsigned long long>(counts[s]));
    }
    return out;
}

} // namespace upm::inject
