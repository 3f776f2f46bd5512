#include "audit/auditor.hh"

#include "mem/geometry.hh"

#include "common/log.hh"

namespace upm::audit {

namespace {

const char *const kKindNames[] = {
    "mirror-divergence",
    "stale-mirror",
    "xnack-replay-mapped",
    "frame-double-alloc",
    "frame-double-free",
    "frame-leak",
    "alloc-overlap",
    "use-after-free",
    "invalid-free",
    "dirty-in-two-caches",
    "ic-stale-fill",
    "cpu-gpu-race",
    "gpu-gpu-race",
    "cross-socket-owner",
};

} // namespace

const char *
kindName(ViolationKind kind)
{
    return kKindNames[static_cast<std::uint8_t>(kind)];
}

Auditor::Auditor(const AuditConfig &config) : cfg(config) {}

void
Auditor::record(ViolationKind kind, std::uint64_t addr, std::string detail)
{
    ++totalCount;
    if (cfg.warnOnViolation) {
        warn("UPMSan: %s at 0x%llx: %s", kindName(kind),
             static_cast<unsigned long long>(addr), detail.c_str());
    }
    if (found.size() < cfg.maxRecorded)
        found.push_back({kind, addr, std::move(detail)});
}

std::uint64_t
Auditor::countOf(ViolationKind kind) const
{
    std::uint64_t n = 0;
    for (const Violation &v : found) {
        if (v.kind == kind)
            ++n;
    }
    return n;
}

void
Auditor::reset()
{
    found.clear();
    totalCount = 0;
    liveRanges.clear();
    freedRanges.clear();
    dirtyLines.clear();
    detector.reset();
}

std::string
Auditor::summary() const
{
    if (clean())
        return "UPMSan: clean (0 violations)";
    std::string out = strprintf(
        "UPMSan: %llu violation(s)",
        static_cast<unsigned long long>(totalCount));
    for (std::uint8_t k = 0; k < std::size(kKindNames); ++k) {
        std::uint64_t n = countOf(static_cast<ViolationKind>(k));
        if (n > 0) {
            out += strprintf(", %s x%llu", kKindNames[k],
                             static_cast<unsigned long long>(n));
        }
    }
    return out;
}

// ---- Allocation registry shadow --------------------------------------

void
Auditor::noteAlloc(std::uint64_t addr, std::uint64_t size,
                   const char *what)
{
    if (!cfg.checkAllocations)
        return;
    // Overlap: the nearest live range at or below addr, and the first
    // one above, are the only overlap candidates.
    auto above = liveRanges.upper_bound(addr);
    if (above != liveRanges.begin()) {
        auto below = std::prev(above);
        if (below->first + below->second > addr) {
            record(ViolationKind::AllocOverlap, addr,
                   strprintf("%s allocation [0x%llx, +%llu) overlaps "
                             "live range [0x%llx, +%llu)",
                             what,
                             static_cast<unsigned long long>(addr),
                             static_cast<unsigned long long>(size),
                             static_cast<unsigned long long>(below->first),
                             static_cast<unsigned long long>(
                                 below->second)));
        }
    }
    if (above != liveRanges.end() && addr + size > above->first) {
        record(ViolationKind::AllocOverlap, addr,
               strprintf("%s allocation [0x%llx, +%llu) overlaps live "
                         "range [0x%llx, +%llu)",
                         what, static_cast<unsigned long long>(addr),
                         static_cast<unsigned long long>(size),
                         static_cast<unsigned long long>(above->first),
                         static_cast<unsigned long long>(above->second)));
    }
    liveRanges[addr] = size;
    // Rebirth at a recycled base resurrects the pointer.
    freedRanges.erase(addr);
}

void
Auditor::noteFree(std::uint64_t addr)
{
    if (!cfg.checkAllocations)
        return;
    auto it = liveRanges.find(addr);
    if (it == liveRanges.end()) {
        record(ViolationKind::InvalidFree, addr,
               "free of a pointer that is not a live allocation base");
        return;
    }
    freedRanges[addr] = it->second;
    liveRanges.erase(it);
}

void
Auditor::noteUse(std::uint64_t addr, const char *site)
{
    if (!cfg.checkAllocations || freedRanges.empty())
        return;
    auto above = freedRanges.upper_bound(addr);
    if (above == freedRanges.begin())
        return;
    auto below = std::prev(above);
    if (addr < below->first + below->second) {
        record(ViolationKind::UseAfterFree, addr,
               strprintf("%s dereferences freed allocation "
                         "[0x%llx, +%llu)",
                         site,
                         static_cast<unsigned long long>(below->first),
                         static_cast<unsigned long long>(below->second)));
    }
}

// ---- Coherence shadow -------------------------------------------------

void
Auditor::onLineOwned(std::uint64_t line, unsigned owner)
{
    if (!cfg.checkCoherence)
        return;
    auto it = dirtyLines.find(line);
    if (it != dirtyLines.end() && it->second != owner) {
        const char *prev = it->second == kGpuOwner ? "GPU L2" : "CPU core";
        const char *next = owner == kGpuOwner ? "GPU L2" : "CPU core";
        record(ViolationKind::DirtyInTwoCaches, line,
               strprintf("line dirty in %s %u while %s %u takes it "
                         "exclusive without an invalidation",
                         prev, it->second == kGpuOwner ? 0u : it->second,
                         next, owner == kGpuOwner ? 0u : owner));
    }
    dirtyLines[line] = owner;
}

void
Auditor::onLineReleased(std::uint64_t line)
{
    if (!cfg.checkCoherence)
        return;
    dirtyLines.erase(line);
}

void
Auditor::onIcFill(std::uint64_t line)
{
    if (!cfg.checkCoherence)
        return;
    auto it = dirtyLines.find(line);
    if (it != dirtyLines.end()) {
        record(ViolationKind::IcStaleFill, line,
               strprintf("Infinity Cache fills a line still dirty in a "
                         "private cache (owner %u); the IC absorbs no "
                         "snoops, so the fill is stale",
                         it->second));
    }
}

// ---- Race detection ---------------------------------------------------

void
Auditor::raceEdge(AgentId from, AgentId to)
{
    if (!cfg.checkRaces)
        return;
    detector.edge(from, to);
}

void
Auditor::raceEdgeAll(AgentId to)
{
    if (!cfg.checkRaces)
        return;
    detector.edgeAll(to);
}

void
Auditor::raceAccess(AgentId agent, std::uint64_t first_page,
                    std::uint64_t page_count, bool is_write,
                    std::string_view site)
{
    if (!cfg.checkRaces)
        return;
    std::vector<RaceReport> reports;
    detector.accessRange(agent, first_page, page_count, is_write, site,
                         reports);
    for (const RaceReport &r : reports) {
        bool cpu_involved =
            r.firstAgent == kHostAgent || r.secondAgent == kHostAgent;
        // Violation::addr is a byte address everywhere else; convert
        // the detector's page number before recording.
        record(cpu_involved ? ViolationKind::CpuGpuRace
                            : ViolationKind::GpuGpuRace,
               r.page << mem::kPageShift,
               strprintf("unsynchronized accesses to page 0x%llx: "
                         "%s (agent %u) vs %s (agent %u)",
                         static_cast<unsigned long long>(r.page),
                         r.firstSite.c_str(), r.firstAgent,
                         r.secondSite.c_str(), r.secondAgent));
    }
}

} // namespace upm::audit
