/**
 * @file
 * UPMSan: the cross-layer invariant auditor.
 *
 * The paper's argument rests on the correctness of the memory-state
 * machine -- page-table/HMM mirror consistency, XNACK replay, frame
 * accounting, and CPU/IC/HBM coherence. A silent double-map or stale
 * mirror would quietly corrupt every downstream figure, so the Auditor
 * makes such states loud: instrumented components (vm::AddressSpace,
 * vm::HmmMirror, mem::FrameAllocator, alloc::AllocatorRegistry,
 * cache::Directory, hip::Runtime) hold an `Auditor *` that is null
 * unless auditing is enabled, and call cheap check hooks that record
 * structured Violation records on failure.
 *
 * The Auditor sits directly above `common` in the layering; every hook
 * speaks plain integers (addresses, frame ids, line ids, page numbers)
 * so lower layers can depend on it without inversion. Checks that need
 * a whole-structure view (mirror scans, frame-leak detection) are
 * implemented as `audit*` methods on the owning component and driven
 * by core::System::finalizeAudit().
 */

#ifndef UPM_AUDIT_AUDITOR_HH
#define UPM_AUDIT_AUDITOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "audit/config.hh"
#include "audit/race.hh"
#include "audit/violation.hh"

namespace upm::audit {

/** Shadow owner of a cache line (coherence cross-check). */
inline constexpr unsigned kGpuOwner = ~0u;

/**
 * Violation sink plus the shadow state the cross-layer checks need:
 * a live/freed allocation range map, a per-line dirty-owner map, and
 * the vector-clock race detector.
 */
class Auditor
{
  public:
    explicit Auditor(const AuditConfig &config = {});

    const AuditConfig &config() const { return cfg; }

    // ---- Violation sink ----------------------------------------------
    /** Record one violation (warns unless configured quiet). */
    void record(ViolationKind kind, std::uint64_t addr,
                std::string detail);

    /** All recorded violations, in detection order. */
    const std::vector<Violation> &violations() const { return found; }

    /** Total violations observed (keeps counting past maxRecorded). */
    std::uint64_t totalViolations() const { return totalCount; }

    /** Violations of one kind. */
    std::uint64_t countOf(ViolationKind kind) const;

    /** True when no violation has been observed. */
    bool clean() const { return totalCount == 0; }

    /** Drop all violations and shadow state (between runs). */
    void reset();

    /** One-line summary, e.g. for a bench's `--audit` footer. */
    std::string summary() const;

    // ---- Allocation registry shadow (alloc layer) --------------------
    /** A simulated allocation came to life at [addr, addr+size). */
    void noteAlloc(std::uint64_t addr, std::uint64_t size,
                   const char *what);
    /** The allocation at @p addr was freed. */
    void noteFree(std::uint64_t addr);
    /** @p addr was dereferenced through the runtime at @p site. */
    void noteUse(std::uint64_t addr, const char *site);

    // ---- Coherence shadow (cache layer) ------------------------------
    /** @p owner (core id, or kGpuOwner) took the line exclusive. */
    void onLineOwned(std::uint64_t line, unsigned owner);
    /** The line's exclusive owner wrote it back / invalidated it. */
    void onLineReleased(std::uint64_t line);
    /** The memory-side Infinity Cache absorbed the line. */
    void onIcFill(std::uint64_t line);

    // ---- Race detection (hip layer) ----------------------------------
    /** HB edge from -> to (enqueue, synchronize). */
    void raceEdge(AgentId from, AgentId to);
    /** HB edge from every agent into @p to (device synchronize). */
    void raceEdgeAll(AgentId to);
    /** Page-range access by @p agent; races are recorded. */
    void raceAccess(AgentId agent, std::uint64_t first_page,
                    std::uint64_t page_count, bool is_write,
                    std::string_view site);

    /** The engine itself (tests inspect tracked state). */
    const RaceDetector &races() const { return detector; }

  private:
    AuditConfig cfg;
    std::vector<Violation> found;
    std::uint64_t totalCount = 0;

    /** Live allocations: base -> size. */
    std::map<std::uint64_t, std::uint64_t> liveRanges;
    /** Freed (never-reused) allocations: base -> size. */
    std::map<std::uint64_t, std::uint64_t> freedRanges;

    /** Shadow dirty-owner per line; absent means clean/in-memory. */
    std::unordered_map<std::uint64_t, unsigned> dirtyLines;

    RaceDetector detector;
};

} // namespace upm::audit

#endif // UPM_AUDIT_AUDITOR_HH
