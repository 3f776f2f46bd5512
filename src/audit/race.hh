/**
 * @file
 * Vector-clock happens-before engine over simulated page accesses.
 *
 * The classic UPM porting bug (paper Section 3.3 / Section 5): under
 * the unified model nothing forces the CPU to wait for the GPU before
 * touching shared memory -- the hipMemcpy that used to act as a
 * barrier is gone. The detector models each ordering agent (the host
 * thread, plus one agent per HIP stream) with a vector clock; stream
 * enqueues, stream/device synchronization, and event edges establish
 * happens-before, and every *modelled* page access (kernel buffer
 * footprints, memcpy source/destination, cpuStream/cpuFirstTouch
 * ranges) is checked against the last conflicting access to the page.
 *
 * This is FastTrack-lite: per page we keep the last write epoch and
 * the set of read epochs since that write; a conflicting pair without
 * a happens-before edge is a race, reported with both access sites.
 * Page state is stored extent-coalesced: one node per maximal run of
 * pages with identical state, so a range access costs O(runs it
 * touches), not O(pages).
 */

#ifndef UPM_AUDIT_RACE_HH
#define UPM_AUDIT_RACE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace upm::audit {

/** An ordering agent: kHostAgent, or a per-stream id (stream id + 1). */
using AgentId = unsigned;

/** The host (CPU) agent. */
inline constexpr AgentId kHostAgent = 0;

/** One racing pair, handed to the Auditor for reporting. */
struct RaceReport
{
    std::uint64_t page = 0;  //!< virtual page number
    AgentId firstAgent = 0;
    std::string firstSite;
    AgentId secondAgent = 0;
    std::string secondSite;
};

/**
 * The happens-before engine. Pure shadow state: it never touches the
 * simulation, and the Auditor owns exactly one.
 */
class RaceDetector
{
  public:
    /**
     * Establish a happens-before edge @p from -> @p to (release on
     * @p from, acquire on @p to): to's clock absorbs from's, and from
     * advances so its later work is not retroactively ordered.
     */
    void edge(AgentId from, AgentId to);

    /** Edge from every known agent into @p to (hipDeviceSynchronize). */
    void edgeAll(AgentId to);

    /**
     * Record an access by @p agent to pages [first, first+count) and
     * collect any races against prior unordered conflicting accesses.
     * @p site labels the access in reports (e.g. "kernel 'fdwt53'").
     * At most one race is reported per page per call, in page order.
     */
    void accessRange(AgentId agent, std::uint64_t first,
                     std::uint64_t count, bool is_write,
                     std::string_view site,
                     std::vector<RaceReport> &races);

    /** Forget all page state, clocks and sites (between benchmark
     *  runs). */
    void reset();

    /** Distinct pages ever accessed since the last reset. */
    std::size_t trackedPages() const { return tracked; }

    /** Stored runs of identical page state (test/introspection). */
    std::size_t trackedRuns() const { return runs.size(); }

  private:
    /** Index into `siteNames`. */
    using SiteId = std::uint32_t;

    /** An access epoch: who, at what point of their clock, and where. */
    struct Epoch
    {
        AgentId agent = 0;
        std::uint64_t clock = 0;
        SiteId site = 0;

        bool operator==(const Epoch &) const = default;
    };

    struct PageState
    {
        Epoch lastWrite;
        bool hasWrite = false;
        /** Reads since the last write, at most one epoch per agent. */
        std::vector<Epoch> reads;

        bool operator==(const PageState &) const = default;
    };

    /** Pages [begin, end) all in `state`; keyed by begin in `runs`. */
    struct Run
    {
        std::uint64_t end = 0;
        PageState state;
    };
    using RunMap = std::map<std::uint64_t, Run>;

    /** Grow the clock matrix to cover @p agent. */
    void ensureAgent(AgentId agent);
    /** Does @p epoch happen-before agent @p a's current clock? */
    bool happensBefore(const Epoch &epoch, AgentId a) const;
    /** The prior access an access by @p agent conflicts with, if any. */
    const Epoch *conflictIn(const PageState &state, AgentId agent,
                            bool is_write) const;
    /** Stable id for @p site; lookups never iterate a hash map. */
    SiteId intern(std::string_view site);
    /** Cut the run containing @p page so a run starts there. */
    void splitAt(std::uint64_t page);
    /** Merge @p it into its predecessor when adjacent and equal.
     *  @return the surviving run. */
    RunMap::iterator mergeWithPrev(RunMap::iterator it);

    /** clocks[a][b]: the latest clock of b that a has acquired. */
    std::vector<std::vector<std::uint64_t>> clocks;
    /** Disjoint runs, never two adjacent equal ones. */
    RunMap runs;
    /** Pages covered by `runs`. */
    std::size_t tracked = 0;
    /** Interned access sites: id -> text, text -> id. */
    std::vector<std::string> siteNames;
    std::map<std::string, SiteId, std::less<>> siteIds;
};

} // namespace upm::audit

#endif // UPM_AUDIT_RACE_HH
