/**
 * @file
 * Differential tests for the extent-coalesced race detector: seeded
 * operation streams drive audit::RaceDetector and a verbatim copy of
 * the per-page detector it replaced, and every report and the tracked
 * page count must agree after every operation. Directed tests pin the
 * point of the change: a huge uniform access stays a handful of runs,
 * and a race over a run still yields one report per page.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/race.hh"
#include "common/rng.hh"

namespace upm::audit {
namespace {

// ---- Oracle: the per-page detector, verbatim ---------------------------

class PerPageRaceDetector
{
  public:
    void edge(AgentId from, AgentId to);
    void edgeAll(AgentId to);
    void accessRange(AgentId agent, std::uint64_t first,
                     std::uint64_t count, bool is_write,
                     const std::string &site,
                     std::vector<RaceReport> &races);
    void reset();
    std::size_t trackedPages() const { return pages.size(); }

  private:
    struct Epoch
    {
        AgentId agent = 0;
        std::uint64_t clock = 0;
        std::string site;
    };

    struct PageState
    {
        Epoch lastWrite;
        bool hasWrite = false;
        std::vector<Epoch> reads;
    };

    void ensureAgent(AgentId agent);
    bool happensBefore(const Epoch &epoch, AgentId a) const;

    std::vector<std::vector<std::uint64_t>> clocks;
    std::unordered_map<std::uint64_t, PageState> pages;
};

void
PerPageRaceDetector::ensureAgent(AgentId agent)
{
    if (agent < clocks.size())
        return;
    std::size_t n = agent + 1;
    for (auto &row : clocks)
        row.resize(n, 0);
    while (clocks.size() < n) {
        clocks.emplace_back(n, 0);
        clocks.back()[clocks.size() - 1] = 1;
    }
}

void
PerPageRaceDetector::edge(AgentId from, AgentId to)
{
    ensureAgent(std::max(from, to));
    auto &src = clocks[from];
    auto &dst = clocks[to];
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
    ++clocks[from][from];
}

void
PerPageRaceDetector::edgeAll(AgentId to)
{
    ensureAgent(to);
    for (AgentId a = 0; a < clocks.size(); ++a) {
        if (a != to)
            edge(a, to);
    }
}

bool
PerPageRaceDetector::happensBefore(const Epoch &epoch, AgentId a) const
{
    if (epoch.agent == a)
        return true;
    if (epoch.agent >= clocks[a].size())
        return false;
    return epoch.clock <= clocks[a][epoch.agent];
}

void
PerPageRaceDetector::accessRange(AgentId agent, std::uint64_t first,
                                 std::uint64_t count, bool is_write,
                                 const std::string &site,
                                 std::vector<RaceReport> &races)
{
    ensureAgent(agent);
    Epoch now{agent, clocks[agent][agent], site};

    for (std::uint64_t p = first; p < first + count; ++p) {
        PageState &state = pages[p];

        const Epoch *conflict = nullptr;
        if (state.hasWrite && !happensBefore(state.lastWrite, agent))
            conflict = &state.lastWrite;
        if (conflict == nullptr && is_write) {
            for (const Epoch &read : state.reads) {
                if (!happensBefore(read, agent)) {
                    conflict = &read;
                    break;
                }
            }
        }
        if (conflict != nullptr) {
            races.push_back({p, conflict->agent, conflict->site, agent,
                             site});
        }

        if (is_write) {
            state.lastWrite = now;
            state.hasWrite = true;
            state.reads.clear();
        } else {
            bool updated = false;
            for (Epoch &read : state.reads) {
                if (read.agent == agent) {
                    read = now;
                    updated = true;
                    break;
                }
            }
            if (!updated)
                state.reads.push_back(now);
        }
    }
}

void
PerPageRaceDetector::reset()
{
    clocks.clear();
    pages.clear();
}

// ---- Differential harness ------------------------------------------------

/** Sites short enough for SSO and long enough to defeat it. */
const std::vector<std::string> kSites = {
    "cpuStream",
    "hipMemcpy write",
    "kernel 'a'",
    "kernel 'fdwt53_with_a_name_well_past_the_sso_buffer'",
    "hipMemcpyAsync read of a long-lived staging buffer",
    "cpuFirstTouch",
};

void
expectSameReports(const std::vector<RaceReport> &want,
                  const std::vector<RaceReport> &got, std::size_t op)
{
    ASSERT_EQ(got.size(), want.size()) << "op " << op;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].page, want[i].page) << "op " << op << " #" << i;
        EXPECT_EQ(got[i].firstAgent, want[i].firstAgent)
            << "op " << op << " #" << i;
        EXPECT_EQ(got[i].firstSite, want[i].firstSite)
            << "op " << op << " #" << i;
        EXPECT_EQ(got[i].secondAgent, want[i].secondAgent)
            << "op " << op << " #" << i;
        EXPECT_EQ(got[i].secondSite, want[i].secondSite)
            << "op " << op << " #" << i;
    }
}

/**
 * One seeded stream over @p agents agents and a @p universe -page
 * window: edges, device-wide joins, resets, and accesses whose ranges
 * are fresh, nested inside the previous range, overlapping its end,
 * or empty (which still grows the clock matrix).
 */
void
differentialRun(std::uint64_t seed, AgentId agents,
                std::uint64_t universe, std::size_t ops)
{
    SplitMix64 rng(seed);
    PerPageRaceDetector want;
    RaceDetector got;
    std::uint64_t prev_first = 0;
    std::uint64_t prev_count = 1;
    std::size_t raced = 0;
    for (std::size_t op = 0; op < ops; ++op) {
        std::uint64_t kind = rng.nextBelow(100);
        if (kind < 12) {
            auto from = static_cast<AgentId>(rng.nextBelow(agents));
            auto to = static_cast<AgentId>(rng.nextBelow(agents));
            want.edge(from, to);
            got.edge(from, to);
        } else if (kind < 16) {
            auto to = static_cast<AgentId>(rng.nextBelow(agents));
            want.edgeAll(to);
            got.edgeAll(to);
        } else if (kind < 17 && op > ops / 2) {
            want.reset();
            got.reset();
        } else {
            auto agent = static_cast<AgentId>(rng.nextBelow(agents));
            bool is_write = rng.nextBelow(3) == 0;
            std::uint64_t first = 0;
            std::uint64_t count = 0;
            switch (rng.nextBelow(5)) {
              case 0:  // zero-count: no pages, but a clock row
                first = rng.nextBelow(universe);
                break;
              case 1:  // nested inside the previous range
                first = prev_first + rng.nextBelow(prev_count);
                count = 1 + rng.nextBelow(prev_first + prev_count - first);
                break;
              case 2:  // overlapping the previous range's end
                first = prev_first + prev_count / 2;
                count = 1 + rng.nextBelow(universe / 4);
                break;
              default:  // anywhere
                first = rng.nextBelow(universe);
                count = 1 + rng.nextBelow(universe / 3);
                break;
            }
            if (count > 0) {
                prev_first = first;
                prev_count = count;
            }
            const std::string &site = kSites[rng.nextBelow(kSites.size())];
            std::vector<RaceReport> want_races;
            std::vector<RaceReport> got_races;
            want.accessRange(agent, first, count, is_write, site,
                             want_races);
            got.accessRange(agent, first, count, is_write, site,
                            got_races);
            expectSameReports(want_races, got_races, op);
            raced += want_races.empty() ? 0 : 1;
        }
        ASSERT_EQ(got.trackedPages(), want.trackedPages()) << "op " << op;
        if (::testing::Test::HasFailure())
            return;
    }
    // The stream must actually exercise the race path.
    EXPECT_GT(raced, ops / 20);
}

TEST(RaceDiff, MatchesPerPageDetectorOverSeededStreams)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        differentialRun(seed, 4, 256, 3000);
    }
}

TEST(RaceDiff, MatchesPerPageDetectorWithManyAgents)
{
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
        SCOPED_TRACE(seed);
        differentialRun(seed, 9, 1024, 2000);
    }
}

// ---- Directed ------------------------------------------------------------

TEST(RaceDiff, HugeUniformAccessStaysOneRun)
{
    RaceDetector det;
    std::vector<RaceReport> races;
    const std::uint64_t pages = 1ull << 20;
    det.accessRange(1, 4096, pages, true, "kernel 'fill'", races);
    det.edge(1, kHostAgent);  // streamSynchronize
    det.accessRange(kHostAgent, 4096, pages, false, "cpuStream", races);
    EXPECT_TRUE(races.empty());
    EXPECT_EQ(det.trackedPages(), pages);
    EXPECT_EQ(det.trackedRuns(), 1u);

    // A read of the middle splits; writing it back over the whole
    // range coalesces to one run again.
    det.accessRange(kHostAgent, 4096 + 100, 10, true, "cpuStream", races);
    EXPECT_EQ(det.trackedRuns(), 3u);
    det.accessRange(kHostAgent, 4096, pages, true, "cpuStream", races);
    EXPECT_TRUE(races.empty());
    EXPECT_EQ(det.trackedRuns(), 1u);
    EXPECT_EQ(det.trackedPages(), pages);
}

TEST(RaceDiff, RaceOverRunReportsEveryPageInOrder)
{
    RaceDetector det;
    std::vector<RaceReport> races;
    const std::uint64_t n = 37;
    det.accessRange(2, 500, n, true, "kernel 'producer'", races);
    ASSERT_EQ(det.trackedRuns(), 1u);
    // Host touches a superset without synchronizing: the n written
    // pages race, the fresh neighbours do not.
    det.accessRange(kHostAgent, 490, n + 20, false, "cpuStream", races);
    ASSERT_EQ(races.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(races[i].page, 500 + i);
        EXPECT_EQ(races[i].firstAgent, 2u);
        EXPECT_EQ(races[i].firstSite, "kernel 'producer'");
        EXPECT_EQ(races[i].secondAgent, kHostAgent);
        EXPECT_EQ(races[i].secondSite, "cpuStream");
    }
    EXPECT_EQ(det.trackedPages(), n + 20);
}

TEST(RaceDiff, ResetForgetsRunsAndSites)
{
    RaceDetector det;
    std::vector<RaceReport> races;
    det.accessRange(1, 0, 64, true, "kernel 'k'", races);
    det.reset();
    EXPECT_EQ(det.trackedPages(), 0u);
    EXPECT_EQ(det.trackedRuns(), 0u);
    det.accessRange(kHostAgent, 0, 8, true, "cpuStream", races);
    det.accessRange(1, 0, 8, true, "kernel 'k'", races);
    ASSERT_EQ(races.size(), 8u);
    EXPECT_EQ(races[0].firstSite, "cpuStream");
    EXPECT_EQ(races[0].secondSite, "kernel 'k'");
}

} // namespace
} // namespace upm::audit
