#include "audit/race.hh"

#include <algorithm>

namespace upm::audit {

void
RaceDetector::ensureAgent(AgentId agent)
{
    if (agent < clocks.size())
        return;
    std::size_t n = agent + 1;
    for (auto &row : clocks)
        row.resize(n, 0);
    while (clocks.size() < n) {
        // An agent's own clock starts at 1 while every other agent's
        // knowledge of it starts at 0: a fresh agent's first access is
        // unordered with everyone until an edge publishes it.
        clocks.emplace_back(n, 0);
        clocks.back()[clocks.size() - 1] = 1;
    }
}

void
RaceDetector::edge(AgentId from, AgentId to)
{
    ensureAgent(std::max(from, to));
    auto &src = clocks[from];
    auto &dst = clocks[to];
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
    // Release bump: work `from` does after this edge is unordered with
    // whatever `to` acquired.
    ++clocks[from][from];
}

void
RaceDetector::edgeAll(AgentId to)
{
    ensureAgent(to);
    for (AgentId a = 0; a < clocks.size(); ++a) {
        if (a != to)
            edge(a, to);
    }
}

bool
RaceDetector::happensBefore(const Epoch &epoch, AgentId a) const
{
    if (epoch.agent == a)
        return true;  // program order
    if (epoch.agent >= clocks[a].size())
        return false;
    return epoch.clock <= clocks[a][epoch.agent];
}

const RaceDetector::Epoch *
RaceDetector::conflictIn(const PageState &state, AgentId agent,
                         bool is_write) const
{
    if (state.hasWrite && !happensBefore(state.lastWrite, agent))
        return &state.lastWrite;
    if (is_write) {
        for (const Epoch &read : state.reads) {
            if (!happensBefore(read, agent))
                return &read;
        }
    }
    return nullptr;
}

RaceDetector::SiteId
RaceDetector::intern(std::string_view site)
{
    auto it = siteIds.find(site);
    if (it != siteIds.end())
        return it->second;
    auto id = static_cast<SiteId>(siteNames.size());
    siteNames.emplace_back(site);
    siteIds.emplace(siteNames.back(), id);
    return id;
}

void
RaceDetector::splitAt(std::uint64_t page)
{
    auto it = runs.upper_bound(page);
    if (it == runs.begin())
        return;
    --it;
    if (it->first == page || it->second.end <= page)
        return;
    Run tail{it->second.end, it->second.state};
    it->second.end = page;
    runs.emplace_hint(std::next(it), page, std::move(tail));
}

RaceDetector::RunMap::iterator
RaceDetector::mergeWithPrev(RunMap::iterator it)
{
    if (it == runs.begin())
        return it;
    auto prev = std::prev(it);
    if (prev->second.end != it->first ||
        !(prev->second.state == it->second.state))
        return it;
    prev->second.end = it->second.end;
    runs.erase(it);
    return prev;
}

void
RaceDetector::accessRange(AgentId agent, std::uint64_t first,
                          std::uint64_t count, bool is_write,
                          std::string_view site,
                          std::vector<RaceReport> &races)
{
    ensureAgent(agent);
    if (count == 0)
        return;
    const Epoch now{agent, clocks[agent][agent], intern(site)};
    const std::uint64_t end = first + count;

    // Every page of a run shares one state, so one conflict check and
    // one update per run stand for the per-page ones.
    splitAt(first);
    splitAt(end);
    std::uint64_t p = first;
    auto it = runs.lower_bound(first);
    while (p < end) {
        if (it == runs.end() || it->first > p) {
            // Untracked gap: nothing to conflict with yet.
            std::uint64_t gap_end =
                it == runs.end() ? end : std::min(end, it->first);
            it = runs.emplace_hint(it, p, Run{gap_end, {}});
            tracked += gap_end - p;
        }
        Run &run = it->second;
        if (const Epoch *conflict = conflictIn(run.state, agent, is_write)) {
            for (std::uint64_t q = p; q < run.end; ++q) {
                races.push_back({q, conflict->agent,
                                 siteNames[conflict->site], agent,
                                 siteNames[now.site]});
            }
        }

        PageState &state = run.state;
        if (is_write) {
            state.lastWrite = now;
            state.hasWrite = true;
            state.reads.clear();
        } else {
            auto read = std::find_if(
                state.reads.begin(), state.reads.end(),
                [&](const Epoch &e) { return e.agent == agent; });
            if (read != state.reads.end())
                *read = now;
            else
                state.reads.push_back(now);
        }
        p = run.end;
        ++it;
    }

    // Re-coalesce from the run ending at `first` through the run
    // starting at `end`.
    for (auto cur = runs.lower_bound(first);
         cur != runs.end() && cur->first <= end; ++cur)
        cur = mergeWithPrev(cur);
}

void
RaceDetector::reset()
{
    clocks.clear();
    runs.clear();
    tracked = 0;
    siteNames.clear();
    siteIds.clear();
}

} // namespace upm::audit
