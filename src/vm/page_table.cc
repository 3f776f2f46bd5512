#include "vm/page_table.hh"

#include <algorithm>

#include "common/log.hh"

namespace upm::vm {

SystemPageTable::RunMap::const_iterator
SystemPageTable::findRun(Vpn vpn) const
{
    auto it = runs.upper_bound(vpn);
    if (it == runs.begin())
        return runs.end();
    --it;
    if (vpn >= it->first + it->second.len)
        return runs.end();
    return it;
}

SystemPageTable::RunMap::iterator
SystemPageTable::checkFree(Vpn vpn, std::uint64_t len)
{
    auto next = runs.lower_bound(vpn);
    if (next != runs.begin()) {
        auto prev = std::prev(next);
        if (vpn < prev->first + prev->second.len)
            panic("PTE for vpn 0x%llx already present",
                  static_cast<unsigned long long>(vpn));
    }
    if (next != runs.end() && next->first < vpn + len)
        panic("PTE for vpn 0x%llx already present",
              static_cast<unsigned long long>(next->first));
    return next;
}

void
SystemPageTable::insertRange(Vpn vpn, std::uint64_t len, FrameId frame,
                             PteFlags flags)
{
    if (len == 0)
        return;
    auto next = checkFree(vpn, len);
    auto prev = next == runs.begin() ? runs.end() : std::prev(next);
    bool merge_prev = prev != runs.end() &&
                      prev->second.scatter.empty() &&
                      prev->first + prev->second.len == vpn &&
                      prev->second.frame + prev->second.len == frame &&
                      prev->second.flags == flags;
    bool merge_next = next != runs.end() &&
                      next->second.scatter.empty() &&
                      next->first == vpn + len &&
                      next->second.frame == frame + len &&
                      next->second.flags == flags;

    if (merge_prev && merge_next) {
        prev->second.len += len + next->second.len;
        runs.erase(next);
    } else if (merge_prev) {
        prev->second.len += len;
    } else if (merge_next) {
        std::uint64_t merged_len = len + next->second.len;
        runs.erase(next);
        runs.emplace(vpn, Run{merged_len, frame, flags, {}});
    } else {
        runs.emplace_hint(next, vpn, Run{len, frame, flags, {}});
    }
    presentPages += len;
}

namespace {

/** True when frames[i] == frames[0] + i throughout. */
bool
isStrided(const FrameId *frames, std::uint64_t n)
{
    for (std::uint64_t i = 1; i < n; ++i)
        if (frames[i] != frames[0] + i)
            return false;
    return true;
}

} // namespace

void
SystemPageTable::insertFrames(Vpn vpn, const FrameId *frames,
                              std::uint64_t n, PteFlags flags)
{
    if (n != 0 && isStrided(frames, n))
        insertRange(vpn, n, frames[0], flags);
    else
        insertFrames(vpn, std::vector<FrameId>(frames, frames + n), flags);
}

void
SystemPageTable::insertFrames(Vpn vpn, std::vector<FrameId> &&frames,
                              PteFlags flags)
{
    std::uint64_t n = frames.size();
    if (n == 0)
        return;
    if (isStrided(frames.data(), n)) {
        insertRange(vpn, n, frames[0], flags);
        return;
    }
    auto next = checkFree(vpn, n);
    FrameId first = frames.front();
    runs.emplace_hint(next, vpn,
                      Run{n, first, flags, std::move(frames)});
    presentPages += n;
}

std::optional<PteRun>
SystemPageTable::lookupRun(Vpn vpn) const
{
    auto it = findRun(vpn);
    if (it == runs.end())
        return std::nullopt;
    return PteRun{it->first, it->second.len, it->second.frame,
                  it->second.flags,
                  it->second.scatter.empty()
                      ? nullptr
                      : it->second.scatter.data()};
}

std::optional<FrameId>
SystemPageTable::remove(Vpn vpn)
{
    std::optional<FrameId> freed;
    removeRange(vpn, vpn + 1,
                [&](const PteRun &cut) { freed = cut.frame; });
    return freed;
}

void
SystemPageTable::setFlags(Vpn vpn, PteFlags flags)
{
    if (setFlagsRange(vpn, vpn + 1, flags) == 0)
        panic("setFlags on absent vpn 0x%llx",
              static_cast<unsigned long long>(vpn));
}

std::uint64_t
SystemPageTable::setFlagsRange(Vpn begin, Vpn end, PteFlags flags)
{
    // Carve out the affected sub-runs, then re-insert them with the new
    // flags; insertRange's merge logic restores coalescing against both
    // the untouched remainders and the outside neighbours. Scatter
    // frames must be copied out first: the callback pointers die with
    // the removal.
    struct Cut
    {
        Vpn vpn;
        std::uint64_t len;
        FrameId frame;
        std::vector<FrameId> scatter;
    };
    std::vector<Cut> affected;
    forEachRun(begin, end, [&](const PteRun &run) {
        Cut cut{run.vpn, run.len, run.frame, {}};
        if (run.scatter != nullptr)
            cut.scatter.assign(run.scatter, run.scatter + run.len);
        affected.push_back(std::move(cut));
    });
    std::uint64_t updated = 0;
    for (auto &cut : affected) {
        removeRange(cut.vpn, cut.vpn + cut.len, [](const PteRun &) {});
        if (cut.scatter.empty())
            insertRange(cut.vpn, cut.len, cut.frame, flags);
        else
            insertFrames(cut.vpn, std::move(cut.scatter), flags);
        updated += cut.len;
    }
    return updated;
}

std::uint64_t
SystemPageTable::presentInRange(Vpn begin, Vpn end) const
{
    std::uint64_t n = 0;
    forEachRun(begin, end, [&](const PteRun &run) { n += run.len; });
    return n;
}

} // namespace upm::vm
