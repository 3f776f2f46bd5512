#include "policy/migration.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace upm::policy {

void
MigrationPolicy::onResidentRange(PageKey first, std::uint64_t count,
                                 Tier tier)
{
    for (std::uint64_t i = 0; i < count; ++i)
        onResident({first.space, first.page + i}, tier);
}

std::uint32_t
HotColdMigration::findLive(PageKey key) const
{
    std::uint32_t pos = index.find(key, keyOf());
    return pos != kNil && nodes[pos].live ? pos : kNil;
}

void
HotColdMigration::append(PageKey first, std::uint64_t count, Tier tier)
{
    // One pass per structure, not one page through all of them: a new
    // managed region appends every page at once.
    auto base = static_cast<std::uint32_t>(nodes.size());
    for (std::uint64_t i = 0; i < count; ++i)
        nodes.push_back(
            Node{{first.space, first.page + i}, 0, 0, tier, true});
    for (std::uint32_t pos = base; pos < nodes.size(); ++pos)
        index.insert(nodes[pos].key, pos, keyOf());
    hot.resize((nodes.size() + 63) / 64);
    fast.resize(hot.size());
    for (std::uint32_t pos = base; pos < nodes.size(); ++pos)
        refresh(pos);
    liveCount += count;
    if (tier == Tier::Fast)
        fastCount += count;
}

void
HotColdMigration::refresh(std::uint32_t pos)
{
    const Node &node = nodes[pos];
    std::uint64_t bit = 1ull << (pos % 64);
    bool isFast = node.live && node.tier == Tier::Fast;
    bool isHot = node.live && node.tier == Tier::Slow &&
                 node.accesses >= cfg.hotThreshold;
    hot[pos / 64] = isHot ? hot[pos / 64] | bit : hot[pos / 64] & ~bit;
    fast[pos / 64] = isFast ? fast[pos / 64] | bit : fast[pos / 64] & ~bit;
}

void
HotColdMigration::onResident(PageKey key, Tier tier)
{
    std::uint32_t pos = index.find(key, keyOf());
    if (pos == kNil) {
        if (nodes.size() - liveCount > liveCount)
            normalise();
        if (!nodes.empty() && key < nodes.back().key)
            sorted = false;
        append(key, 1, tier);
        return;
    }
    Node &node = nodes[pos];
    if (node.live) {
        if (node.tier == tier)
            return;  // re-report in place; nothing moved
        if (node.tier == Tier::Fast)
            --fastCount;
        node.tier = tier;
        node.accesses = 0;
    } else {
        node = Node{key, 0, 0, tier, true};  // revive in place
        ++liveCount;
    }
    refresh(pos);
    if (tier == Tier::Fast)
        ++fastCount;
}

void
HotColdMigration::onResidentRange(PageKey first, std::uint64_t count,
                                  Tier tier)
{
    if (!sorted || (!nodes.empty() && !(nodes.back().key < first))) {
        MigrationPolicy::onResidentRange(first, count, tier);
        return;
    }
    // Every key of the range is new and lands after the last node, dead
    // ones included, so the range appends in order. Size the vector and
    // the index once rather than by doubling.
    if (nodes.size() - liveCount > liveCount)
        normalise();
    std::uint64_t want = nodes.size() + count;
    if (want > nodes.capacity())
        nodes.reserve(std::max<std::uint64_t>(want, 2 * nodes.capacity()));
    index.reserve(index.size() + count, keyOf());
    append(first, count, tier);
}

void
HotColdMigration::onRemove(PageKey key)
{
    // Untracked keys are tolerated: callers may report removals for
    // pages that predate the engine being wired.
    std::uint32_t pos = findLive(key);
    if (pos == kNil)
        return;
    if (nodes[pos].tier == Tier::Fast)
        --fastCount;
    nodes[pos].live = false;
    refresh(pos);
    --liveCount;
}

void
HotColdMigration::onAccess(PageKey key, std::uint64_t tick)
{
    std::uint32_t pos = findLive(key);
    if (pos == kNil)
        return;
    Node &node = nodes[pos];
    node.lastTick = tick;
    // The hot bit changes only where the count crosses the threshold.
    if (++node.accesses == cfg.hotThreshold)
        refresh(pos);
}

void
HotColdMigration::normalise()
{
    std::erase_if(nodes, [](const Node &n) { return !n.live; });
    if (!sorted) {
        std::sort(nodes.begin(), nodes.end(),
                  [](const Node &a, const Node &b) {
                      return a.key < b.key;
                  });
        sorted = true;
    }
    index.clear();
    hot.assign((nodes.size() + 63) / 64, 0);
    fast.assign(hot.size(), 0);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        index.insert(nodes[i].key, i, keyOf());
        refresh(i);
    }
}

std::vector<MigrationAction>
HotColdMigration::decide(std::uint64_t tick)
{
    if (!sorted || nodes.size() - liveCount > liveCount)
        normalise();
    std::vector<MigrationAction> actions;
    if (cfg.maxMovesPerStep == 0)
        return actions;
    // Promotions first: the fast tier is where accesses are cheap, so
    // hot pages take priority over housekeeping demotions. Bit order
    // is position order, which is key order once sorted.
    for (std::size_t w = 0; w < hot.size(); ++w) {
        for (std::uint64_t bits = hot[w]; bits != 0; bits &= bits - 1) {
            std::size_t pos = 64 * w + std::countr_zero(bits);
            actions.push_back({nodes[pos].key, Tier::Fast});
            if (actions.size() >= cfg.maxMovesPerStep)
                return actions;
        }
    }
    for (std::size_t w = 0; w < fast.size(); ++w) {
        for (std::uint64_t bits = fast[w]; bits != 0; bits &= bits - 1) {
            const Node &node = nodes[64 * w + std::countr_zero(bits)];
            if (tick - node.lastTick < cfg.coldTicks)
                continue;
            actions.push_back({node.key, Tier::Slow});
            if (actions.size() >= cfg.maxMovesPerStep)
                return actions;
        }
    }
    return actions;
}

std::uint64_t
HotColdMigration::residentIn(Tier tier) const
{
    return tier == Tier::Fast ? fastCount : liveCount - fastCount;
}

std::unique_ptr<MigrationPolicy>
makeMigration(MigrationKind kind, const MigrationConfig &config)
{
    switch (kind) {
      case MigrationKind::Off:
        return std::make_unique<NullMigration>();
      case MigrationKind::HotCold:
        return std::make_unique<HotColdMigration>(config);
    }
    panic("unknown migration kind %u", static_cast<unsigned>(kind));
}

} // namespace upm::policy
