#include "policy/migration.hh"

#include <algorithm>

#include "common/log.hh"

namespace upm::policy {

void
MigrationPolicy::onResidentRange(PageKey first, std::uint64_t count,
                                 Tier tier)
{
    for (std::uint64_t i = 0; i < count; ++i)
        onResident({first.space, first.page + i}, tier);
}

HotColdMigration::Node *
HotColdMigration::findLive(PageKey key)
{
    std::uint32_t id = index.find(key, keyOf());
    if (id == kNil || !nodes[id].live)
        return nullptr;
    return &nodes[id];
}

void
HotColdMigration::onResident(PageKey key, Tier tier)
{
    std::uint32_t id = index.find(key, keyOf());
    if (id != kNil && nodes[id].live) {
        Node &node = nodes[id];
        if (node.tier == tier)
            return;  // re-report in place; nothing moved
        if (node.tier == Tier::Fast)
            --fastCount;
        node.tier = tier;
        node.accesses = 0;
    } else if (id != kNil) {
        nodes[id] = Node{key, 0, 0, tier, true};  // revive in place
        ++liveCount;
    } else {
        if (nodes.size() - liveCount > liveCount)
            normalise();
        if (!nodes.empty() && key < nodes.back().key)
            sorted = false;
        nodes.push_back(Node{key, 0, 0, tier, true});
        index.insert(key, static_cast<std::uint32_t>(nodes.size() - 1),
                     keyOf());
        ++liveCount;
    }
    if (tier == Tier::Fast)
        ++fastCount;
}

void
HotColdMigration::onResidentRange(PageKey first, std::uint64_t count,
                                  Tier tier)
{
    // One allocation each rather than a doubling series: a new managed
    // region reports every page at once.
    std::uint64_t want = nodes.size() + count;
    if (want > nodes.capacity())
        nodes.reserve(std::max<std::uint64_t>(want, 2 * nodes.capacity()));
    index.reserve(index.size() + count, keyOf());
    MigrationPolicy::onResidentRange(first, count, tier);
}

void
HotColdMigration::onRemove(PageKey key)
{
    // Untracked keys are tolerated: callers may report removals for
    // pages that predate the engine being wired.
    Node *node = findLive(key);
    if (node == nullptr)
        return;
    if (node->tier == Tier::Fast)
        --fastCount;
    node->live = false;
    --liveCount;
}

void
HotColdMigration::onAccess(PageKey key, std::uint64_t tick)
{
    Node *node = findLive(key);
    if (node == nullptr)
        return;
    ++node->accesses;
    node->lastTick = tick;
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
    for (std::uint32_t i = 0; i < nodes.size(); ++i)
        index.insert(nodes[i].key, i, keyOf());
}

std::vector<MigrationAction>
HotColdMigration::decide(std::uint64_t tick)
{
    if (!sorted || nodes.size() - liveCount > liveCount)
        normalise();
    std::vector<MigrationAction> actions;
    // Promotions first: the fast tier is where accesses are cheap, so
    // hot pages take priority over housekeeping demotions.
    for (const Node &node : nodes) {
        if (actions.size() >= cfg.maxMovesPerStep)
            return actions;
        if (node.live && node.tier == Tier::Slow &&
            node.accesses >= cfg.hotThreshold)
            actions.push_back({node.key, Tier::Fast});
    }
    for (const Node &node : nodes) {
        if (actions.size() >= cfg.maxMovesPerStep)
            return actions;
        if (node.live && node.tier == Tier::Fast &&
            tick - node.lastTick >= cfg.coldTicks)
            actions.push_back({node.key, Tier::Slow});
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
