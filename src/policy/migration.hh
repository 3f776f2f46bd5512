/**
 * @file
 * MigrationPolicy: hot-page promotion and cold-page demotion.
 *
 * The Grace Hopper first-look paper (PAPERS.md) shows that an
 * integrated CPU-GPU memory lives or dies by whether the hot working
 * set sits in the fast tier; CXLMemSim's migration use cases model the
 * same decision for CXL pools. This interface consumes the per-page
 * access stream the fault/runtime layers already produce (fed through
 * the null-checked `pol` hook -- byte-identical when unwired) and
 * periodically proposes bounded batches of promotions (slow -> fast)
 * and demotions (fast -> slow). The caller owns the mechanism: it
 * applies each action to its residency structures and reports the
 * move back, so policy bookkeeping and simulator state cannot drift
 * (the migration-invariant property tests check exactly this).
 *
 * HotColdMigration keeps one node per tracked page in a key-sorted
 * vector and finds a key's node through a PageIndex (page_index.hh),
 * so the per-access callbacks are one index probe. Two bitsets over
 * vector positions mark the promotion-eligible (hot) and fast-tier
 * nodes, so decide() walks set bits in key order and costs the bitset
 * words plus the moves it returns plus the fast nodes it checks for
 * coldness, never a pass over every node. A removed page leaves a
 * dead node behind, which its re-insert revives in place -- the
 * remove-then-re-add cycle every uvm eviction reports keeps the
 * vector sorted. Only a genuinely new key below the current last one
 * breaks the order; decide() then re-sorts once, and drops dead nodes
 * when they outnumber live ones.
 */

#ifndef UPM_POLICY_MIGRATION_HH
#define UPM_POLICY_MIGRATION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "policy/page_index.hh"
#include "policy/policy.hh"

namespace upm::policy {

/** One proposed page move. */
struct MigrationAction
{
    PageKey key;
    /** Tier the page should move to (Fast = promote, Slow = demote). */
    Tier to = Tier::Fast;

    bool operator==(const MigrationAction &) const = default;
};

/**
 * Hot/cold decision interface. Residency callbacks keep the policy's
 * tier map in sync with the owning simulator; decide() proposes moves
 * without applying them.
 */
class MigrationPolicy
{
  public:
    virtual ~MigrationPolicy() = default;

    /** @p key became resident in @p tier (first placement or an
     *  applied migration). Re-reporting an already-tracked key moves
     *  it between tiers. */
    virtual void onResident(PageKey key, Tier tier) = 0;

    /** onResident() for pages [first, first+count), in page order. */
    virtual void onResidentRange(PageKey first, std::uint64_t count,
                                 Tier tier);

    /** @p key left the memory system entirely (freed or evicted). */
    virtual void onRemove(PageKey key) = 0;

    /** A tracked @p key was accessed at logical time @p tick. */
    virtual void onAccess(PageKey key, std::uint64_t tick) = 0;

    /**
     * Propose a bounded batch of moves as of @p tick. Deterministic:
     * candidates are scanned in PageKey order. The caller applies the
     * actions (or drops them, e.g. when the fast tier is full) and
     * reports applied moves back through onResident().
     */
    virtual std::vector<MigrationAction> decide(std::uint64_t tick) = 0;

    /** Pages currently tracked in @p tier. */
    virtual std::uint64_t residentIn(Tier tier) const = 0;

    virtual MigrationKind kind() const = 0;
    const char *name() const { return migrationKindName(kind()); }
};

/** The Off policy: tracks nothing, proposes nothing. */
class NullMigration : public MigrationPolicy
{
  public:
    void onResident(PageKey, Tier) override {}
    void onResidentRange(PageKey, std::uint64_t, Tier) override {}
    void onRemove(PageKey) override {}
    void onAccess(PageKey, std::uint64_t) override {}
    std::vector<MigrationAction> decide(std::uint64_t) override
    {
        return {};
    }
    std::uint64_t residentIn(Tier) const override { return 0; }
    MigrationKind kind() const override { return MigrationKind::Off; }
};

/**
 * Threshold hot/cold: a slow-tier page with at least
 * MigrationConfig::hotThreshold accesses since it last moved is
 * promotion-eligible; a fast-tier page untouched for
 * MigrationConfig::coldTicks ticks is demotion-eligible. Each
 * decide() proposes at most maxMovesPerStep actions, promotions
 * first, both in ascending PageKey order.
 */
class HotColdMigration : public MigrationPolicy
{
  public:
    explicit HotColdMigration(const MigrationConfig &config)
        : cfg(config)
    {
    }

    void onResident(PageKey key, Tier tier) override;
    /** Appends the range in one step when it lies above every
     *  tracked key; otherwise reports it page by page. */
    void onResidentRange(PageKey first, std::uint64_t count,
                         Tier tier) override;
    void onRemove(PageKey key) override;
    void onAccess(PageKey key, std::uint64_t tick) override;
    std::vector<MigrationAction> decide(std::uint64_t tick) override;
    std::uint64_t residentIn(Tier tier) const override;
    MigrationKind kind() const override
    {
        return MigrationKind::HotCold;
    }

  private:
    struct Node
    {
        PageKey key;
        /** Accesses since the page last changed tier. */
        std::uint64_t accesses = 0;
        std::uint64_t lastTick = 0;
        Tier tier = Tier::Slow;
        bool live = true;  //!< false: removed, awaiting revival or drop
    };

    auto
    keyOf() const
    {
        return [this](std::uint32_t i) { return nodes[i].key; };
    }
    /** Position of @p key's live node, or kNil. */
    std::uint32_t findLive(PageKey key) const;
    /** Append live nodes for pages [first, first+count), none of them
     *  in the index. */
    void append(PageKey first, std::uint64_t count, Tier tier);
    /** Recompute both bits of the node at @p pos from its state. */
    void refresh(std::uint32_t pos);
    /** Drop dead nodes and restore key order; rebuilds the index and
     *  the bitsets. */
    void normalise();

    MigrationConfig cfg;
    /** Key-sorted unless `sorted` is false; dead nodes interleaved. */
    std::vector<Node> nodes;
    PageIndex index;  //!< key -> position in nodes, dead ones included
    /** Bit i: nodes[i] is live, slow and has at least hotThreshold
     *  accesses, i.e. a promotion to propose. */
    std::vector<std::uint64_t> hot;
    /** Bit i: nodes[i] is live and fast (a demotion candidate). */
    std::vector<std::uint64_t> fast;
    std::uint64_t liveCount = 0;
    std::uint64_t fastCount = 0;
    bool sorted = true;
};

/** Build a migration policy. */
std::unique_ptr<MigrationPolicy> makeMigration(
    MigrationKind kind, const MigrationConfig &config);

} // namespace upm::policy

#endif // UPM_POLICY_MIGRATION_HH
