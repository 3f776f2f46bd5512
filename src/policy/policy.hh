/**
 * @file
 * UPMPolicy: pluggable migration / eviction policies.
 *
 * The paper's performance story is a placement story: where pages
 * land (first-touch vs interleave, Section 5), when they move
 * (fault-driven migration, Section 2.1), and what gets evicted under
 * oversubscription (the UVM LRU baseline) dominate every latency and
 * bandwidth figure. Where pages land is vm::SocketPolicy's job, at
 * map/populate time in vm::AddressSpace. This module promotes the
 * other two decisions from hard-coded allocator behaviour to a policy
 * layer with two interfaces:
 *
 *  - MigrationPolicy: hot-page promotion / cold-page demotion driven
 *    by per-page access counters the fault/runtime layers already
 *    produce (see migration.hh);
 *  - EvictionPolicy: victim selection under memory pressure,
 *    replacing the single hard-coded uvm LRU (see eviction.hh).
 *
 * Determinism contract: every policy is a pure function of its seeded
 * RNG and the access stream it observed. Policies never read wall
 * clocks, never iterate unordered containers, and break every tie by
 * the lowest page key, so a decision sequence is reproducible from a
 * trace (PolicyMigrate / PolicyEvict events) alone.
 */

#ifndef UPM_POLICY_POLICY_HH
#define UPM_POLICY_POLICY_HH

#include <compare>
#include <cstdint>

namespace upm::policy {

/** Victim-selection flavour under memory pressure. */
enum class EvictionKind : std::uint8_t {
    Lru,         //!< least recently used (the pre-policy uvm default)
    Lfu,         //!< least frequently used; LRU-then-key tie-break
    Random,      //!< seeded uniform choice over resident pages
    Predictive,  //!< furthest predicted next touch (EWMA reuse gap)
};

/** Hot/cold migration flavour. */
enum class MigrationKind : std::uint8_t {
    Off,      //!< never migrate (the pre-policy default)
    HotCold,  //!< promote hot slow-tier pages, demote idle fast-tier
};

/** Memory tier a page is resident in. The fast tier is device-local
 *  HBM; the slow tier is host/link-attached memory (the uvm model's
 *  host side today, a CXL/DDR backend tomorrow). */
enum class Tier : std::uint8_t { Fast, Slow };

const char *evictionKindName(EvictionKind kind);
const char *migrationKindName(MigrationKind kind);

/** Parse helpers for --policy flags; return false on unknown names. */
bool parseEvictionKind(const char *name, EvictionKind *out);
bool parseMigrationKind(const char *name, MigrationKind *out);

/**
 * Identity of one simulated page as policies see it: an address-space
 * (or managed-region) id plus a page index. Ordered lexicographically;
 * "lowest page key" ties always mean this ordering, so victim choice
 * never depends on container representation.
 */
struct PageKey
{
    std::uint64_t space = 0;
    std::uint64_t page = 0;

    auto operator<=>(const PageKey &) const = default;
};

/** Pages [first.page, first.page + count) of space first.space. */
struct PageRun
{
    PageKey first;
    std::uint64_t count = 0;

    bool operator==(const PageRun &) const = default;
};

/** Tunables for the migration policies. */
struct MigrationConfig
{
    /** Accesses within the decay window that make a slow-tier page
     *  promotion-eligible. */
    std::uint64_t hotThreshold = 4;
    /** Ticks without an access after which a fast-tier page is
     *  demotion-eligible. */
    std::uint64_t coldTicks = 16;
    /** Promotions + demotions allowed per decision step. */
    std::uint64_t maxMovesPerStep = 64;
};

/** One policy-engine configuration (SystemConfig / ServeConfig). */
struct PolicyConfig
{
    /** Master switch: when false no engine is created and every hook
     *  stays null -- byte-identical to the pre-policy simulator. */
    bool enabled = false;

    EvictionKind eviction = EvictionKind::Lru;
    MigrationKind migration = MigrationKind::Off;
    MigrationConfig migrationTuning;

    /** Seed for the seeded policies (Random eviction). */
    std::uint64_t seed = 0x9001'cebau;
};

} // namespace upm::policy

#endif // UPM_POLICY_POLICY_HH
