/**
 * @file
 * Functional set-associative cache model with LRU replacement, the
 * test suite's oracle for the cache hierarchy's hit fractions.
 *
 * No simulated layer uses it: the timing model uses the analytic hit
 * fractions of `cache/hierarchy.hh`. tests/cache_test.cc
 * (AnalyticVsFunctional) runs it under uniform random access and
 * compares its hit rate with `CacheHierarchy::levelFractions` of a
 * one-level hierarchy.
 */

#ifndef UPM_TESTS_SET_ASSOC_CACHE_HH
#define UPM_TESTS_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/units.hh"

namespace upm::cache {

/** Static parameters of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineSize = 64;
};

/**
 * A set-associative, write-allocate, LRU cache keyed by physical
 * address. Purely functional: answers hit/miss and keeps counters.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config) : cfg(config)
    {
        if (cfg.lineSize == 0 || !isPow2(cfg.lineSize))
            fatal("cache line size must be a power of two");
        if (cfg.assoc == 0)
            fatal("cache associativity must be nonzero");
        std::uint64_t lines = cfg.sizeBytes / cfg.lineSize;
        if (lines == 0 || lines % cfg.assoc != 0)
            fatal("cache size %llu not divisible into %u-way sets",
                  static_cast<unsigned long long>(cfg.sizeBytes),
                  cfg.assoc);
        sets = static_cast<unsigned>(lines / cfg.assoc);
        if (!isPow2(sets))
            fatal("cache set count must be a power of two");
        ways.resize(static_cast<std::size_t>(sets) * cfg.assoc);
    }

    /**
     * Look up @p addr, allocating the line on miss.
     * @return true on hit.
     */
    bool
    access(std::uint64_t addr)
    {
        std::uint64_t line = lineOf(addr);
        Way *base = &ways[setOf(line) * cfg.assoc];
        ++stamp;

        Way *victim = base;
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                way.lru = stamp;
                ++hitCount;
                return true;
            }
            if (!way.valid) {
                victim = &way;
            } else if (victim->valid && way.lru < victim->lru) {
                victim = &way;
            }
        }
        victim->valid = true;
        victim->tag = line;
        victim->lru = stamp;
        ++missCount;
        return false;
    }

    /** Look up without allocating. */
    bool
    probe(std::uint64_t addr) const
    {
        std::uint64_t line = lineOf(addr);
        const Way *base = &ways[setOf(line) * cfg.assoc];
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (base[w].valid && base[w].tag == line)
                return true;
        }
        return false;
    }

    /** Invalidate one line if present. @return true if it was there. */
    bool
    invalidate(std::uint64_t addr)
    {
        std::uint64_t line = lineOf(addr);
        Way *base = &ways[setOf(line) * cfg.assoc];
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (base[w].valid && base[w].tag == line) {
                base[w].valid = false;
                return true;
            }
        }
        return false;
    }

    /** Drop all contents (the paper's benches flush 256 MiB). */
    void
    flush()
    {
        for (auto &way : ways)
            way.valid = false;
    }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    void resetStats() { hitCount = missCount = 0; }

    unsigned numSets() const { return sets; }
    const CacheConfig &config() const { return cfg; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::uint64_t
    lineOf(std::uint64_t addr) const
    {
        return addr / cfg.lineSize;
    }

    std::size_t
    setOf(std::uint64_t line) const
    {
        return static_cast<std::size_t>(line & (sets - 1));
    }

    CacheConfig cfg;
    unsigned sets = 0;
    std::vector<Way> ways;  // sets * assoc, row-major by set
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace upm::cache

#endif // UPM_TESTS_SET_ASSOC_CACHE_HH
