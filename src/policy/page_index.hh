/**
 * @file
 * PageIndex: the flat PageKey -> node-id index every per-page policy
 * structure shares; RunNodes: the ordered run table of the
 * run-coalesced eviction policies.
 *
 * Open addressing with linear probing over a power-of-two slot array,
 * kept at most half full. A slot holds a 4-byte node id, never the
 * key: the key lives in the caller's node and is read back through a
 * `keyOf(id)` accessor, so 65,536 tracked pages cost 512 KiB of slots
 * rather than the 4 MiB that 16-byte keys would need at the same
 * load. Deletion is by backward shift (no tombstones), so probe
 * chains never lengthen under the insert/remove churn of eviction.
 *
 * The index is a lookup structure only: nothing iterates it, so its
 * layout can never leak into a decision order (policy.hh's
 * determinism contract).
 */

#ifndef UPM_POLICY_PAGE_INDEX_HH
#define UPM_POLICY_PAGE_INDEX_HH

#include <cstdint>
#include <map>
#include <vector>

#include "policy/policy.hh"

namespace upm::policy {

/** Node-id sentinel: "no node" in indexes and intrusive links. */
inline constexpr std::uint32_t kNil = ~0u;

class PageIndex
{
  public:
    /** Node id of @p key, or kNil. */
    template <typename KeyOf>
    std::uint32_t
    find(PageKey key, const KeyOf &keyOf) const
    {
        if (live == 0)
            return kNil;
        for (std::uint64_t i = home(key);; i = (i + 1) & mask) {
            std::uint32_t id = slots[i];
            if (id == kNil || keyOf(id) == key)
                return id;
        }
    }

    /** Index node @p id under @p key, which must be absent. */
    template <typename KeyOf>
    void
    insert(PageKey key, std::uint32_t id, const KeyOf &keyOf)
    {
        if (2 * (live + 1) > slots.size())
            rehash(slots.empty() ? kInitialSlots : 2 * slots.size(), keyOf);
        place(key, id);
        ++live;
    }

    /** Size the table for @p n entries in one step, so inserting up
     *  to @p n never rehashes. */
    template <typename KeyOf>
    void
    reserve(std::uint64_t n, const KeyOf &keyOf)
    {
        std::uint64_t size = slots.empty() ? kInitialSlots : slots.size();
        while (2 * n > size)
            size *= 2;
        if (size != slots.size())
            rehash(size, keyOf);
    }

    /** Drop node @p id, indexed under @p key. */
    template <typename KeyOf>
    void
    erase(PageKey key, std::uint32_t id, const KeyOf &keyOf)
    {
        std::uint64_t hole = home(key);
        while (slots[hole] != id)
            hole = (hole + 1) & mask;
        // Backward shift: pull each later chain member whose home does
        // not lie cyclically in (hole, j] into the hole.
        for (std::uint64_t j = (hole + 1) & mask; slots[j] != kNil;
             j = (j + 1) & mask) {
            std::uint64_t h = home(keyOf(slots[j]));
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots[hole] = slots[j];
                hole = j;
            }
        }
        slots[hole] = kNil;
        --live;
    }

    /** Forget every entry; keeps the slot array. */
    void
    clear()
    {
        slots.assign(slots.size(), kNil);
        live = 0;
    }

    std::uint64_t size() const { return live; }

  private:
    std::uint64_t
    home(PageKey key) const
    {
        std::uint64_t h =
            ((key.space * 0x9e3779b97f4a7c15ull) ^ key.page) *
            0xbf58476d1ce4e5b9ull;
        return h >> shift;
    }

    void
    place(PageKey key, std::uint32_t id)
    {
        std::uint64_t i = home(key);
        while (slots[i] != kNil)
            i = (i + 1) & mask;
        slots[i] = id;
    }

    /** Move every entry into a fresh table of @p size slots. */
    template <typename KeyOf>
    void
    rehash(std::uint64_t size, const KeyOf &keyOf)
    {
        std::vector<std::uint32_t> old(size, kNil);
        old.swap(slots);
        mask = slots.size() - 1;
        shift = 64;
        for (std::uint64_t n = slots.size(); n > 1; n >>= 1)
            --shift;
        for (std::uint32_t id : old) {
            if (id != kNil)
                place(keyOf(id), id);
        }
    }

    static constexpr std::uint64_t kInitialSlots = 64;

    std::vector<std::uint32_t> slots;
    std::uint64_t mask = 0;
    unsigned shift = 64;
    std::uint64_t live = 0;
};

/**
 * Per-page node storage (RandomEviction's): nodes addressed by dense
 * 4-byte ids, a PageIndex over them, and a free list so a removed
 * page's slot is reused by the next insert. @p Node must carry a
 * `PageKey key` member.
 */
template <typename Node>
class PageNodes
{
  public:
    /** Id of @p key's node, or kNil. */
    std::uint32_t
    find(PageKey key) const
    {
        return index.find(key, keyOf());
    }

    /** Track @p key in a value-initialised node and return its id;
     *  kNil when @p key is already tracked. */
    std::uint32_t
    add(PageKey key)
    {
        if (find(key) != kNil)
            return kNil;
        std::uint32_t id;
        if (freeIds.empty()) {
            id = static_cast<std::uint32_t>(nodes.size());
            nodes.emplace_back();
        } else {
            id = freeIds.back();
            freeIds.pop_back();
            nodes[id] = Node{};
        }
        nodes[id].key = key;
        index.insert(key, id, keyOf());
        return id;
    }

    /** Stop tracking node @p id; its slot becomes reusable. */
    void
    drop(std::uint32_t id)
    {
        index.erase(nodes[id].key, id, keyOf());
        freeIds.push_back(id);
    }

    Node &operator[](std::uint32_t id) { return nodes[id]; }
    const Node &operator[](std::uint32_t id) const { return nodes[id]; }

    std::uint64_t size() const { return index.size(); }

  private:
    auto
    keyOf() const
    {
        return [this](std::uint32_t id) { return nodes[id].key; };
    }

    std::vector<Node> nodes;
    std::vector<std::uint32_t> freeIds;
    PageIndex index;
};

/**
 * Node storage for run-coalesced policy state: one node per run of
 * consecutive pages of one space, addressed by dense 4-byte ids, with
 * an ordered index keyed by each run's end (its space and one past its
 * last page). A hash index cannot say which run holds a page; the
 * ordered one answers with one upper_bound. Keying by the end lets a
 * run shed pages off its head -- the eviction path -- without touching
 * the index. @p Node must carry `PageKey first` and
 * `std::uint64_t count` members.
 */
template <typename Node>
class RunNodes
{
  public:
    /** Id of the first run of @p key's space that ends after @p key,
     *  whether or not it holds @p key; kNil when there is none. */
    std::uint32_t
    firstEndingAfter(PageKey key) const
    {
        auto it = index.upper_bound(key);
        if (it == index.end() || it->first.space != key.space)
            return kNil;
        return it->second;
    }

    /** Id of the run holding @p key, or kNil. */
    std::uint32_t
    find(PageKey key) const
    {
        std::uint32_t id = firstEndingAfter(key);
        return id != kNil && nodes[id].first.page <= key.page ? id : kNil;
    }

    /** Id of the run whose last page is just below @p key, or kNil. */
    std::uint32_t
    endingAt(PageKey key) const
    {
        auto it = index.find(key);
        return it == index.end() ? kNil : it->second;
    }

    /** Track pages [first, first+count), which must be untracked, in
     *  a value-initialised node and return its id. */
    std::uint32_t
    add(PageKey first, std::uint64_t count)
    {
        std::uint32_t id;
        if (freeIds.empty()) {
            id = static_cast<std::uint32_t>(nodes.size());
            nodes.emplace_back();
        } else {
            id = freeIds.back();
            freeIds.pop_back();
            nodes[id] = Node{};
        }
        nodes[id].first = first;
        nodes[id].count = count;
        index.emplace(PageKey{first.space, first.page + count}, id);
        tracked += count;
        return id;
    }

    /** Stop tracking run @p id; its node becomes reusable. */
    void
    drop(std::uint32_t id)
    {
        index.erase(endOf(id));
        tracked -= nodes[id].count;
        freeIds.push_back(id);
    }

    /** Drop the first @p n pages of run @p id, which keeps more. */
    void
    trimHead(std::uint32_t id, std::uint64_t n)
    {
        nodes[id].first.page += n;
        nodes[id].count -= n;
        tracked -= n;
    }

    /** Move the end of run @p id to @p page, growing or shrinking it
     *  at the tail; the pages gained must be untracked. */
    void
    setEnd(std::uint32_t id, std::uint64_t page)
    {
        auto entry = index.extract(endOf(id));
        entry.key().page = page;
        index.insert(std::move(entry));
        Node &n = nodes[id];
        tracked = tracked - n.count + (page - n.first.page);
        n.count = page - n.first.page;
    }

    Node &operator[](std::uint32_t id) { return nodes[id]; }
    const Node &operator[](std::uint32_t id) const { return nodes[id]; }

    /** Pages tracked across every run. */
    std::uint64_t pages() const { return tracked; }
    /** Runs tracked. */
    std::uint64_t size() const { return index.size(); }

  private:
    PageKey
    endOf(std::uint32_t id) const
    {
        return {nodes[id].first.space,
                nodes[id].first.page + nodes[id].count};
    }

    std::vector<Node> nodes;
    std::vector<std::uint32_t> freeIds;
    std::map<PageKey, std::uint32_t> index;  //!< run end -> node id
    std::uint64_t tracked = 0;
};

} // namespace upm::policy

#endif // UPM_POLICY_PAGE_INDEX_HH
