#include "policy/eviction.hh"

#include "common/log.hh"

namespace upm::policy {

namespace {

/** (stamp, key) order of the sorted intrusive lists. */
template <typename Node>
bool
stampBefore(const Node &a, const Node &b)
{
    return a.stamp < b.stamp || (a.stamp == b.stamp && a.key < b.key);
}

/** Link node @p id into @p list at its (stamp, key) position, walking
 *  back from the tail: O(1) for non-decreasing stamps. */
template <typename Node>
void
linkSorted(PageNodes<Node> &t, StampList &list, std::uint32_t id)
{
    Node &n = t[id];
    std::uint32_t after = list.tail;
    while (after != kNil && stampBefore(n, t[after]))
        after = t[after].prev;
    n.prev = after;
    n.next = after == kNil ? list.head : t[after].next;
    (n.next == kNil ? list.tail : t[n.next].prev) = id;
    (after == kNil ? list.head : t[after].next) = id;
}

template <typename Node>
void
unlink(PageNodes<Node> &t, StampList &list, std::uint32_t id)
{
    Node &n = t[id];
    (n.prev == kNil ? list.head : t[n.prev].next) = n.next;
    (n.next == kNil ? list.tail : t[n.next].prev) = n.prev;
}

} // namespace

// ---------------------------------------------------------------- LRU

void
LruEviction::insert(PageKey key, std::uint64_t tick)
{
    std::uint32_t id = pages.add(key);
    if (id == kNil)
        panic("LRU insert of an already-tracked page");
    pages[id].stamp = tick;
    linkSorted(pages, order, id);
}

void
LruEviction::touch(PageKey key, std::uint64_t tick)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("LRU touch of an untracked page");
    unlink(pages, order, id);
    pages[id].stamp = tick;
    linkSorted(pages, order, id);
}

void
LruEviction::remove(PageKey key)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("LRU remove of an untracked page");
    unlink(pages, order, id);
    pages.drop(id);
}

PageKey
LruEviction::evict()
{
    std::uint32_t id = order.head;
    if (id == kNil)
        panic("LRU eviction with no resident pages");
    PageKey key = pages[id].key;
    unlink(pages, order, id);
    pages.drop(id);
    return key;
}

// ---------------------------------------------------------------- LFU

std::uint32_t
LfuEviction::bucketAfter(std::uint32_t after, std::uint64_t freq)
{
    std::uint32_t next = after == kNil ? minBucket : buckets[after].next;
    if (next != kNil && buckets[next].freq == freq)
        return next;
    std::uint32_t id;
    if (freeBuckets.empty()) {
        id = static_cast<std::uint32_t>(buckets.size());
        buckets.emplace_back();
    } else {
        id = freeBuckets.back();
        freeBuckets.pop_back();
    }
    buckets[id] = Bucket{freq, {}, after, next};
    (after == kNil ? minBucket : buckets[after].next) = id;
    if (next != kNil)
        buckets[next].prev = id;
    return id;
}

void
LfuEviction::leaveBucket(std::uint32_t id)
{
    std::uint32_t b = pages[id].bucket;
    StampList &list = buckets[b].pages;
    unlink(pages, list, id);
    if (list.head != kNil)
        return;
    // The bucket emptied: splice it out of the chain. When it was the
    // minimum, the next-higher frequency becomes the minimum.
    Bucket &bucket = buckets[b];
    (bucket.prev == kNil ? minBucket : buckets[bucket.prev].next) =
        bucket.next;
    if (bucket.next != kNil)
        buckets[bucket.next].prev = bucket.prev;
    freeBuckets.push_back(b);
}

void
LfuEviction::insert(PageKey key, std::uint64_t tick)
{
    std::uint32_t id = pages.add(key);
    if (id == kNil)
        panic("LFU insert of an already-tracked page");
    std::uint32_t b = bucketAfter(kNil, 1);
    pages[id].stamp = tick;
    pages[id].bucket = b;
    linkSorted(pages, buckets[b].pages, id);
}

void
LfuEviction::touch(PageKey key, std::uint64_t tick)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("LFU touch of an untracked page");
    // Find (or make) the next bucket before leaving this one: an
    // emptied bucket is spliced out, and its id may be reused.
    std::uint32_t from = pages[id].bucket;
    std::uint32_t to = bucketAfter(from, buckets[from].freq + 1);
    leaveBucket(id);
    pages[id].stamp = tick;
    pages[id].bucket = to;
    linkSorted(pages, buckets[to].pages, id);
}

void
LfuEviction::remove(PageKey key)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("LFU remove of an untracked page");
    leaveBucket(id);
    pages.drop(id);
}

PageKey
LfuEviction::evict()
{
    if (minBucket == kNil)
        panic("LFU eviction with no resident pages");
    std::uint32_t id = buckets[minBucket].pages.head;
    PageKey key = pages[id].key;
    leaveBucket(id);
    pages.drop(id);
    return key;
}

// ------------------------------------------------------------- Random

void
RandomEviction::insert(PageKey key, std::uint64_t tick)
{
    (void)tick;
    std::uint32_t id = pages.add(key);
    if (id == kNil)
        panic("random-eviction insert of an already-tracked page");
    pages[id].slot = slots.size();
    slots.push_back(id);
}

void
RandomEviction::touch(PageKey key, std::uint64_t tick)
{
    (void)tick;
    if (pages.find(key) == kNil)
        panic("random-eviction touch of an untracked page");
}

void
RandomEviction::swapRemove(std::uint64_t slot)
{
    if (slot + 1 != slots.size()) {
        slots[slot] = slots.back();
        pages[slots[slot]].slot = slot;
    }
    slots.pop_back();
}

void
RandomEviction::remove(PageKey key)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("random-eviction remove of an untracked page");
    swapRemove(pages[id].slot);
    pages.drop(id);
}

PageKey
RandomEviction::evict()
{
    if (slots.empty())
        panic("random eviction with no resident pages");
    std::uint64_t slot = rng.nextBelow(slots.size());
    std::uint32_t id = slots[slot];
    PageKey key = pages[id].key;
    swapRemove(slot);
    pages.drop(id);
    return key;
}

// --------------------------------------------------------- Predictive

std::uint64_t
PredictiveEviction::predictedNext(const Node &node)
{
    if (node.ewmaGap == kNeverReused)
        return kNeverReused;
    std::uint64_t next = node.stamp + node.ewmaGap;
    return next < node.stamp ? kNeverReused : next;  // overflow clamp
}

bool
PredictiveEviction::precedes(std::uint32_t a, std::uint32_t b) const
{
    const Node &x = pages[a];
    const Node &y = pages[b];
    std::uint64_t px = predictedNext(x);
    std::uint64_t py = predictedNext(y);
    if (px != py)
        return px > py;
    return stampBefore(x, y);
}

void
PredictiveEviction::heapSet(std::uint32_t pos, std::uint32_t id)
{
    heap[pos] = id;
    pages[id].heapPos = pos;
}

void
PredictiveEviction::siftUp(std::uint32_t pos)
{
    std::uint32_t id = heap[pos];
    while (pos > 0) {
        std::uint32_t parent = (pos - 1) / 2;
        if (!precedes(id, heap[parent]))
            break;
        heapSet(pos, heap[parent]);
        pos = parent;
    }
    heapSet(pos, id);
}

void
PredictiveEviction::siftDown(std::uint32_t pos)
{
    std::uint32_t id = heap[pos];
    std::uint64_t n = heap.size();
    for (;;) {
        std::uint64_t child = 2 * std::uint64_t{pos} + 1;
        if (child >= n)
            break;
        if (child + 1 < n && precedes(heap[child + 1], heap[child]))
            ++child;
        if (!precedes(heap[child], id))
            break;
        heapSet(pos, heap[child]);
        pos = static_cast<std::uint32_t>(child);
    }
    heapSet(pos, id);
}

void
PredictiveEviction::attach(std::uint32_t id)
{
    if (pages[id].ewmaGap == kNeverReused) {
        linkSorted(pages, fresh, id);
        return;
    }
    heap.push_back(id);
    siftUp(static_cast<std::uint32_t>(heap.size() - 1));
}

void
PredictiveEviction::detach(std::uint32_t id)
{
    std::uint32_t pos = pages[id].heapPos;
    if (pos == kNil) {
        unlink(pages, fresh, id);
        return;
    }
    pages[id].heapPos = kNil;
    std::uint32_t last = heap.back();
    heap.pop_back();
    if (last == id)
        return;
    heapSet(pos, last);
    siftUp(pos);
    siftDown(pages[last].heapPos);
}

void
PredictiveEviction::insert(PageKey key, std::uint64_t tick)
{
    std::uint32_t id = pages.add(key);
    if (id == kNil)
        panic("predictive insert of an already-tracked page");
    pages[id].stamp = tick;
    attach(id);
}

void
PredictiveEviction::touch(PageKey key, std::uint64_t tick)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("predictive touch of an untracked page");
    detach(id);
    Node &node = pages[id];
    std::uint64_t gap = tick - node.stamp;
    node.ewmaGap = node.ewmaGap == kNeverReused
                       ? gap
                       : (3 * node.ewmaGap + gap) / 4;
    node.stamp = tick;
    attach(id);
}

void
PredictiveEviction::remove(PageKey key)
{
    std::uint32_t id = pages.find(key);
    if (id == kNil)
        panic("predictive remove of an untracked page");
    detach(id);
    pages.drop(id);
}

PageKey
PredictiveEviction::evict()
{
    // Fresh pages all predict "never", the furthest possible; a heap
    // page can only tie them through the overflow clamp.
    std::uint32_t id = fresh.head;
    if (id == kNil || (!heap.empty() && precedes(heap.front(), id)))
        id = heap.empty() ? kNil : heap.front();
    if (id == kNil)
        panic("predictive eviction with no resident pages");
    PageKey key = pages[id].key;
    detach(id);
    pages.drop(id);
    return key;
}

// ------------------------------------------------------------ factory

std::unique_ptr<EvictionPolicy>
makeEviction(EvictionKind kind, std::uint64_t seed)
{
    switch (kind) {
      case EvictionKind::Lru:
        return std::make_unique<LruEviction>();
      case EvictionKind::Lfu:
        return std::make_unique<LfuEviction>();
      case EvictionKind::Random:
        return std::make_unique<RandomEviction>(seed);
      case EvictionKind::Predictive:
        return std::make_unique<PredictiveEviction>();
    }
    panic("unknown eviction kind %u", static_cast<unsigned>(kind));
}

} // namespace upm::policy
