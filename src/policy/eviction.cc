#include "policy/eviction.hh"

#include <algorithm>

#include "common/log.hh"

namespace upm::policy {

namespace {

/** Append @p run to @p out, extending the last run when @p run
 *  continues it. */
void
appendRun(std::vector<PageRun> &out, PageRun run)
{
    if (!out.empty() && out.back().first.space == run.first.space &&
        out.back().first.page + out.back().count == run.first.page)
        out.back().count += run.count;
    else
        out.push_back(run);
}

} // namespace

// ------------------------------------------------------ EvictionPolicy

void
EvictionPolicy::evictRuns(std::uint64_t k, std::vector<PageRun> &out)
{
    while (k > 0) {
        PageRun run = evictRun(k);
        k -= run.count;
        appendRun(out, run);
    }
}

void
EvictionPolicy::admitRun(PageKey first, std::uint64_t count,
                         std::uint64_t tick, std::uint64_t room,
                         std::vector<PageRun> &victims)
{
    if (count == 0)
        return;
    std::uint64_t evictions = count > room ? count - room : 0;
    // With no room, the first page's eviction comes before any
    // admitted page exists and may take a page that orders after them.
    // Every later eviction has the admitted pages to choose from, and
    // they order after exactly the pages evicted ahead of them.
    if (room == 0) {
        evictRuns(1, victims);
        --evictions;
    }
    insertRun(first, count, tick);
    evictRuns(evictions, victims);
}

// --------------------------------------------------------- RunEviction

bool
RunEviction::stampBefore(std::uint32_t a, std::uint32_t b) const
{
    const Run &x = runs[a];
    const Run &y = runs[b];
    return x.stamp < y.stamp || (x.stamp == y.stamp && x.first < y.first);
}

void
RunEviction::linkSorted(StampList &list, std::uint32_t id)
{
    std::uint32_t after = list.tail;
    while (after != kNil && stampBefore(id, after))
        after = runs[after].prev;
    linkBefore(list, id, after == kNil ? list.head : runs[after].next);
}

void
RunEviction::linkBefore(StampList &list, std::uint32_t id,
                        std::uint32_t next)
{
    Run &n = runs[id];
    n.next = next;
    n.prev = next == kNil ? list.tail : runs[next].prev;
    (n.next == kNil ? list.tail : runs[n.next].prev) = id;
    (n.prev == kNil ? list.head : runs[n.prev].next) = id;
}

void
RunEviction::unlink(StampList &list, std::uint32_t id)
{
    Run &n = runs[id];
    (n.prev == kNil ? list.head : runs[n.prev].next) = n.next;
    (n.next == kNil ? list.tail : runs[n.next].prev) = n.prev;
}

void
RunEviction::splitHead(std::uint32_t id, std::uint64_t page)
{
    std::uint64_t n = page - runs[id].first.page;
    std::uint32_t head = runs.add(runs[id].first, n);
    runs[head].stamp = runs[id].stamp;
    runs[head].aux = runs[id].aux;
    runs.trimHead(id, n);
    attachBefore(head, id);
}

void
RunEviction::takeHead(std::uint32_t id, std::uint64_t n)
{
    if (n < runs[id].count) {
        runs.trimHead(id, n);
        return;
    }
    detach(id);
    runs.drop(id);
}

void
RunEviction::mergeRight(std::uint32_t id)
{
    std::uint64_t end = runs[id].first.page + runs[id].count;
    std::uint32_t right = runs.find({runs[id].first.space, end});
    if (right == kNil || !sameState(right, runs[id]))
        return;
    end += runs[right].count;
    takeHead(right, runs[right].count);
    runs.setEnd(id, end);
}

void
RunEviction::insertRun(PageKey first, std::uint64_t count,
                       std::uint64_t tick)
{
    if (count == 0)
        return;
    std::uint32_t over = runs.firstEndingAfter(first);
    if (over != kNil && runs[over].first.page < first.page + count)
        panic("%s insert of an already-tracked page", name());
    Run fresh;
    fresh.stamp = tick;
    fresh.aux = freshAux;
    std::uint32_t id = runs.endingAt(first);
    if (id != kNil && sameState(id, fresh)) {
        runs.setEnd(id, first.page + count);
    } else {
        id = runs.add(first, count);
        runs[id].stamp = tick;
        runs[id].aux = freshAux;
        attach(id, kNil);
    }
    mergeRight(id);
}

void
RunEviction::touchRun(PageKey first, std::uint64_t count,
                      std::uint64_t tick)
{
    if (count == 0)
        return;
    std::uint32_t id = runs.find(first);
    if (id == kNil)
        panic("%s touch of an untracked page", name());
    if (runs[id].first.page < first.page)
        splitHead(id, first.page);
    const std::uint64_t end = first.page + count;
    // The run the current piece joins when their states match: the
    // left neighbour, then the last touched piece.
    std::uint32_t prev = runs.endingAt(first);
    for (std::uint64_t at = first.page;;) {
        Run next = runs[id];
        retouch(next, tick);
        std::uint64_t n = std::min(next.count, end - at);
        if (prev != kNil && sameState(prev, next)) {
            takeHead(id, n);
            runs.setEnd(prev, at + n);
        } else if (n == next.count) {
            // The whole run was touched: restate it where it is.
            std::uint32_t slot = touchSlot(id);
            detach(id);
            runs[id].stamp = next.stamp;
            runs[id].aux = next.aux;
            attach(id, slot);
            prev = id;
        } else {
            // Its head was touched: the run keeps the untouched tail.
            std::uint32_t slot = touchSlot(id);
            runs.trimHead(id, n);
            prev = runs.add({first.space, at}, n);
            runs[prev].stamp = next.stamp;
            runs[prev].aux = next.aux;
            attach(prev, slot);
        }
        at += n;
        if (at == end)
            break;
        id = runs.find({first.space, at});
        if (id == kNil)
            panic("%s touch of an untracked page", name());
    }
    mergeRight(prev);
}

void
RunEviction::removeRun(PageKey first, std::uint64_t count)
{
    const std::uint64_t end = first.page + count;
    for (std::uint64_t at = first.page; at < end;) {
        std::uint32_t id = runs.find({first.space, at});
        if (id == kNil)
            panic("%s remove of an untracked page", name());
        if (runs[id].first.page < at)
            splitHead(id, at);
        std::uint64_t n = std::min(runs[id].count, end - at);
        takeHead(id, n);
        at += n;
    }
}

PageRun
RunEviction::evictRun(std::uint64_t max)
{
    std::uint32_t id = leader();
    if (id == kNil)
        panic("%s eviction with no resident pages", name());
    PageRun out{runs[id].first, std::min(max, runs[id].count)};
    takeHead(id, out.count);
    return out;
}

// ---------------------------------------------------------------- LRU

void
LruEviction::retouch(Run &run, std::uint64_t tick) const
{
    run.stamp = tick;
}

void
LruEviction::attach(std::uint32_t id, std::uint32_t slot)
{
    (void)slot;
    linkSorted(order, id);
}

void
LruEviction::attachBefore(std::uint32_t id, std::uint32_t next)
{
    linkBefore(order, id, next);
}

void
LruEviction::detach(std::uint32_t id)
{
    unlink(order, id);
}

// ---------------------------------------------------------------- LFU

void
LfuEviction::retouch(Run &run, std::uint64_t tick) const
{
    ++run.aux;
    run.stamp = tick;
}

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

std::uint32_t
LfuEviction::touchSlot(std::uint32_t id)
{
    // Found (or made) while the run still holds its bucket: an emptied
    // bucket is spliced out, and its id may be reused.
    return bucketAfter(runs[id].slot, runs[id].aux + 1);
}

void
LfuEviction::attach(std::uint32_t id, std::uint32_t slot)
{
    if (slot == kNil)
        slot = bucketAfter(kNil, runs[id].aux);
    runs[id].slot = slot;
    linkSorted(buckets[slot].runs, id);
}

void
LfuEviction::attachBefore(std::uint32_t id, std::uint32_t next)
{
    runs[id].slot = runs[next].slot;
    linkBefore(buckets[runs[id].slot].runs, id, next);
}

void
LfuEviction::detach(std::uint32_t id)
{
    std::uint32_t b = runs[id].slot;
    StampList &list = buckets[b].runs;
    unlink(list, id);
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

// ------------------------------------------------------------- Random

void
RandomEviction::insertRun(PageKey first, std::uint64_t count,
                          std::uint64_t tick)
{
    (void)tick;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t id = pages.add({first.space, first.page + i});
        if (id == kNil)
            panic("random-eviction insert of an already-tracked page");
        pages[id].slot = slots.size();
        slots.push_back(id);
    }
}

void
RandomEviction::touchRun(PageKey first, std::uint64_t count,
                         std::uint64_t tick)
{
    (void)tick;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (pages.find({first.space, first.page + i}) == kNil)
            panic("random-eviction touch of an untracked page");
    }
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
RandomEviction::removeRun(PageKey first, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t id = pages.find({first.space, first.page + i});
        if (id == kNil)
            panic("random-eviction remove of an untracked page");
        swapRemove(pages[id].slot);
        pages.drop(id);
    }
}

PageRun
RandomEviction::evictRun(std::uint64_t max)
{
    (void)max;
    if (slots.empty())
        panic("random eviction with no resident pages");
    std::uint64_t slot = rng.nextBelow(slots.size());
    std::uint32_t id = slots[slot];
    PageKey key = pages[id].key;
    swapRemove(slot);
    pages.drop(id);
    return {key, 1};
}

void
RandomEviction::admitRun(PageKey first, std::uint64_t count,
                         std::uint64_t tick, std::uint64_t room,
                         std::vector<PageRun> &victims)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        if (room == 0)
            appendRun(victims, evictRun(1));
        else
            --room;
        insertRun({first.space, first.page + i}, 1, tick);
    }
}

// --------------------------------------------------------- Predictive

void
PredictiveEviction::retouch(Run &run, std::uint64_t tick) const
{
    std::uint64_t gap = tick - run.stamp;
    run.aux = run.aux == kNeverReused ? gap : (3 * run.aux + gap) / 4;
    run.stamp = tick;
}

std::uint64_t
PredictiveEviction::predictedNext(const Run &run)
{
    if (run.aux == kNeverReused)
        return kNeverReused;
    std::uint64_t next = run.stamp + run.aux;
    return next < run.stamp ? kNeverReused : next;  // overflow clamp
}

bool
PredictiveEviction::precedes(std::uint32_t a, std::uint32_t b) const
{
    std::uint64_t pa = predictedNext(runs[a]);
    std::uint64_t pb = predictedNext(runs[b]);
    if (pa != pb)
        return pa > pb;
    return stampBefore(a, b);
}

void
PredictiveEviction::heapSet(std::uint32_t pos, std::uint32_t id)
{
    heap[pos] = id;
    runs[id].slot = pos;
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
PredictiveEviction::attach(std::uint32_t id, std::uint32_t slot)
{
    (void)slot;
    if (runs[id].aux == kNeverReused) {
        linkSorted(fresh, id);
        return;
    }
    heap.push_back(id);
    siftUp(static_cast<std::uint32_t>(heap.size() - 1));
}

void
PredictiveEviction::attachBefore(std::uint32_t id, std::uint32_t next)
{
    if (runs[id].aux == kNeverReused)
        linkBefore(fresh, id, next);
    else
        attach(id, kNil);
}

void
PredictiveEviction::detach(std::uint32_t id)
{
    std::uint32_t pos = runs[id].slot;
    if (pos == kNil) {
        unlink(fresh, id);
        return;
    }
    runs[id].slot = kNil;
    std::uint32_t last = heap.back();
    heap.pop_back();
    if (last == id)
        return;
    heapSet(pos, last);
    siftUp(pos);
    siftDown(runs[last].slot);
}

std::uint32_t
PredictiveEviction::leader() const
{
    // Fresh runs all predict "never", the furthest possible; a heap
    // run can only tie them through the overflow clamp.
    std::uint32_t id = fresh.head;
    if (id == kNil || (!heap.empty() && precedes(heap.front(), id)))
        id = heap.empty() ? kNil : heap.front();
    return id;
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
