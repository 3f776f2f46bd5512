/**
 * @file
 * Deterministic time-ordered min-heap.
 *
 * A binary heap keyed (when, key, order): simulated time first, then a
 * caller-chosen stable id (an agent index, a source-engine id), then
 * the insertion order stamped at push(). The triple is a strict total
 * order over live entries, so top() is a pure function of the pushed
 * set -- never of allocation addresses or hash order, which is what
 * the determinism contract (DESIGN.md section 12) demands of anything
 * that feeds simulated state.
 *
 * The histogram engine keys by agent index, reproducing the classic
 * "least-advanced agent, lowest index among ties" scan byte for byte
 * in O(log n); the EventCalendar keys by source engine with per-source
 * FIFO sequence numbers as the order stamp.
 */

#ifndef UPM_SCHED_TIME_HEAP_HH
#define UPM_SCHED_TIME_HEAP_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hh"

namespace upm::sched {

template <typename Payload>
class TimeHeap
{
  public:
    struct Entry
    {
        SimTime when = 0.0;
        std::uint64_t key = 0;
        std::uint64_t order = 0;
        Payload payload{};
    };

    bool empty() const { return heap.empty(); }
    std::size_t size() const { return heap.size(); }

    /** The minimum entry by (when, key, order); heap must not be
     *  empty. */
    const Entry &top() const { return heap.front(); }

    /** Insert with an explicit FIFO order stamp. */
    void
    push(SimTime when, std::uint64_t key, std::uint64_t order,
         Payload payload)
    {
        heap.push_back(Entry{when, key, order, std::move(payload)});
        std::push_heap(heap.begin(), heap.end(), After{});
    }

    /** Insert stamping the order from an internal push counter. */
    void
    push(SimTime when, std::uint64_t key, Payload payload)
    {
        push(when, key, nextOrder++, std::move(payload));
    }

    /** Remove and return the minimum entry. */
    Entry
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), After{});
        Entry e = std::move(heap.back());
        heap.pop_back();
        return e;
    }

  private:
    /** `a` sorts after `b`: the greater-than comparator a min-heap
     *  over std::push_heap/pop_heap needs. */
    struct After
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.key != b.key)
                return a.key > b.key;
            return a.order > b.order;
        }
    };

    std::vector<Entry> heap;
    std::uint64_t nextOrder = 0;
};

} // namespace upm::sched

#endif // UPM_SCHED_TIME_HEAP_HH
