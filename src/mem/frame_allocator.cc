#include "mem/frame_allocator.hh"

#include <algorithm>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "inject/injector.hh"
#include "trace/tracer.hh"

namespace upm::mem {

FrameAllocator::FrameAllocator(const MemGeometry &geometry,
                               const FrameAllocatorConfig &config,
                               FrameId base_frame, unsigned socket,
                               const Hooks &hooks)
    : geom(geometry), cfg(config), baseF(base_frame), socketId(socket),
      rng(config.seed), aud(hooks.aud), inj(hooks.inj), tr(hooks.tr)
{
    if (cfg.maxOrder > 20)
        fatal("buddy max order %u too large", cfg.maxOrder);
    if (cfg.onDemandRefillOrder > cfg.maxOrder)
        fatal("on-demand refill order exceeds max order");
    if (cfg.faultBatchRun == 0)
        fatal("fault batch run must be nonzero");
    // Global and shard-local frame ids must map to the same HBM stack
    // (stackOfFrame is frame % numStacks), or one shard's notion of
    // stack balance would disagree with the Infinity Cache model's.
    if (baseF % geom.numStacks() != 0)
        fatal("shard base frame %llu not stack-aligned (%u stacks)",
              static_cast<unsigned long long>(baseF), geom.numStacks());

    freeLists.resize(cfg.maxOrder + 1);
    frameBusy.assign(geom.numFrames(), false);

    // Carve the frame space into maximal naturally-aligned blocks.
    FrameId next = 0;
    std::uint64_t remaining = geom.numFrames();
    while (remaining > 0) {
        unsigned order = cfg.maxOrder;
        while (order > 0 &&
               ((next & ((1ull << order) - 1)) != 0 ||
                (1ull << order) > remaining)) {
            --order;
        }
        freeLists[order].insert(next >> order);
        next += 1ull << order;
        remaining -= 1ull << order;
    }
    freeCount = geom.numFrames();
}

bool
FrameAllocator::allocBlock(unsigned order, FrameId &base)
{
    unsigned o = order;
    while (o <= cfg.maxOrder && freeLists[o].empty())
        ++o;
    if (o > cfg.maxOrder)
        return false;

    FrameId block = freeLists[o].first() << o;
    freeLists[o].erase(block >> o);

    // Split down to the requested order, keeping the upper halves free.
    while (o > order) {
        --o;
        freeLists[o].insert((block + (1ull << o)) >> o);
        if (tr != nullptr)
            tr->emitAt(socketId, trace::EventKind::BuddySplit,
                       block + baseF, o);
    }

    std::uint64_t n = 1ull << order;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (aud != nullptr && aud->config().checkFrames &&
            frameBusy[block + i]) {
            aud->record(audit::ViolationKind::FrameDoubleAlloc,
                        block + i + baseF,
                        strprintf("buddy handed out frame %llu, already "
                                  "busy (free-list/busy-bit divergence)",
                                  static_cast<unsigned long long>(
                                      block + i + baseF)));
        }
        frameBusy[block + i] = true;
    }
    freeCount -= n;
    base = block;
    return true;
}

bool
FrameAllocator::freeLocal(FrameId begin, FrameId end)
{
    // One pass over the busy bits, clearing each maximal busy sub-run
    // as it is found and then handing it to the buddy as naturally-
    // aligned blocks; each non-busy frame is rejected and (when
    // audited) recorded, in frame order. Eager buddy merging makes the
    // final state a pure function of the free frame set, so this
    // matches a page-by-page free exactly.
    bool ok = true;
    FrameId cur = begin;
    while (cur < end) {
        if (!frameBusy[cur]) {
            if (aud != nullptr && aud->config().checkFrames) {
                aud->record(audit::ViolationKind::FrameDoubleFree,
                            cur + baseF,
                            strprintf("free of frame %llu, which is not "
                                      "allocated",
                                      static_cast<unsigned long long>(
                                          cur + baseF)));
            }
            ok = false;
            ++cur;
            continue;
        }
        FrameId run_end = cur;
        while (run_end < end && frameBusy[run_end])
            frameBusy[run_end++] = false;
        freeCount += run_end - cur;
        while (cur < run_end) {
            unsigned align = cfg.maxOrder;
            while (align > 0 && (cur & ((1ull << align) - 1)) != 0)
                --align;
            unsigned order =
                std::min<unsigned>(align, floorLog2(run_end - cur));
            insertFreeBlock(cur, order);
            cur += 1ull << order;
        }
    }
    return ok;
}

void
FrameAllocator::insertFreeBlock(FrameId base, unsigned order)
{
    // Merge with the buddy while possible.
    unsigned o = order;
    FrameId block = base;
    while (o < cfg.maxOrder) {
        FrameId buddy = block ^ (1ull << o);
        if (!freeLists[o].contains(buddy >> o))
            break;
        freeLists[o].erase(buddy >> o);
        block = std::min(block, buddy);
        ++o;
    }
    freeLists[o].insert(block >> o);
}

std::optional<std::vector<FrameRange>>
FrameAllocator::allocRun(std::uint64_t n_frames)
{
    if (inj != nullptr && inj->failFrameAlloc(n_frames))
        return std::nullopt;
    std::vector<FrameRange> out;
    std::uint64_t remaining = n_frames;
    while (remaining > 0) {
        unsigned order = std::min<unsigned>(
            cfg.maxOrder, floorLog2(remaining));
        FrameId base = 0;
        // Fall back to smaller orders under fragmentation.
        bool ok = false;
        for (int o = static_cast<int>(order); o >= 0; --o) {
            if (allocBlock(static_cast<unsigned>(o), base)) {
                out.push_back({base, 1ull << o});
                remaining -= 1ull << o;
                ok = true;
                break;
            }
        }
        if (!ok) {
            for (const auto &r : out)
                releaseRange(r);
            return std::nullopt;
        }
    }

    // Coalesce adjacent runs (buddy often returns neighbours).
    std::sort(out.begin(), out.end(),
              [](const FrameRange &a, const FrameRange &b) {
                  return a.base < b.base;
              });
    std::vector<FrameRange> merged;
    for (const auto &r : out) {
        if (!merged.empty() &&
            merged.back().base + merged.back().count == r.base) {
            merged.back().count += r.count;
        } else {
            merged.push_back(r);
        }
    }
    for (auto &r : merged)
        r.base += baseF;
    if (tr != nullptr) {
        for (const auto &r : merged) {
            tr->emitAt(socketId, trace::EventKind::FrameAlloc, r.base,
                       r.count,
                       static_cast<std::uint64_t>(
                           trace::AllocPath::Run));
        }
    }
    return merged;
}

bool
FrameAllocator::refillOnDemandPool()
{
    // Take one block and hand its frames out grouped by stack. On a
    // fragmented system the per-CPU freelists return pages clustered in
    // physical regions; grouping by stack reproduces the biased,
    // discontiguous placement the paper infers for CPU-first-touch
    // malloc memory (Section 5.4).
    unsigned order = cfg.onDemandRefillOrder;
    FrameId base = 0;
    while (!allocBlock(order, base)) {
        if (order == 0)
            return false;
        --order;
    }
    std::uint64_t n = 1ull << order;
    unsigned stacks = geom.numStacks();
    unsigned start = static_cast<unsigned>(rng.nextBelow(stacks));
    for (unsigned s = 0; s < stacks; ++s) {
        unsigned stack = (start + s) % stacks;
        for (std::uint64_t i = 0; i < n; ++i) {
            FrameId f = base + i;
            if (geom.stackOfFrame(f) == stack)
                onDemandPool.push_back(f);
        }
    }
    if (tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::PoolRefill, base + baseF,
                   n, 0);
    return true;
}

bool
FrameAllocator::allocScattered(std::uint64_t n, std::vector<FrameId> &out)
{
    if (inj != nullptr && inj->failFrameAlloc(n))
        return false;
    std::size_t start_size = out.size();
    // Appended ids stay shard-local until success so the rollback path
    // can feed them straight back to the local buddy.
    for (std::uint64_t i = 0; i < n; ++i) {
        if (onDemandPool.empty() && !refillOnDemandPool()) {
            // Roll back.
            for (std::size_t j = start_size; j < out.size(); ++j)
                releaseRange({out[j], 1});
            out.resize(start_size);
            return false;
        }
        out.push_back(onDemandPool.front());
        onDemandPool.pop_front();
    }
    for (std::size_t j = start_size; j < out.size(); ++j)
        out[j] += baseF;
    emitFrameAllocs(out, start_size,
                    static_cast<unsigned>(trace::AllocPath::Scattered));
    return true;
}

bool
FrameAllocator::allocBatch(std::uint64_t n, std::vector<FrameRange> &out)
{
    if (inj != nullptr && inj->failFrameAlloc(n))
        return false;
    std::size_t start_size = out.size();
    std::uint64_t remaining = n;
    unsigned run_order = floorLog2(cfg.faultBatchRun);
    while (remaining > 0) {
        std::uint64_t want = std::min<std::uint64_t>(
            remaining, 1ull << run_order);
        unsigned order = floorLog2(want);
        FrameId base = 0;
        bool ok = false;
        for (int o = static_cast<int>(order); o >= 0; --o) {
            if (allocBlock(static_cast<unsigned>(o), base)) {
                out.push_back({base, 1ull << o});
                remaining -= 1ull << o;
                ok = true;
                break;
            }
        }
        if (!ok) {
            for (std::size_t j = start_size; j < out.size(); ++j)
                releaseRange(out[j]);
            out.resize(start_size);
            return false;
        }
    }
    for (std::size_t j = start_size; j < out.size(); ++j)
        out[j].base += baseF;
    if (tr != nullptr) {
        for (std::size_t j = start_size; j < out.size(); ++j) {
            tr->emitAt(socketId, trace::EventKind::FrameAlloc,
                       out[j].base, out[j].count,
                       static_cast<std::uint64_t>(
                           trace::AllocPath::Batch));
        }
    }
    return true;
}

bool
FrameAllocator::refillStackPools()
{
    unsigned order = cfg.onDemandRefillOrder;
    FrameId base = 0;
    while (!allocBlock(order, base)) {
        if (order == 0)
            return false;
        --order;
    }
    if (stackPools.empty())
        stackPools.resize(geom.numStacks());
    std::uint64_t n = 1ull << order;
    unsigned stacks = geom.numStacks();

    // Collect per-stack, then append each stack's list rotated by its
    // stack id: the round-robin consumer then receives frames that are
    // stack-balanced but never physically adjacent (pinned buffers are
    // assembled page-by-page on the real system, not carved whole).
    std::vector<std::vector<FrameId>> collected(stacks);
    for (std::uint64_t i = 0; i < n; ++i) {
        FrameId f = base + i;
        collected[geom.stackOfFrame(f)].push_back(f);
    }
    for (unsigned s = 0; s < stacks; ++s) {
        auto &list = collected[s];
        std::size_t rot = list.empty() ? 0 : s % list.size();
        for (std::size_t i = 0; i < list.size(); ++i)
            stackPools[s].push_back(list[(i + rot) % list.size()]);
    }
    if (tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::PoolRefill, base + baseF,
                   n, 1);
    return true;
}

bool
FrameAllocator::allocInterleaved(std::uint64_t n, std::vector<FrameId> &out)
{
    if (inj != nullptr && inj->failFrameAlloc(n))
        return false;
    std::size_t start_size = out.size();
    if (stackPools.empty())
        stackPools.resize(geom.numStacks());
    for (std::uint64_t i = 0; i < n; ++i) {
        unsigned tried = 0;
        while (stackPools[nextStack].empty() &&
               tried < geom.numStacks()) {
            nextStack = (nextStack + 1) % geom.numStacks();
            ++tried;
        }
        if (stackPools[nextStack].empty()) {
            if (!refillStackPools()) {
                for (std::size_t j = start_size; j < out.size(); ++j)
                    releaseRange({out[j], 1});
                out.resize(start_size);
                return false;
            }
        }
        // After a refill the preferred stack may still be empty on a
        // fragmented node; fall back to any non-empty pool.
        unsigned stack = nextStack;
        while (stackPools[stack].empty())
            stack = (stack + 1) % geom.numStacks();
        out.push_back(stackPools[stack].front());
        stackPools[stack].pop_front();
        nextStack = (stack + 1) % geom.numStacks();
    }
    for (std::size_t j = start_size; j < out.size(); ++j)
        out[j] += baseF;
    emitFrameAllocs(out, start_size,
                    static_cast<unsigned>(
                        trace::AllocPath::Interleaved));
    return true;
}

bool
FrameAllocator::freeFrame(FrameId frame)
{
    if (!ownsFrame(frame)) {
        if (aud != nullptr && aud->config().checkFrames) {
            aud->record(audit::ViolationKind::FrameDoubleFree, frame,
                        strprintf("free of out-of-shard frame %llu "
                                  "(shard owns [%llu, +%llu))",
                                  static_cast<unsigned long long>(frame),
                                  static_cast<unsigned long long>(baseF),
                                  static_cast<unsigned long long>(
                                      geom.numFrames())));
        }
        return false;
    }
    bool ok = freeLocal(frame - baseF, frame - baseF + 1);
    if (ok && tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::FrameFree, frame, 1);
    return ok;
}

bool
FrameAllocator::freeRange(const FrameRange &range)
{
    if (!ownsFrame(range.base) ||
        range.base - baseF + range.count > geom.numFrames() ||
        range.base + range.count < range.base) {
        if (aud != nullptr && aud->config().checkFrames) {
            aud->record(audit::ViolationKind::FrameDoubleFree, range.base,
                        strprintf("free of out-of-shard run [%llu, +%llu)",
                                  static_cast<unsigned long long>(
                                      range.base),
                                  static_cast<unsigned long long>(
                                      range.count)));
        }
        return false;
    }
    FrameId local_base = range.base - baseF;
    bool ok = freeLocal(local_base, local_base + range.count);
    if (ok && tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::FrameFree, range.base,
                   range.count);
    return ok;
}

void
FrameAllocator::releaseRange(const FrameRange &range)
{
    // Rollback path: the frames were allocated moments ago and no
    // FrameAlloc event has been emitted for them, so this must not
    // emit FrameFree either.
    if (!freeLocal(range.base, range.base + range.count))
        fatal("rollback free of unallocated frames in [%llu, +%llu)",
              static_cast<unsigned long long>(range.base),
              static_cast<unsigned long long>(range.count));
}

void
FrameAllocator::emitFrameAllocs(const std::vector<FrameId> &out,
                                std::size_t start, unsigned path)
{
    if (tr == nullptr)
        return;
    std::size_t i = start;
    while (i < out.size()) {
        std::size_t j = i + 1;
        while (j < out.size() && out[j] == out[j - 1] + 1)
            ++j;
        tr->emitAt(socketId, trace::EventKind::FrameAlloc, out[i],
                   j - i, path);
        i = j;
    }
}

std::vector<bool>
FrameAllocator::busyMap() const
{
    std::vector<bool> held = frameBusy;
    for (FrameId f : onDemandPool)
        held[f] = false;
    for (const auto &pool : stackPools) {
        for (FrameId f : pool)
            held[f] = false;
    }
    return held;
}

std::uint64_t
FrameAllocator::freeFrames() const
{
    std::uint64_t pooled = onDemandPool.size();
    for (const auto &pool : stackPools)
        pooled += pool.size();
    return freeCount + pooled;
}

std::uint64_t
FrameAllocator::freeListNodes() const
{
    std::uint64_t nodes = 0;
    for (const auto &list : freeLists)
        nodes += list.intervalCount();
    return nodes;
}

std::uint64_t
FrameAllocator::auditLeaks(const std::vector<bool> &mapped,
                           audit::Auditor &auditor) const
{
    if (!auditor.config().checkFrames)
        return 0;
    std::vector<bool> pooled(geom.numFrames(), false);
    for (FrameId f : onDemandPool)
        pooled[f] = true;
    for (const auto &pool : stackPools) {
        for (FrameId f : pool)
            pooled[f] = true;
    }
    std::uint64_t leaked = 0;
    for (FrameId f = 0; f < geom.numFrames(); ++f) {
        if (!frameBusy[f] || pooled[f])
            continue;
        FrameId global = f + baseF;
        if (global < mapped.size() && mapped[global])
            continue;
        ++leaked;
        auditor.record(audit::ViolationKind::FrameLeak, global,
                       strprintf("frame %llu is allocated but mapped "
                                 "by no page table at teardown",
                                 static_cast<unsigned long long>(
                                     global)));
    }
    return leaked;
}

std::vector<std::uint64_t>
FrameAllocator::perStackFree() const
{
    std::vector<std::uint64_t> free_per_stack(geom.numStacks(), 0);
    for (std::uint64_t f = 0; f < geom.numFrames(); ++f) {
        if (!frameBusy[f])
            ++free_per_stack[geom.stackOfFrame(f)];
    }
    for (FrameId f : onDemandPool)
        ++free_per_stack[geom.stackOfFrame(f)];
    for (const auto &pool : stackPools) {
        for (FrameId f : pool)
            ++free_per_stack[geom.stackOfFrame(f)];
    }
    return free_per_stack;
}

} // namespace upm::mem
