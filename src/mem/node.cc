#include "mem/node.hh"

#include <algorithm>

#include "audit/auditor.hh"
#include "common/log.hh"

namespace upm::mem {

NodeMemory::NodeMemory(const MemGeometry &geometry,
                       const FrameAllocatorConfig &config,
                       unsigned num_sockets, const Hooks &hooks)
    : geom(geometry)
{
    if (num_sockets == 0)
        fatal("node must have at least one socket");
    // stackOfFrame is frame % numStacks, so global and shard-local ids
    // agree on stack placement only when shard bases are stack-aligned.
    if (geom.numFrames() % geom.numStacks() != 0)
        fatal("frames per socket (%llu) not divisible by stacks (%u)",
              static_cast<unsigned long long>(geom.numFrames()),
              geom.numStacks());
    shards.reserve(num_sockets);
    for (unsigned s = 0; s < num_sockets; ++s) {
        FrameAllocatorConfig shard_cfg = config;
        shard_cfg.seed = config.seed + s;
        shards.push_back(std::make_unique<FrameAllocator>(
            geom, shard_cfg, geom.numFrames() * s, s, hooks));
    }
}

bool
NodeMemory::freeFrame(FrameId frame)
{
    return shardOf(frame).freeFrame(frame);
}

bool
NodeMemory::freeRange(const FrameRange &range)
{
    bool ok = true;
    FrameId cur = range.base;
    std::uint64_t remaining = range.count;
    while (remaining > 0) {
        unsigned s = socketOfFrame(cur);
        FrameId shard_end = framesPerSocket() * (s + 1);
        std::uint64_t take = remaining;
        if (cur < shard_end)
            take = std::min<std::uint64_t>(remaining, shard_end - cur);
        ok = shards[s]->freeRange({cur, take}) && ok;
        cur += take;
        remaining -= take;
    }
    return ok;
}

std::uint64_t
NodeMemory::freeFrames() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards)
        total += shard->freeFrames();
    return total;
}

std::uint64_t
NodeMemory::freeListNodes() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards)
        total += shard->freeListNodes();
    return total;
}

std::uint64_t
NodeMemory::auditLeaks(const std::vector<bool> &mapped,
                       audit::Auditor &auditor) const
{
    std::uint64_t leaked = 0;
    for (const auto &shard : shards)
        leaked += shard->auditLeaks(mapped, auditor);
    return leaked;
}

std::uint64_t
NodeMemory::auditCrossShard(const std::vector<bool> &mapped,
                            audit::Auditor &auditor) const
{
    if (!auditor.config().checkFrames)
        return 0;
    std::uint64_t bad = 0;
    std::vector<std::vector<bool>> busy;
    busy.reserve(shards.size());
    for (const auto &shard : shards)
        busy.push_back(shard->busyMap());
    for (FrameId f = 0; f < mapped.size(); ++f) {
        if (!mapped[f])
            continue;
        if (f >= totalFrames()) {
            ++bad;
            auditor.record(audit::ViolationKind::CrossSocketOwner, f,
                           strprintf("mapped frame %llu is outside "
                                     "every socket's shard",
                                     static_cast<unsigned long long>(f)));
            continue;
        }
        unsigned owner = socketOfFrame(f);
        FrameId local = f - framesPerSocket() * owner;
        if (!busy[owner][local]) {
            ++bad;
            auditor.record(
                audit::ViolationKind::CrossSocketOwner, f,
                strprintf("mapped frame %llu is not allocated in its "
                          "owning socket %u shard (mis-routed "
                          "allocation or free)",
                          static_cast<unsigned long long>(f), owner));
        }
    }
    return bad;
}

} // namespace upm::mem
