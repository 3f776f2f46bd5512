/**
 * @file
 * Node-level physical memory: one FrameAllocator shard per socket.
 *
 * A multi-APU node has one HBM pool per socket, so NodeMemory carves
 * the global frame space into per-socket shards: shard `s` owns global
 * frames [s * framesPerSocket(), (s+1) * framesPerSocket()). Each
 * shard is a full FrameAllocator over one geometry-sized window, so a
 * one-socket node's shard 0 is *bit-identical* to a bare
 * FrameAllocator (base 0, same seed, same buddy carving) -- the
 * property the single-socket byte-identity regression tests pin.
 * NodeMemory is vm::AddressSpace's only frame source, on one socket
 * as on many.
 *
 * Callers speak global frame ids everywhere. Placement policy (which
 * shard serves an allocation) lives above, in vm::AddressSpace's
 * vm::SocketPolicy switch; frees below are routed here by frame id,
 * splitting runs that cross shard boundaries.
 */

#ifndef UPM_MEM_NODE_HH
#define UPM_MEM_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/frame_allocator.hh"
#include "mem/geometry.hh"

namespace upm::mem {

/** Per-socket HBM shards over one global frame space. */
class NodeMemory
{
  public:
    /**
     * Build @p num_sockets shards over @p geometry. Every socket
     * contributes one geometry-sized HBM window, so total capacity is
     * num_sockets x geometry.capacityBytes(). Shard 0 uses exactly
     * @p config (seed included); shard s > 0 derives its refill seed
     * as config.seed + s so sockets fragment independently. Every
     * shard gets the same @p hooks (auditor, injector, tracer).
     */
    NodeMemory(const MemGeometry &geometry,
               const FrameAllocatorConfig &config, unsigned num_sockets,
               const Hooks &hooks = {});

    unsigned numSockets() const { return static_cast<unsigned>(shards.size()); }

    /** Frames in one socket's shard (== geometry().numFrames()). */
    std::uint64_t framesPerSocket() const { return geom.numFrames(); }

    /** Frames across all shards. */
    std::uint64_t
    totalFrames() const
    {
        return framesPerSocket() * numSockets();
    }

    /** Socket owning global frame @p frame (frames past the end land
     *  on the last socket so frees can reject them in one place). */
    unsigned
    socketOfFrame(FrameId frame) const
    {
        unsigned s = static_cast<unsigned>(frame / framesPerSocket());
        return s < numSockets() ? s : numSockets() - 1;
    }

    FrameAllocator &shard(unsigned socket) { return *shards[socket]; }
    const FrameAllocator &shard(unsigned socket) const
    {
        return *shards[socket];
    }

    /** The shard owning global frame @p frame. */
    FrameAllocator &shardOf(FrameId frame)
    {
        return *shards[socketOfFrame(frame)];
    }

    const MemGeometry &geometry() const { return geom; }

    /** Free one global frame through its owning shard. */
    [[nodiscard]] bool freeFrame(FrameId frame);

    /**
     * Free a global run, splitting it at shard boundaries so each
     * piece is freed by its owning shard. @return false if any piece
     * was invalid (valid pieces are still freed, as FrameAllocator
     * does within one shard).
     */
    [[nodiscard]] bool freeRange(const FrameRange &range);

    /** Free frames across all shards (pool-parked frames count). */
    std::uint64_t freeFrames() const;

    /** Buddy free-list interval nodes summed across shards (the
     *  fragmentation gauge long-soak tests bound). */
    std::uint64_t freeListNodes() const;

    /**
     * Teardown leak scan, per shard: every busy frame must be mapped
     * (@p mapped indexed by global frame id) or pool-parked.
     * @return total leaked frames across shards.
     */
    std::uint64_t auditLeaks(const std::vector<bool> &mapped,
                             audit::Auditor &auditor) const;

    /**
     * Cross-shard ownership audit: every mapped global frame must be
     * busy in the shard that owns its id range -- a mapped frame whose
     * owning shard believes it is free means an allocation or free was
     * routed to the wrong socket. Records CrossSocketOwner per
     * offending frame. @return violation count.
     */
    std::uint64_t auditCrossShard(const std::vector<bool> &mapped,
                                  audit::Auditor &auditor) const;

  private:
    const MemGeometry &geom;
    std::vector<std::unique_ptr<FrameAllocator>> shards;
};

} // namespace upm::mem

#endif // UPM_MEM_NODE_HH
