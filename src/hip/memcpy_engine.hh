/**
 * @file
 * hipMemcpy path selection and timing (paper Section 4.3).
 *
 * On the APU the "copy" is real data movement through one of three
 * paths: the SDMA engine (slow: 58 GB/s pageable, and not much better
 * pinned), a blit kernel when SDMA is disabled (850 GB/s host<->device)
 * or device-to-device blits between hipMalloc buffers (1900 GB/s).
 * Legacy explicit-model codes pay these costs even though UPM makes
 * the copies semantically unnecessary.
 */

#ifndef UPM_HIP_MEMCPY_ENGINE_HH
#define UPM_HIP_MEMCPY_ENGINE_HH

#include <cstdint>

#include "common/hooks.hh"
#include "core/calibration.hh"
#include "vm/address_space.hh"

namespace upm::hip {

/** Which engine a copy went through (reported by the bench). */
enum class CopyPath : std::uint8_t {
    SdmaPageable,
    SdmaPinned,
    BlitHostDevice,
    BlitDeviceDevice,
};

const char *copyPathName(CopyPath path);

/** Prices hipMemcpy operations. */
class MemcpyEngine
{
  public:
    MemcpyEngine(const core::BandwidthCalib &calibration,
                 bool sdma_enabled, const Hooks &hooks = {})
        : bw(calibration), sdmaEnabled(sdma_enabled), inj(hooks.inj)
    {}

    /** Select the path for a dst/src VMA pair. */
    CopyPath classify(const vm::Vma *dst, const vm::Vma *src) const;

    /** Time to move @p bytes along @p path. SDMA paths may absorb an
     *  injected engine stall; blit paths (HBM-bandwidth-bound) may
     *  run during an injected channel-degradation episode. */
    SimTime transferTime(CopyPath path, std::uint64_t bytes) const;

    bool sdma() const { return sdmaEnabled; }
    void setSdma(bool enabled) { sdmaEnabled = enabled; }

  private:
    core::BandwidthCalib bw;
    bool sdmaEnabled;
    /** UPMInject hook; null (no overhead) unless injection is on.
     *  The engine is logically const while the injector advances its
     *  own decision streams. */
    inject::Injector *inj = nullptr;
};

} // namespace upm::hip

#endif // UPM_HIP_MEMCPY_ENGINE_HH
