/**
 * @file
 * rocprofv3-style GPU counter session.
 *
 * The paper uses the `TCP_UTCL1_TRANSLATION_MISS_sum` counter as a
 * proxy for fragment sizes (Section 5.3). Engines report GPU events
 * into the System's trace::MetricsRegistry; this adapter exposes them
 * under the rocprof counter names.
 */

#ifndef UPM_PROF_ROCPROF_HH
#define UPM_PROF_ROCPROF_HH

#include <cstdint>
#include <map>
#include <string>

#include "trace/metrics.hh"

namespace upm::prof {

/** Canonical rocprof counter names used by the model. */
namespace gpu_counters {
inline const std::string kUtcl1TranslationMiss =
    "TCP_UTCL1_TRANSLATION_MISS_sum";
inline const std::string kUtcl1TranslationHit =
    "TCP_UTCL1_TRANSLATION_HIT_sum";
inline const std::string kUtcl2Miss = "TCP_UTCL2_TRANSLATION_MISS_sum";
inline const std::string kKernels = "SQ_KERNELS_sum";
} // namespace gpu_counters

/** A profiling session: snapshot-diff over a counter registry. */
class RocprofSession
{
  public:
    explicit RocprofSession(trace::MetricsRegistry &counter_registry)
        : counters(counter_registry)
    {}

    /** Begin a region of interest: snapshot current values. */
    void start();

    /** @return counter delta since start(). */
    std::uint64_t delta(const std::string &name) const;

    trace::MetricsRegistry &registry() { return counters; }

  private:
    trace::MetricsRegistry &counters;
    std::map<std::string, std::uint64_t> baseline;
};

} // namespace upm::prof

#endif // UPM_PROF_ROCPROF_HH
