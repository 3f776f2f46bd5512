/**
 * @file
 * ServeConfig: the UPMServe serving-node knobs.
 *
 * Everything is deterministic: the arrival process, the tenant / kind
 * mix and every size draw derive from `seed` through per-purpose
 * SplitMix64 streams, so one config reproduces one request history
 * bit-for-bit at any worker count (each sweep point owns its System
 * and its ServeNode, the UPMInject/UPMTrace ownership model).
 */

#ifndef UPM_SERVE_CONFIG_HH
#define UPM_SERVE_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "common/units.hh"

namespace upm::serve {

struct ServeConfig
{
    /** Root seed for the arrival / mix / size streams. */
    std::uint64_t seed = 0x5e12'ce00ull;

    /** Open-loop arrivals to generate (storm extras ride on top). */
    std::uint64_t numRequests = 1024;

    /** Open-loop Poisson arrival rate (requests per simulated
     *  second); inter-arrival gaps are exponential. */
    double arrivalRateHz = 50000.0;

    /** Distinct tenants; each is served by one live process at a
     *  time (processes churn, tenants persist). */
    unsigned numTenants = 8;

    /** Fraction of requests that are LLM-inference style (KV-cache
     *  allocate + prefill + decode); the rest are memcached/YCSB
     *  style (arena reads). */
    double llmFraction = 0.25;

    // ---- Per-process memory --------------------------------------------
    /** Arena committed per process at first request (hipMalloc:
     *  up-front population, so OOM is a clean allocation failure). */
    std::uint64_t arenaBytes = 8 * MiB;
    /** Arena size while degradation tier 1+ is active. */
    std::uint64_t degradedArenaBytes = 2 * MiB;
    /** Arena slice one KV request streams over. */
    std::uint64_t kvSliceBytes = 256 * KiB;
    /** KV-cache committed per LLM request (freed at completion). */
    std::uint64_t kvCacheBytes = 4 * MiB;
    /** Requests a process serves before it exits cleanly and its
     *  tenant respawns (the churn driver). */
    std::uint64_t processLifetime = 64;

    // ---- Admission control ---------------------------------------------
    /** Memory pressure (1 - free/total) above which new requests are
     *  queued with a deadline instead of dispatched. */
    double queuePressure = 0.70;
    /** Pressure above which new requests are rejected outright with
     *  Status::ResourceExhausted. */
    double rejectPressure = 0.92;
    /** Queue capacity; overflow is rejected (ResourceExhausted). */
    std::size_t maxQueueDepth = 64;
    /** Queued requests not dispatched within this window are shed
     *  with Status::Timeout. */
    double queueDeadlineNs = 5.0e6;
    /** Completed requests slower than this report Status::Timeout
     *  (work done, SLO missed). */
    double requestTimeoutNs = 50.0e6;

    // ---- Retry ---------------------------------------------------------
    /** Bounded allocation retries per request; each retry escalates
     *  degradation one tier and charges backoff to the latency. */
    unsigned maxRetries = 2;
    double retryBackoffNs = 100.0e3;
    double retryBackoffGrowth = 2.0;

    // ---- Graceful degradation ------------------------------------------
    /** Tier 1: shrink per-process arenas to degradedArenaBytes. */
    double tier1Pressure = 0.75;
    /** Tier 2: demote every ReplicateRO replica (multi-socket). */
    double tier2Pressure = 0.82;
    /** Tier 3: evict idle processes entirely. */
    double tier3Pressure = 0.88;
    /** Pressure below which the tier state re-arms to 0. */
    double rearmPressure = 0.60;
};

} // namespace upm::serve

#endif // UPM_SERVE_CONFIG_HH
