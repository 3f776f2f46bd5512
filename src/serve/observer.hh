/**
 * @file
 * ServeObserver: the serving node's structured callback hook.
 *
 * Follows the aud/tr/inj/cal hook contract: the node holds a
 * `ServeObserver *obs` that is null unless a test or driver passes
 * one to its constructor, and every notification site is guarded by
 * a null check -- with no observer the node does not execute a
 * single extra branch beyond that check, and serving outcomes are
 * byte-identical either way (observers observe; they must not mutate
 * the node).
 */

#ifndef UPM_SERVE_OBSERVER_HH
#define UPM_SERVE_OBSERVER_HH

#include <cstdint>

#include "common/status.hh"
#include "serve/request.hh"

namespace upm::serve {

/** Override the events of interest; defaults ignore everything. */
class ServeObserver
{
  public:
    virtual ~ServeObserver() = default;

    /** Request admitted: dispatched now, or queued with a deadline. */
    virtual void onAdmit(const Request &request, bool queued)
    {
        (void)request;
        (void)queued;
    }

    /** Request shed before dispatch: ResourceExhausted (admission
     *  reject / queue overflow) or Timeout (queue deadline). */
    virtual void onShed(const Request &request, Status why)
    {
        (void)request;
        (void)why;
    }

    /** Request reached a terminal state after dispatch. */
    virtual void onComplete(const Request &request, Status status,
                            SimTime latency_ns)
    {
        (void)request;
        (void)status;
        (void)latency_ns;
    }

    /** Degradation tier @p tier entered (1..3). */
    virtual void onDegrade(unsigned tier, std::uint64_t pages_reclaimed)
    {
        (void)tier;
        (void)pages_reclaimed;
    }

    virtual void onProcessSpawn(std::uint64_t pid, unsigned tenant)
    {
        (void)pid;
        (void)tenant;
    }

    /** @p crashed: injected kill (true) vs clean retire / eviction. */
    virtual void onProcessExit(std::uint64_t pid, unsigned tenant,
                               bool crashed,
                               std::uint64_t pages_reclaimed)
    {
        (void)pid;
        (void)tenant;
        (void)crashed;
        (void)pages_reclaimed;
    }
};

} // namespace upm::serve

#endif // UPM_SERVE_OBSERVER_HH
