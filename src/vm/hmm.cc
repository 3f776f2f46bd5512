#include "vm/hmm.hh"

#include <vector>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "trace/tracer.hh"

namespace upm::vm {

std::uint64_t
HmmMirror::mirrorRange(Vpn begin, Vpn end)
{
    if (aud != nullptr && aud->config().checkMirror) {
        // Pages mapped on both sides must agree: fan out to the
        // per-page cross-check only when the auditor is attached, so
        // UPMSan coverage is unchanged at zero cost when off.
        sysTable.forRange(begin, end, [&](Vpn vpn, const Pte &pte) {
            auto gpu_run = gpuTable.lookupRun(vpn);
            if (!gpu_run)
                return;
            FrameId gpu_frame = gpu_run->frameOf(vpn);
            if (gpu_frame != pte.frame) {
                aud->record(
                    audit::ViolationKind::MirrorDivergence, addrOf(vpn),
                    strprintf("vpn 0x%llx: system PTE maps frame %llu "
                              "but GPU PTE maps frame %llu",
                              static_cast<unsigned long long>(vpn),
                              static_cast<unsigned long long>(pte.frame),
                              static_cast<unsigned long long>(
                                  gpu_frame)));
            }
        });
    }

    // Build the missing GPU runs from the system runs: each system run
    // contributes its GPU-side gaps, preserving vpn order. Collect
    // first (inserting while iterating would invalidate the walk). The
    // scatter pointers alias system-table storage, which stays valid
    // here: only the GPU table is mutated below.
    struct Missing
    {
        Vpn vpn;
        std::uint64_t len;
        FrameId frame;
        const FrameId *scatter;
        PteFlags flags;
    };
    std::vector<Missing> missing;
    std::uint64_t missing_pages = 0;
    sysTable.forEachRun(begin, end, [&](const PteRun &run) {
        gpuTable.forEachGap(run.vpn, run.end(), [&](Vpn gap_begin,
                                                    Vpn gap_end) {
            missing.push_back(
                {gap_begin, gap_end - gap_begin, run.frameOf(gap_begin),
                 run.scatter == nullptr
                     ? nullptr
                     : run.scatter + (gap_begin - run.vpn),
                 run.flags});
            missing_pages += gap_end - gap_begin;
        });
    });
    for (const auto &m : missing) {
        if (m.scatter == nullptr)
            gpuTable.insertRange(m.vpn, m.len, m.frame, m.flags);
        else
            gpuTable.insertFrames(m.vpn, m.scatter, m.len, m.flags);
    }
    if (missing_pages != 0)
        gpuTable.recomputeFragments(begin, end);
    propagatedCount += missing_pages;
    if (tr != nullptr && missing_pages != 0)
        tr->emit(trace::EventKind::HmmMirror, begin, end, missing_pages);
    return missing_pages;
}

std::uint64_t
HmmMirror::invalidateRange(Vpn begin, Vpn end)
{
    std::uint64_t removed = gpuTable.removeRange(begin, end);
    invalidatedCount += removed;
    if (tr != nullptr && removed != 0)
        tr->emit(trace::EventKind::HmmInvalidate, begin, end, removed);
    return removed;
}

} // namespace upm::vm
