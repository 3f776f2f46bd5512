#include "vm/gpu_page_table.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/units.hh"

namespace upm::vm {

GpuPageTable::StampMap::const_iterator
GpuPageTable::stampFrom(Vpn vpn) const
{
    auto it = overlay.upper_bound(vpn);
    if (it != overlay.begin()) {
        auto prev = std::prev(it);
        if (vpn < prev->first + prev->second.len)
            return prev;
    }
    return it;
}

void
GpuPageTable::clearStamps(Vpn begin, Vpn end)
{
    if (begin >= end)
        return;
    auto it = overlay.lower_bound(begin);
    if (it != overlay.begin()) {
        auto prev = std::prev(it);
        Vpn prev_end = prev->first + prev->second.len;
        if (prev_end > begin) {
            prev->second.len = begin - prev->first;
            if (prev_end > end) {
                overlay.emplace_hint(
                    it, end, Stamp{prev_end - end, prev->second.frag});
                return;
            }
        }
    }
    while (it != overlay.end() && it->first < end) {
        Vpn it_end = it->first + it->second.len;
        std::uint8_t frag = it->second.frag;
        it = overlay.erase(it);
        if (it_end > end) {
            overlay.emplace_hint(it, end, Stamp{it_end - end, frag});
            return;
        }
    }
}

std::optional<GpuPte>
GpuPageTable::lookup(Vpn vpn) const
{
    auto pte = SystemPageTable::lookup(vpn);
    if (!pte)
        return std::nullopt;
    auto st = stampFrom(vpn);
    std::uint8_t frag =
        st != overlay.end() && st->first <= vpn ? st->second.frag : 0;
    return GpuPte{pte->frame, pte->flags, frag};
}

std::uint64_t
GpuPageTable::removeRange(Vpn begin, Vpn end)
{
    clearStamps(begin, end);
    return SystemPageTable::removeRange(begin, end, [](const PteRun &) {});
}

void
GpuPageTable::recomputeFragments(Vpn begin, Vpn end)
{
    if (begin >= end)
        return;

    // Phase 1: find the driver's contiguity stretches inside the
    // window from per-page *values* — maximal sequences of present
    // pages with consecutive frames and equal flags — so the result
    // does not depend on how the mapping is split into stored runs.
    // Greedily stamp each stretch with naturally-aligned power-of-two
    // blocks; stamps are page-absolute and RLE-compressed.
    std::vector<std::pair<Vpn, Stamp>> stamps;
    auto add_stamp = [&](Vpn v, std::uint64_t len, unsigned frag) {
        if (!stamps.empty() &&
            stamps.back().second.frag == static_cast<std::uint8_t>(frag) &&
            stamps.back().first + stamps.back().second.len == v) {
            stamps.back().second.len += len;
        } else {
            stamps.push_back(
                {v, Stamp{len, static_cast<std::uint8_t>(frag)}});
        }
    };
    auto stampStretch = [&](Vpn s, Vpn e, FrameId frame0) {
        // A block aligned in both vpn and frame is aligned in their
        // difference, so no page gets a fragment above k, its trailing
        // zeros: an odd offset makes the whole stretch fragment 0.
        unsigned k = std::min(
            static_cast<unsigned>(std::countr_zero(frame0 - s)),
            kMaxFragment);
        if (k == 0) {
            add_stamp(s, e - s, 0);
            return;
        }
        auto block = [&](Vpn v) {
            unsigned frag =
                std::min({static_cast<unsigned>(std::countr_zero(v)), k,
                          floorLog2(e - v)});
            add_stamp(v, 1ull << frag, frag);
            return v + (1ull << frag);
        };
        // Greedy blocks up to 2^k alignment; from there every block is
        // a whole 2^k one until the tail, so stamp that middle at once.
        Vpn v = s;
        while (v < e && static_cast<unsigned>(std::countr_zero(v)) < k)
            v = block(v);
        std::uint64_t middle = ((e - v) >> k) << k;
        if (middle != 0) {
            add_stamp(v, middle, k);
            v += middle;
        }
        while (v < e)
            v = block(v);
    };

    bool open = false;
    Vpn s_begin = 0, s_end = 0;
    FrameId s_frame = 0;
    PteFlags s_flags;
    forEachRun(begin, end, [&](const PteRun &part) {
        Vpn p = part.vpn;
        while (p < part.end()) {
            // Maximal internally frame-contiguous piece of the part.
            FrameId f0 = part.frameOf(p);
            Vpn piece_end;
            if (part.scatter == nullptr) {
                piece_end = part.end();
            } else {
                piece_end = p + 1;
                while (piece_end < part.end() &&
                       part.scatter[piece_end - part.vpn] ==
                           f0 + (piece_end - p))
                    ++piece_end;
            }
            if (open && p == s_end &&
                f0 == s_frame + (s_end - s_begin) &&
                part.flags == s_flags) {
                s_end = piece_end;
            } else {
                if (open)
                    stampStretch(s_begin, s_end, s_frame);
                s_begin = p;
                s_end = piece_end;
                s_frame = f0;
                s_flags = part.flags;
                open = true;
            }
            p = piece_end;
        }
    });
    if (open)
        stampStretch(s_begin, s_end, s_frame);

    // Phase 2: the stamps cover every present page of the window, so
    // they replace the window's overlay outright; only nonzero ones
    // are stored.
    clearStamps(begin, end);
    auto hint = overlay.lower_bound(end);
    for (const auto &[vpn, stamp] : stamps)
        if (stamp.frag != 0)
            overlay.emplace_hint(hint, vpn, stamp);
}

Fragment
GpuPageTable::fragmentOf(Vpn vpn) const
{
    auto pte = lookup(vpn);
    if (!pte)
        panic("fragmentOf on absent vpn 0x%llx",
              static_cast<unsigned long long>(vpn));
    std::uint64_t span = 1ull << pte->fragment;
    return Fragment{vpn & ~(span - 1), span};
}

std::vector<std::uint64_t>
GpuPageTable::fragmentHistogram(Vpn begin, Vpn end) const
{
    std::vector<std::uint64_t> histogram(kMaxFragment + 1, 0);
    forEachFragmentRun(begin, end,
                       [&](Vpn, std::uint64_t len, std::uint8_t frag) {
                           histogram[frag] += len;
                       });
    return histogram;
}

} // namespace upm::vm
