#include "uvm/uvm.hh"

#include <algorithm>

#include "common/log.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"

namespace upm::uvm {

UvmSimulator::UvmSimulator(std::uint64_t device_memory_bytes,
                           const UvmCosts &costs)
    : UvmSimulator(device_memory_bytes, policy::EvictionKind::Lru, 0,
                   costs)
{
}

UvmSimulator::UvmSimulator(std::uint64_t device_memory_bytes,
                           policy::EvictionKind eviction,
                           std::uint64_t seed, const UvmCosts &costs)
    : cost(costs), capacityPages(device_memory_bytes / mem::kPageSize),
      victims(policy::makeEviction(eviction, seed))
{
    if (capacityPages == 0)
        fatal("UVM device memory must hold at least one page");
}

std::uint64_t
UvmSimulator::allocManaged(std::uint64_t bytes)
{
    if (bytes == 0)
        fatal("managed allocation of zero bytes");
    Region region;
    region.pages = ceilDiv(bytes, mem::kPageSize);
    region.residency.assign(region.pages, Residency::Host);
    std::uint64_t handle = nextHandle++;
    if (pol != nullptr)
        pol->noteResidentRange(handle, 0, region.pages, policy::Tier::Slow);
    regions.emplace(handle, std::move(region));
    return handle;
}

void
UvmSimulator::freeManaged(std::uint64_t handle)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("free of unknown managed region %llu",
              static_cast<unsigned long long>(handle));
    const Region &region = it->second;
    for (std::uint64_t p = 0; p < region.pages;) {
        std::uint64_t q = spanEnd(region, p, region.pages);
        if (region.residency[p] == Residency::Device) {
            victims->removeRun({handle, p}, q - p);
            residentPages -= q - p;
        }
        p = q;
    }
    if (pol != nullptr) {
        for (std::uint64_t p = 0; p < region.pages; ++p)
            pol->noteRemoved({handle, p});
    }
    regions.erase(it);
}

std::uint64_t
UvmSimulator::spanEnd(const Region &region, std::uint64_t page,
                      std::uint64_t last)
{
    auto begin = region.residency.begin();
    Residency other = region.residency[page] == Residency::Device
                          ? Residency::Host
                          : Residency::Device;
    return static_cast<std::uint64_t>(
        std::find(begin + static_cast<std::ptrdiff_t>(page),
                  begin + static_cast<std::ptrdiff_t>(last), other) -
        begin);
}

void
UvmSimulator::setResidency(Region &region, std::uint64_t first,
                           std::uint64_t count, Residency to)
{
    auto at = region.residency.begin() + static_cast<std::ptrdiff_t>(first);
    std::fill(at, at + static_cast<std::ptrdiff_t>(count), to);
}

std::uint64_t
UvmSimulator::pageEnd(std::uint64_t offset, std::uint64_t bytes)
{
    // A zero-byte access names no page, aligned or not.
    if (bytes == 0)
        return offset / mem::kPageSize;
    return ceilDiv(offset + bytes, mem::kPageSize);
}

SimTime
UvmSimulator::migrationTime(std::uint64_t pages) const
{
    if (pages == 0)
        return 0.0;
    std::uint64_t batches = ceilDiv(pages, cost.faultBatchPages);
    return static_cast<double>(batches) * cost.faultBatchOverhead +
           static_cast<double>(pages) * cost.perPageOverhead +
           static_cast<double>(pages * mem::kPageSize) /
               cost.linkBandwidth;
}

void
UvmSimulator::pageInToDevice(Region &region, std::uint64_t handle,
                             std::uint64_t first, std::uint64_t count)
{
    setResidency(region, first, count, Residency::Device);
    const std::uint64_t room = capacityPages - residentPages;
    evictedRuns.clear();
    victims->admitRun({handle, first}, count, tick, room, evictedRuns);
    std::uint64_t evictedPages = 0;
    for (const policy::PageRun &run : evictedRuns) {
        auto it = regions.find(run.first.space);
        if (it != regions.end())
            setResidency(it->second, run.first.page, run.count,
                         Residency::Host);
        evictedPages += run.count;
    }
    residentPages = residentPages + count - evictedPages;
    toDevice += count;
    toHost += evictedPages;
    evicted += evictedPages;
    if (pol == nullptr)
        return;
    // Report in page-fault order: once the room is used up, each page
    // in turn evicts one victim (leaving the device one page short of
    // full) before it becomes resident.
    auto run = evictedRuns.begin();
    std::uint64_t taken = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (i >= room) {
            policy::PageKey victim{run->first.space,
                                   run->first.page + taken};
            if (++taken == run->count) {
                ++run;
                taken = 0;
            }
            pol->noteEvicted(victim, capacityPages - 1);
            // The page is still allocated, just host-resident again.
            pol->noteResident(victim, policy::Tier::Slow);
        }
        pol->noteResident({handle, first + i}, policy::Tier::Fast);
    }
}

void
UvmSimulator::pageOutToHost(Region &region, std::uint64_t handle,
                            std::uint64_t first, std::uint64_t count)
{
    setResidency(region, first, count, Residency::Host);
    victims->removeRun({handle, first}, count);
    residentPages -= count;
    toHost += count;
    if (pol != nullptr) {
        for (std::uint64_t p = first; p < first + count; ++p)
            pol->noteResident({handle, p}, policy::Tier::Slow);
    }
}

SimTime
UvmSimulator::gpuAccess(std::uint64_t handle, std::uint64_t offset,
                        std::uint64_t bytes)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("GPU access to unknown managed region");
    Region &region = it->second;
    std::uint64_t first = offset / mem::kPageSize;
    std::uint64_t last = pageEnd(offset, bytes);
    if (last > region.pages)
        fatal("GPU access beyond managed region");

    ++tick;
    if (pol != nullptr)
        pol->advanceTick();
    std::uint64_t faulted = 0;
    for (std::uint64_t p = first; p < last;) {
        std::uint64_t q = spanEnd(region, p, last);
        if (region.residency[p] == Residency::Device) {
            victims->touchRun({handle, p}, q - p, tick);
        } else {
            pageInToDevice(region, handle, p, q - p);
            faulted += q - p;
        }
        p = q;
    }
    if (pol != nullptr)
        pol->noteAccessRange(handle, first, last - first);
    return migrationTime(faulted) +
           static_cast<double>(bytes) / cost.deviceBandwidth;
}

SimTime
UvmSimulator::cpuAccess(std::uint64_t handle, std::uint64_t offset,
                        std::uint64_t bytes)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("CPU access to unknown managed region");
    Region &region = it->second;
    std::uint64_t first = offset / mem::kPageSize;
    std::uint64_t last = pageEnd(offset, bytes);
    if (last > region.pages)
        fatal("CPU access beyond managed region");

    ++tick;
    if (pol != nullptr)
        pol->advanceTick();
    std::uint64_t migrated = 0;
    for (std::uint64_t p = first; p < last;) {
        std::uint64_t q = spanEnd(region, p, last);
        if (region.residency[p] == Residency::Device) {
            pageOutToHost(region, handle, p, q - p);
            migrated += q - p;
        }
        p = q;
    }
    if (pol != nullptr)
        pol->noteAccessRange(handle, first, last - first);
    return migrationTime(migrated) +
           static_cast<double>(bytes) / cost.hostBandwidth;
}

SimTime
UvmSimulator::migrationStep()
{
    if (pol == nullptr)
        return 0.0;
    if (!pol->migrates())
        return 0.0;
    std::uint64_t moved = 0;
    for (const auto &action : pol->migrationStep()) {
        auto it = regions.find(action.key.space);
        if (it == regions.end())
            continue;  // proposal raced a free; drop it
        Region &region = it->second;
        if (action.key.page >= region.pages)
            continue;
        Residency current = region.residency[action.key.page];
        if (action.to == policy::Tier::Fast) {
            // Promotion: only into free capacity -- migration is an
            // optimisation and must never force demand evictions.
            if (current == Residency::Device ||
                residentPages >= capacityPages)
                continue;
            region.residency[action.key.page] = Residency::Device;
            victims->insert(action.key, tick);
            ++residentPages;
            ++toDevice;
            pol->noteMigrated(action.key, policy::Tier::Fast);
        } else {
            if (current == Residency::Host)
                continue;
            region.residency[action.key.page] = Residency::Host;
            victims->remove(action.key);
            --residentPages;
            ++toHost;
            pol->noteMigrated(action.key, policy::Tier::Slow);
        }
        ++moved;
    }
    return migrationTime(moved);
}

} // namespace upm::uvm
