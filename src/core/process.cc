#include "core/process.hh"

#include <vector>

#include "core/system.hh"

namespace upm::core {

namespace {

/** Per-process fault-jitter seed: derived from the pid through
 *  SplitMix64 so every process prices faults from its own stream,
 *  reproducibly, without touching the System's handler. */
std::uint64_t
faultSeedFor(std::uint64_t pid)
{
    SplitMix64 mix(0xfa17'0000'0000'0000ull ^ pid);
    return mix.next();
}

} // namespace

Process::Process(System &system, std::uint64_t pid, vm::VirtAddr va_base,
                 vm::VirtAddr va_end)
    : sys(system), id(pid),
      // The pid namespaces this process's pages in engine PageKeys
      // (the primary address space is space 0).
      as(system.nodeMemory(), backingStore, system.hooks(calendar, pid)),
      faults(system.config().faults, faultSeedFor(pid),
             system.hooks(calendar, pid)),
      registry(as, {}, system.hooks(calendar, pid)),
      rt(as, registry, faults, system.config(), system.geometry(),
         system.hooks(calendar, pid))
{
    as.setVaWindow(va_base, va_end);
    sys.wireSockets(faults, rt.perf());
    sys.registerProcess(this);
}

Process::~Process()
{
    reclaim();
    sys.unregisterProcess(this);
}

std::uint64_t
Process::residentPages() const
{
    std::uint64_t pages = as.systemTable().presentCount();
    as.forEachVma([&](const vm::Vma &vma) {
        for (const auto &replica : vma.replicaRanges)
            pages += replica.count;
    });
    return pages;
}

std::uint64_t
Process::reclaim()
{
    std::uint64_t pages = residentPages();
    rt.releaseAll();
    // Stragglers: VMAs mapped directly on the address space (arena
    // experiments, partially unwound crashes). munmapChecked routes
    // every frame through the same audited free paths.
    std::vector<vm::VirtAddr> bases;
    as.forEachVma(
        [&](const vm::Vma &vma) { bases.push_back(vma.base); });
    for (vm::VirtAddr base : bases)
        as.munmapChecked(base);
    return pages;
}

} // namespace upm::core
