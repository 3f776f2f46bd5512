/**
 * @file
 * Size and time unit helpers used throughout upmsim.
 *
 * All simulated times are carried as double nanoseconds (`SimTime`);
 * all sizes as unsigned 64-bit byte counts. The literal-style constants
 * here keep calibration tables readable (e.g. `256 * MiB`, `17.2 * TBps`).
 */

#ifndef UPM_COMMON_UNITS_HH
#define UPM_COMMON_UNITS_HH

#include <bit>
#include <cstdint>

namespace upm {

/** Simulated time in nanoseconds. */
using SimTime = double;

// Sizes (bytes).
inline constexpr std::uint64_t KiB = 1024ull;
inline constexpr std::uint64_t MiB = 1024ull * KiB;
inline constexpr std::uint64_t GiB = 1024ull * MiB;
inline constexpr std::uint64_t TiB = 1024ull * GiB;

// Times (nanoseconds).
inline constexpr SimTime nanoseconds = 1.0;
inline constexpr SimTime microseconds = 1e3;
inline constexpr SimTime milliseconds = 1e6;
inline constexpr SimTime seconds = 1e9;

/**
 * Bandwidth helper: bytes per nanosecond for a given GB/s figure.
 * 1 GB/s == 1e9 B/s == 1 B/ns (decimal giga, as vendors quote).
 */
constexpr double
gbps(double gigabytes_per_second)
{
    return gigabytes_per_second;  // bytes per nanosecond
}

/** Bandwidth helper: TB/s expressed in bytes per nanosecond. */
constexpr double
tbps(double terabytes_per_second)
{
    return terabytes_per_second * 1000.0;
}

/** Convert a byte count and a bandwidth (B/ns) into a transfer time. */
constexpr SimTime
transferTime(std::uint64_t bytes, double bytes_per_ns)
{
    return static_cast<double>(bytes) / bytes_per_ns;
}

/** Integer ceiling division. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Round @p a up to the next multiple of @p b (b need not be pow2). */
constexpr std::uint64_t
roundUp(std::uint64_t a, std::uint64_t b)
{
    return ceilDiv(a, b) * b;
}

/** True if @p x is a (nonzero) power of two. */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Floor of log2(x); 0 for x == 0. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    return x == 0 ? 0 : static_cast<unsigned>(std::bit_width(x)) - 1;
}

/** Ceiling of log2(x); x must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t x)
{
    return isPow2(x) ? floorLog2(x) : floorLog2(x) + 1;
}

} // namespace upm

#endif // UPM_COMMON_UNITS_HH
