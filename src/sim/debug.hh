/**
 * @file
 * Flag-gated debug tracing, in the spirit of gem5's DPRINTF.
 *
 * Set GPUWALK_DEBUG to a comma-separated flag list to stream
 * component events to stderr with their simulated timestamps:
 *
 *   GPUWALK_DEBUG=walks,sched ./build/tools/gpuwalk --workload=MVT
 *   GPUWALK_DEBUG=all ...
 *
 * Flags used by the library: "walks" (walker start/finish), "sched"
 * (buffer admission and dispatch decisions), "tlb" (IOMMU TLB
 * hits/misses), "dram" (memory controller issue), "gpu" (instruction
 * issue/retire). Tracing is off (and costs one predictable branch)
 * unless the environment variable names the flag.
 */

#ifndef GPUWALK_SIM_DEBUG_HH
#define GPUWALK_SIM_DEBUG_HH

#include <sstream>
#include <string>
#include <string_view>

#include "sim/ticks.hh"

namespace gpuwalk::sim::debug {

/** True if GPUWALK_DEBUG contains @p flag (or "all"). */
bool enabled(std::string_view flag);

namespace detail {
/** Parses GPUWALK_DEBUG (once per process) and reports whether it
 *  names any flag at all. */
bool parseAnyFlag();

/** The cached parseAnyFlag() result: the disabled check every log
 *  call makes is one load, not a string lookup. */
inline bool
anyFlag()
{
    static const bool any = parseAnyFlag();
    return any;
}

void emit(std::string_view flag, Tick now, const std::string &msg);
} // namespace detail

/**
 * Emits "tick: [flag] message" to stderr when @p flag is enabled.
 * Arguments are formatted via operator<< only when tracing is on.
 */
template <typename... Args>
void
log(const char *flag, Tick now, Args &&...args)
{
    if (!detail::anyFlag() || !enabled(flag))
        return;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    detail::emit(flag, now, os.str());
}

} // namespace gpuwalk::sim::debug

#endif // GPUWALK_SIM_DEBUG_HH
