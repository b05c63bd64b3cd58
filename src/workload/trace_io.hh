/**
 * @file
 * Workload trace serialization.
 *
 * A simple versioned text format so traces can be generated once,
 * archived, inspected, or produced by external tools (e.g. a real
 * binary-instrumentation pass) and replayed through the simulator:
 *
 *   gpuwalk-trace v1
 *   wavefronts <N>
 *   wavefront <id> instructions <M>
 *   <L|S> <computeCycles> <laneCount> <addr0> <addr1> ...
 *   ...
 *
 * Addresses are hexadecimal and below gpu::vaLimit (2^48); compute
 * cycles are at most gpu::maxComputeCycles. The format is deliberately
 * line-oriented and greppable.
 */

#ifndef GPUWALK_WORKLOAD_TRACE_IO_HH
#define GPUWALK_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "gpu/instruction.hh"
#include "vm/address_space.hh"

namespace gpuwalk::workload {

/** Writes @p workload to @p os in the gpuwalk-trace v1 format. */
void saveTrace(std::ostream &os, const gpu::GpuWorkload &workload);

/**
 * Parses a gpuwalk-trace v1 stream. fatal() on malformed input
 * (version mismatch, truncated records, lane counts, compute cycles
 * or lane addresses out of range), naming the bad record.
 */
gpu::GpuWorkload loadTrace(std::istream &is);

/** Convenience wrappers over file streams; fatal() on I/O errors. */
void saveTraceFile(const std::string &path,
                   const gpu::GpuWorkload &workload);
gpu::GpuWorkload loadTraceFile(const std::string &path);

/** Summary statistics of a trace (for inspection tools). */
struct TraceSummary
{
    std::size_t wavefronts = 0;
    std::size_t instructions = 0;
    std::size_t loads = 0;
    std::size_t stores = 0;
    double avgActiveLanes = 0.0;
    double avgUniquePages = 0.0;   ///< post-coalescing divergence
    std::uint64_t totalComputeCycles = 0;
};

/** Computes summary statistics of @p workload. */
TraceSummary summarizeTrace(const gpu::GpuWorkload &workload);

/**
 * Eagerly maps every page an external trace touches into @p as
 * (replayed traces reference virtual addresses that were never
 * allocated through the address space). Idempotent.
 */
void mapTraceAddresses(vm::AddressSpace &as,
                       const gpu::GpuWorkload &workload);

} // namespace gpuwalk::workload

#endif // GPUWALK_WORKLOAD_TRACE_IO_HH
