#include "workload/trace_io.hh"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"
#include "tlb/coalescer.hh"

namespace gpuwalk::workload {

namespace {
constexpr const char *magic = "gpuwalk-trace v1";
} // namespace

void
saveTrace(std::ostream &os, const gpu::GpuWorkload &workload)
{
    os << magic << "\n";
    os << "wavefronts " << workload.traces.size() << "\n";
    for (std::size_t wf = 0; wf < workload.traces.size(); ++wf) {
        const auto &trace = workload.traces[wf];
        os << "wavefront " << wf << " instructions " << trace.size()
           << "\n";
        for (const auto &instr : trace) {
            os << (instr.isLoad ? 'L' : 'S') << ' '
               << instr.computeCycles << ' ' << instr.laneAddrs.size();
            os << std::hex;
            for (auto a : instr.laneAddrs)
                os << ' ' << a;
            os << std::dec << "\n";
        }
    }
}

gpu::GpuWorkload
loadTrace(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != magic)
        sim::fatal("trace: bad magic line '", line, "' (expected '",
                   magic, "')");

    std::string word;
    std::size_t wavefronts = 0;
    is >> word >> wavefronts;
    if (word != "wavefronts")
        sim::fatal("trace: expected 'wavefronts', got '", word, "'");

    // The header counts are untrusted: nothing is reserved from them,
    // so a lying count fails on the first missing record instead of
    // allocating.
    gpu::GpuWorkload workload;
    for (std::size_t wf = 0; wf < wavefronts; ++wf) {
        std::size_t id = 0, instructions = 0;
        is >> word >> id;
        if (word != "wavefront" || id != wf)
            sim::fatal("trace: bad wavefront header (wf ", wf, ")");
        is >> word >> instructions;
        if (word != "instructions")
            sim::fatal("trace: expected 'instructions'");

        gpu::WavefrontTrace trace;
        for (std::size_t k = 0; k < instructions; ++k) {
            char kind = 0;
            std::uint64_t compute = 0;
            std::size_t lanes = 0;
            is >> kind >> compute >> lanes;
            if (!is || (kind != 'L' && kind != 'S'))
                sim::fatal("trace: bad instruction record (wf ", wf,
                           " instr ", k, ")");
            if (lanes > gpu::wavefrontSize)
                sim::fatal("trace: lane count ", lanes, " exceeds ",
                           gpu::wavefrontSize, " (wf ", wf, " instr ", k,
                           ")");
            if (compute > gpu::maxComputeCycles)
                sim::fatal("trace: compute cycles ", compute, " exceed ",
                           gpu::maxComputeCycles, " (wf ", wf, " instr ",
                           k, ")");
            gpu::SimdMemInstruction instr;
            instr.isLoad = kind == 'L';
            instr.computeCycles = compute;
            instr.laneAddrs.reserve(lanes);
            is >> std::hex;
            for (std::size_t l = 0; l < lanes; ++l) {
                mem::Addr a = 0;
                is >> a;
                instr.laneAddrs.push_back(a);
            }
            is >> std::dec;
            if (!is)
                sim::fatal("trace: truncated lane list (wf ", wf,
                           " instr ", k, ")");
            for (const mem::Addr a : instr.laneAddrs) {
                if (a >= gpu::vaLimit)
                    sim::fatal("trace: lane address 0x", std::hex, a,
                               std::dec, " is not below 2^48 (wf ", wf,
                               " instr ", k, ")");
            }
            trace.push_back(std::move(instr));
        }
        workload.traces.push_back(std::move(trace));
    }
    return workload;
}

void
saveTraceFile(const std::string &path, const gpu::GpuWorkload &workload)
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open '", path, "' for writing");
    saveTrace(os, workload);
    if (!os)
        sim::fatal("error while writing '", path, "'");
}

gpu::GpuWorkload
loadTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        sim::fatal("cannot open '", path, "' for reading");
    return loadTrace(is);
}

TraceSummary
summarizeTrace(const gpu::GpuWorkload &workload)
{
    TraceSummary s;
    s.wavefronts = workload.traces.size();
    double lanes = 0.0, pages = 0.0;
    for (const auto &trace : workload.traces) {
        for (const auto &instr : trace) {
            ++s.instructions;
            if (instr.isLoad)
                ++s.loads;
            else
                ++s.stores;
            lanes += static_cast<double>(instr.laneAddrs.size());
            pages += static_cast<double>(
                tlb::coalesce(instr.laneAddrs).pages.size());
            s.totalComputeCycles += instr.computeCycles;
        }
    }
    if (s.instructions > 0) {
        s.avgActiveLanes = lanes / static_cast<double>(s.instructions);
        s.avgUniquePages = pages / static_cast<double>(s.instructions);
    }
    return s;
}

void
mapTraceAddresses(vm::AddressSpace &as, const gpu::GpuWorkload &workload)
{
    for (const auto &trace : workload.traces)
        for (const auto &instr : trace)
            for (auto a : instr.laneAddrs)
                as.ensureMapped(a);
}

} // namespace gpuwalk::workload
