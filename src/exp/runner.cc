#include "exp/runner.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/logging.hh"

namespace gpuwalk::exp {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

const RunResult &
SweepResult::at(const std::string &workload,
                const std::string &scheduler,
                const std::string &variant) const
{
    for (const auto &run : runs_) {
        if (run.workload != workload)
            continue;
        if (!scheduler.empty() && run.scheduler != scheduler)
            continue;
        if (!variant.empty() && run.variant != variant)
            continue;
        return run;
    }
    sim::panic("no sweep result for (workload='", workload,
               "', scheduler='", scheduler, "', variant='", variant,
               "')");
}

const RunResult &
SweepResult::at(const std::string &workload,
                core::SchedulerKind scheduler,
                const std::string &variant) const
{
    return at(workload, core::toString(scheduler), variant);
}

const system::RunStats &
SweepResult::stats(const std::string &workload,
                   core::SchedulerKind scheduler,
                   const std::string &variant) const
{
    return at(workload, scheduler, variant).stats;
}

SweepResult
runJobs(const std::vector<Job> &jobs, const RunnerOptions &opts)
{
    SweepResult out;
    out.runs_.resize(jobs.size());

    unsigned workers =
        opts.jobs ? opts.jobs
                  : std::max(1u, std::thread::hardware_concurrency());
    if (jobs.size() < workers)
        workers = static_cast<unsigned>(jobs.size());
    if (workers == 0)
        workers = 1;

    out.jobs_used_ = workers;

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const auto start = std::chrono::steady_clock::now();
            try {
                RunResult result = jobs[i].body();
                result.wallSeconds = secondsSince(start);
                // The job's labels are authoritative: custom bodies
                // need not repeat them.
                result.workload = jobs[i].workload;
                result.scheduler = jobs[i].scheduler;
                result.variant = jobs[i].variant;
                result.seed = jobs[i].seed;
                out.runs_[i] = std::move(result);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                }
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const auto sweep_start = std::chrono::steady_clock::now();
    if (workers == 1) {
        // --jobs 1 stays strictly serial on the calling thread: no
        // pool, no interleaving — the reference execution.
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    out.wall_seconds_ = secondsSince(sweep_start);

    if (first_error)
        std::rethrow_exception(first_error);
    return out;
}

SweepResult
runSweep(const SweepSpec &spec, const RunnerOptions &opts)
{
    if (!opts.trace.enabled && !opts.audit.enabled
        && !opts.gmmu.enabled
        && opts.prefetch.kind == iommu::PrefetchKind::Off
        && !opts.wasp
        && opts.specAdmission == iommu::SpecAdmission::Idle) {
        return runJobs(spec.expand(), opts);
    }
    SweepSpec instrumented = spec;
    if (opts.trace.enabled)
        instrumented.base.trace = opts.trace;
    if (opts.audit.enabled)
        instrumented.base.audit = opts.audit;
    if (opts.gmmu.enabled)
        instrumented.base.gmmu = opts.gmmu;
    if (opts.prefetch.kind != iommu::PrefetchKind::Off)
        instrumented.base.iommu.prefetch = opts.prefetch;
    if (opts.wasp) {
        instrumented.base.gpu.wavefrontSched =
            gpu::WavefrontSchedPolicy::Wasp;
        instrumented.base.gpu.waspLeaders = opts.waspLeaders;
        instrumented.base.gpu.waspDistanceCycles =
            opts.waspDistanceCycles;
    }
    if (opts.specAdmission != iommu::SpecAdmission::Idle)
        instrumented.base.iommu.specAdmission = opts.specAdmission;
    return runJobs(instrumented.expand(), opts);
}

} // namespace gpuwalk::exp
