#include "exp/runner.hh"

#include <algorithm>
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

unsigned
forEachIndex(std::size_t count, const RunnerOptions &opts,
             const std::function<void(std::size_t)> &fn)
{
    unsigned workers =
        opts.jobs ? opts.jobs
                  : std::max(1u, std::thread::hardware_concurrency());
    if (count < workers)
        workers = static_cast<unsigned>(count);
    if (workers == 0)
        workers = 1;

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
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

    if (first_error)
        std::rethrow_exception(first_error);
    return workers;
}

SweepResult
runJobs(const std::vector<Job> &jobs, const RunnerOptions &opts)
{
    SweepResult out;
    out.runs_.resize(jobs.size());
    const auto sweep_start = std::chrono::steady_clock::now();
    out.jobs_used_ = forEachIndex(jobs.size(), opts, [&](std::size_t i) {
        const Job &job = jobs[i];
        const auto start = std::chrono::steady_clock::now();
        RunResult &result = out.runs_[i];
        result.stats = run(job.spec);
        result.wallSeconds = secondsSince(start);
        result.workload = job.workload;
        result.scheduler = job.scheduler;
        result.variant = job.variant;
        result.seed = job.seed;
    });
    out.wall_seconds_ = secondsSince(sweep_start);
    return out;
}

SweepResult
runSweep(const SweepSpec &spec, const RunnerOptions &opts)
{
    return runJobs(spec.expand(), opts);
}

} // namespace gpuwalk::exp
