#include "exp/sweep.hh"

#include <algorithm>
#include <cctype>
#include <utility>

namespace gpuwalk::exp {

std::string
traceFilePath(const std::string &base, const Job &job)
{
    if (base.empty())
        return base;
    std::string suffix;
    for (const std::string *label :
         {&job.workload, &job.scheduler, &job.variant}) {
        if (!label->empty())
            suffix += "-" + *label;
    }
    std::replace_if(
        suffix.begin(), suffix.end(),
        [](unsigned char c) {
            return !std::isalnum(c) && c != '.' && c != '_' && c != '+'
                   && c != '-';
        },
        '_');
    return insertPathSuffix(base, suffix + "-s" + std::to_string(job.seed));
}

Job
makeJob(std::string workload, std::string scheduler, std::string variant,
        std::uint64_t seed, RunSpec spec)
{
    Job job{std::move(workload), std::move(scheduler), std::move(variant),
            seed, std::move(spec)};
    auto &trace = job.spec.cfg.trace.outPath;
    trace = traceFilePath(trace, job);
    return job;
}

std::vector<Job>
SweepSpec::expand() const
{
    // Singleton placeholders so the cross product below stays a plain
    // four-deep loop even for unused axes.
    const std::vector<ConfigVariant> variant_axis =
        variants.empty() ? std::vector<ConfigVariant>{{"", nullptr}}
                         : variants;
    // Only an explicit seed axis overrides the seeds baked into the
    // base config/params (the baseline pairs workload seed 42 with
    // scheduler seed 1; silently collapsing them would perturb the
    // random-scheduler stream).
    const bool explicit_seeds = !seeds.empty();
    const std::vector<std::uint64_t> seed_axis =
        explicit_seeds ? seeds
                       : std::vector<std::uint64_t>{params.seed};

    std::vector<Job> jobs;
    jobs.reserve(variant_axis.size() * workloads.size()
                 * schedulers.size() * seed_axis.size());
    for (const auto &variant : variant_axis) {
        for (const auto &workload : workloads) {
            for (const auto kind : schedulers) {
                for (const auto seed : seed_axis) {
                    auto cfg = withScheduler(base, kind);
                    auto job_params = params;
                    if (explicit_seeds) {
                        job_params.seed = seed;
                        cfg.schedulerSeed = seed;
                    }
                    if (variant.apply)
                        variant.apply(cfg, job_params);
                    RunSpec spec{std::move(cfg),
                                 {{workload, std::move(job_params)}}};
                    jobs.push_back(makeJob(workload, core::toString(kind),
                                           variant.name, seed,
                                           std::move(spec)));
                }
            }
        }
    }
    return jobs;
}

std::vector<Job>
concat(std::vector<Job> a, std::vector<Job> b)
{
    a.reserve(a.size() + b.size());
    for (auto &job : b)
        a.push_back(std::move(job));
    return a;
}

} // namespace gpuwalk::exp
