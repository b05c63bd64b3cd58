#include "exp/sweep.hh"

namespace gpuwalk::exp {

RunResult
defaultJobBody(const JobSpec &spec)
{
    auto result = runOne(spec.cfg, spec.workload, spec.params);
    result.variant = spec.variant;
    result.seed = spec.seed;
    return result;
}

std::vector<Job>
SweepSpec::expand() const
{
    const JobBody run_body = body ? body : defaultJobBody;

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
                    JobSpec spec;
                    spec.workload = workload;
                    spec.scheduler = core::toString(kind);
                    spec.variant = variant.name;
                    spec.seed = seed;
                    spec.cfg = withScheduler(base, kind);
                    spec.params = params;
                    if (explicit_seeds) {
                        spec.params.seed = seed;
                        spec.cfg.schedulerSeed = seed;
                    }
                    if (variant.apply)
                        variant.apply(spec.cfg, spec.params);
                    std::string &trace = spec.cfg.trace.outPath;
                    if (!trace.empty()) {
                        trace = traceFilePath(trace, workload,
                                              spec.scheduler,
                                              variant.name, seed);
                    }

                    Job job;
                    job.workload = spec.workload;
                    job.scheduler = spec.scheduler;
                    job.variant = spec.variant;
                    job.seed = spec.seed;
                    job.body = [run_body, spec = std::move(spec)] {
                        return run_body(spec);
                    };
                    jobs.push_back(std::move(job));
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
