#include "gpu/gpu.hh"

#include "sim/audit.hh"

namespace gpuwalk::gpu {

Gpu::Gpu(sim::EventQueue &eq, const GpuConfig &cfg,
         tlb::TlbHierarchy &tlbs, mem::MemoryTable &memory,
         std::vector<mem::MemoryDevice *> l1ds)
    : eq_(eq), cfg_(cfg), statGroup_("gpu")
{
    GPUWALK_ASSERT(l1ds.size() == cfg_.numCus,
                   "need one L1D per CU (got ", l1ds.size(), " for ",
                   cfg_.numCus, " CUs)");
    cus_.reserve(cfg_.numCus);
    for (unsigned i = 0; i < cfg_.numCus; ++i) {
        GPUWALK_ASSERT(l1ds[i] != nullptr, "null L1D for CU ", i);
        cus_.push_back(std::make_unique<ComputeUnit>(
            eq_, cfg_, i, tlbs, memory, *l1ds[i], *this));
        statGroup_.addChild(cus_.back()->stats());
    }
}

void
Gpu::loadWorkload(GpuWorkload workload, unsigned app_id)
{
    if (apps_.size() <= app_id)
        apps_.resize(app_id + 1);
    apps_[app_id].total +=
        static_cast<unsigned>(workload.wavefronts());
    totalWavefronts_ += static_cast<unsigned>(workload.wavefronts());

    if (started_) {
        // Late arrival (tenant churn): everything goes through the
        // dispatch queue, then finished resident slots pick it up —
        // pre-start slot filling would bypass the running CUs' issue
        // machinery.
        for (auto &trace : workload.traces)
            dispatchQueue_.emplace_back(app_id, std::move(trace));
        for (auto &cu : cus_)
            cu->notifyWorkAvailable();
        return;
    }

    // Fill free resident slots round-robin; queue the rest for
    // dispatch as slots free up.
    const std::size_t resident_capacity =
        std::size_t(cfg_.numCus) * cfg_.wavefrontsPerCu;
    for (auto &trace : workload.traces) {
        if (residentAssigned_ < resident_capacity) {
            cus_[residentAssigned_ % cfg_.numCus]->addWavefront(
                nextWavefrontId_++, app_id, std::move(trace));
            ++residentAssigned_;
        } else {
            dispatchQueue_.emplace_back(app_id, std::move(trace));
        }
    }
}

void
Gpu::loadWorkloadAt(sim::Tick tick, GpuWorkload workload,
                    unsigned app_id)
{
    GPUWALK_ASSERT(tick >= eq_.now(), "arrival tick in the past");
    const std::size_t idx = arrivals_.size();
    arrivals_.emplace_back(std::move(workload), app_id);
    eq_.scheduleIn(tick - eq_.now(), [this, idx] {
        auto &[w, app] = arrivals_[idx];
        loadWorkload(std::move(w), app);
    });
}

void
Gpu::setAppContext(unsigned app_id, tlb::ContextId ctx)
{
    if (appCtx_.size() <= app_id)
        appCtx_.resize(app_id + 1, tlb::defaultContext);
    appCtx_[app_id] = ctx;
}

std::optional<Gpu::WavefrontAssignment>
Gpu::dispatchNextWavefront()
{
    if (dispatchQueue_.empty())
        return std::nullopt;
    WavefrontAssignment out;
    out.globalId = nextWavefrontId_++;
    out.appId = dispatchQueue_.front().first;
    out.trace = std::move(dispatchQueue_.front().second);
    dispatchQueue_.pop_front();
    return out;
}

void
Gpu::start()
{
    started_ = true;
    for (auto &cu : cus_)
        cu->start();
}

void
Gpu::onWavefrontDone(unsigned app_id)
{
    ++wavefrontsDone_;
    AppState &app = apps_.at(app_id);
    ++app.done;
    if (app.done == app.total)
        app.finishTick = eq_.now();
    if (done())
        finishTick_ = eq_.now();
}

void
Gpu::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        "gpu.wavefront_completion", [this](sim::AuditContext &ctx) {
            ctx.require(wavefrontsDone_ <= totalWavefronts_,
                        wavefrontsDone_, " wavefronts retired but only ",
                        totalWavefronts_, " loaded");
            for (std::size_t app = 0; app < apps_.size(); ++app) {
                ctx.require(apps_[app].done <= apps_[app].total, "app ",
                            app, ": ", apps_[app].done,
                            " wavefronts retired but only ",
                            apps_[app].total, " loaded");
            }
            if (!ctx.final())
                return;
            ctx.require(wavefrontsDone_ == totalWavefronts_,
                        wavefrontsDone_, " of ", totalWavefronts_,
                        " wavefronts retired");
            for (std::size_t app = 0; app < apps_.size(); ++app) {
                ctx.require(apps_[app].done == apps_[app].total, "app ",
                            app, ": ", apps_[app].done, " of ",
                            apps_[app].total, " wavefronts retired");
            }
        });
}

sim::Tick
Gpu::totalStallTicks() const
{
    sim::Tick total = 0;
    for (const auto &cu : cus_)
        total += cu->stallTicks();
    return total;
}

std::uint64_t
Gpu::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &cu : cus_)
        total += cu->instructionsRetired();
    return total;
}

} // namespace gpuwalk::gpu
