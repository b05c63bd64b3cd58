/**
 * @file
 * Deterministic fault injection for audit tests.
 *
 * The conservation auditor (audit.hh) is only trustworthy if every
 * invariant it registers has been seen to fire. FaultInjector is the
 * seeded decision core behind that proof: port-boundary adapters
 * (tlb/fault_injection.hh, mem/fault_injection.hh) consult it on each
 * crossing and drop, delay, or duplicate exactly the crossing it
 * selects. Selection is either an explicit 0-based crossing index
 * (bit-reproducible by construction) or a Bernoulli draw from a
 * seeded sim::Rng (bit-reproducible per seed).
 *
 * Test-only: nothing in src/ outside the adapters includes this, and
 * no production configuration can enable it.
 */

#ifndef GPUWALK_SIM_FAULT_INJECTOR_HH
#define GPUWALK_SIM_FAULT_INJECTOR_HH

#include <cstdint>

#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {

/** What to do to the selected port crossing. */
enum class FaultKind : std::uint8_t
{
    None,      ///< pass through untouched
    Drop,      ///< swallow the response: downstream completes, upstream
               ///< never hears back
    Delay,     ///< deliver the response Spec::delayTicks late
    Duplicate, ///< forward a phantom copy of the request (no route)
};

inline const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::Drop: return "drop";
      case FaultKind::Delay: return "delay";
      case FaultKind::Duplicate: return "duplicate";
    }
    return "?";
}

/** Decides, per port crossing, whether and how to misbehave. */
class FaultInjector
{
  public:
    struct Spec
    {
        FaultKind kind = FaultKind::None;

        /**
         * Inject at the target-th crossing (0-based) — the default,
         * fully deterministic mode. Ignored when probability > 0.
         */
        std::uint64_t target = 0;

        /**
         * When > 0, inject at each crossing with this probability
         * instead, drawn from a sim::Rng seeded with @ref seed.
         */
        double probability = 0.0;

        /** Extra response latency for FaultKind::Delay. */
        Tick delayTicks = 0;

        /** Seed for the probabilistic mode. */
        std::uint64_t seed = 0x5eed;
    };

    explicit FaultInjector(Spec spec) : spec_(spec), rng_(spec.seed) {}

    /** Called once per crossing; returns the fault to apply to it. */
    FaultKind
    decide()
    {
        const std::uint64_t n = crossings_++;
        if (spec_.kind == FaultKind::None)
            return FaultKind::None;
        const bool hit = spec_.probability > 0.0
                             ? rng_.chance(spec_.probability)
                             : n == spec_.target;
        if (!hit)
            return FaultKind::None;
        ++injected_;
        return spec_.kind;
    }

    const Spec &spec() const { return spec_; }

    /** Crossings observed so far. */
    std::uint64_t crossings() const { return crossings_; }

    /** Faults actually injected so far. */
    std::uint64_t injected() const { return injected_; }

  private:
    Spec spec_;
    Rng rng_;
    std::uint64_t crossings_ = 0;
    std::uint64_t injected_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_FAULT_INJECTOR_HH
