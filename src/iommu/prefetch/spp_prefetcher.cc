#include "iommu/prefetch/spp_prefetcher.hh"

#include "sim/logging.hh"

namespace gpuwalk::iommu {

namespace {

/** Folds a signed page delta into the unsigned signature domain:
 *  magnitude shifted left, sign in bit 0 (so +d and -d differ). */
std::uint32_t
foldDelta(std::int64_t delta)
{
    const std::uint64_t mag =
        static_cast<std::uint64_t>(delta < 0 ? -delta : delta);
    return static_cast<std::uint32_t>((mag << 1)
                                      | (delta < 0 ? 1u : 0u));
}

} // namespace

const char *
toString(PrefetchKind kind)
{
    switch (kind) {
      case PrefetchKind::Off:
        return "off";
      case PrefetchKind::Spp:
        return "spp";
    }
    return "?";
}

PrefetchKind
prefetchKindFromString(const std::string &name)
{
    if (name == "off")
        return PrefetchKind::Off;
    if (name == "spp")
        return PrefetchKind::Spp;
    sim::fatal("unknown prefetch policy '", name,
               "' (expected off or spp)");
}

SppPrefetcher::SppPrefetcher(const PrefetchConfig &cfg) : cfg_(cfg)
{
    GPUWALK_ASSERT(cfg_.sppSignatureBits >= 4
                       && cfg_.sppSignatureBits <= 24,
                   "SPP signature width out of range");
    GPUWALK_ASSERT(cfg_.sppPatternEntries > 0,
                   "SPP pattern table needs entries");
    GPUWALK_ASSERT(cfg_.sppMaxDelta > 0, "SPP delta clamp must be > 0");
    sigMask_ = (1u << cfg_.sppSignatureBits) - 1;
    patterns_.resize(cfg_.sppPatternEntries);
}

std::uint32_t
SppPrefetcher::nextSignature(std::uint32_t sig, std::int64_t delta) const
{
    return ((sig << cfg_.sppSignatureShift) ^ foldDelta(delta))
           & sigMask_;
}

SppPrefetcher::PatternEntry &
SppPrefetcher::entryFor(std::uint32_t sig)
{
    return patterns_[sig % patterns_.size()];
}

void
SppPrefetcher::train(std::uint32_t sig, std::int64_t delta)
{
    PatternEntry &e = entryFor(sig);
    if (!e.valid || e.tag != sig) {
        // Direct-mapped replacement: a new signature takes the set.
        e = PatternEntry{};
        e.tag = sig;
        e.valid = true;
    }

    ++trainedDeltas_;
    DeltaSlot *slot = nullptr;
    DeltaSlot *weakest = &e.slots[0];
    for (auto &s : e.slots) {
        if (s.count > 0 && s.delta == delta) {
            slot = &s;
            break;
        }
        if (s.count < weakest->count)
            weakest = &s;
    }
    if (!slot) {
        // Replace the weakest learned delta (empty slots have count 0).
        weakest->delta = delta;
        weakest->count = 0;
        slot = weakest;
    }
    ++slot->count;
    ++e.total;

    // Keep confidence adaptive: halve everything when the per-entry
    // total saturates, so stale deltas decay instead of pinning the
    // prediction forever.
    if (e.total >= 256) {
        std::uint32_t remaining = 0;
        for (auto &s : e.slots) {
            s.count /= 2;
            remaining += s.count;
        }
        e.total = remaining > 0 ? remaining : 1;
    }
}

void
SppPrefetcher::lookahead(std::uint32_t sig, std::uint64_t page_no,
                         std::vector<PrefetchCandidate> &out) const
{
    double path_confidence = 1.0;
    std::int64_t current = static_cast<std::int64_t>(page_no);
    std::uint32_t s = sig;

    for (unsigned depth = 0; depth < cfg_.degree; ++depth) {
        const PatternEntry &e = patterns_[s % patterns_.size()];
        if (!e.valid || e.tag != s || e.total == 0)
            return;

        // Highest-confidence delta; ties break to the lowest slot.
        const DeltaSlot *best = nullptr;
        for (const auto &slot : e.slots) {
            if (slot.count == 0)
                continue;
            if (!best || slot.count > best->count)
                best = &slot;
        }
        if (!best)
            return;

        path_confidence *=
            static_cast<double>(best->count) / e.total;
        if (path_confidence < cfg_.sppConfidenceThreshold)
            return;

        current += best->delta;
        if (current <= 0)
            return;
        out.push_back({static_cast<mem::Addr>(current)
                           << mem::pageShift,
                       path_confidence});
        s = nextSignature(s, best->delta);
    }
}

void
SppPrefetcher::onDemandTouch(tlb::ContextId ctx, std::uint32_t wavefront,
                             mem::Addr va_page,
                             std::vector<PrefetchCandidate> &out)
{
    const std::uint64_t stream_key =
        (static_cast<std::uint64_t>(ctx) << 32) | wavefront;
    const std::uint64_t page_no = va_page >> mem::pageShift;

    auto [it, fresh] = streams_.try_emplace(stream_key);
    Stream &st = it->second;
    if (fresh) {
        st.lastPageNo = page_no;
        st.signature = 0;
        return;
    }

    const std::int64_t delta = static_cast<std::int64_t>(page_no)
                               - static_cast<std::int64_t>(st.lastPageNo);
    if (delta == 0)
        return; // same-page retouch carries no stride information
    if (delta > cfg_.sppMaxDelta || delta < -cfg_.sppMaxDelta) {
        // A wild jump starts a new access phase: restart the stream
        // rather than folding noise into the pattern table.
        ++streamResets_;
        st.lastPageNo = page_no;
        st.signature = 0;
        return;
    }

    train(st.signature, delta);
    st.signature = nextSignature(st.signature, delta);
    st.lastPageNo = page_no;
    lookahead(st.signature, page_no, out);
}

} // namespace gpuwalk::iommu
