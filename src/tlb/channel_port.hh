/**
 * @file
 * Channel-backed TranslationService adapter plus the typed reply
 * message for the return edge.
 *
 * The GPU TLB hierarchy keeps talking to a plain TranslationService;
 * the adapter forwards each L2-miss request through the translate
 * channel, which carries the GPU→IOMMU hop latency that used to be
 * buried inside Iommu::translate(). Replies (TLB hits and finished
 * walks) travel back on a Channel<TranslationReply> wired by
 * system::System.
 */

#ifndef GPUWALK_TLB_CHANNEL_PORT_HH
#define GPUWALK_TLB_CHANNEL_PORT_HH

#include "sim/port.hh"
#include "tlb/translation.hh"

namespace gpuwalk::tlb {

/** A finished translation returning to the GPU TLB hierarchy. */
struct TranslationReply
{
    TranslationRequest req;
    mem::Addr paPage = 0;
    bool largePage = false;
};

/** Channel carrying completed translations back to the GPU. */
using TranslationReplyChannel = sim::Channel<TranslationReply>;

/** Forwards translate() into the GPU→IOMMU request channel. */
class ChannelTranslationPort final : public TranslationService
{
  public:
    explicit ChannelTranslationPort(sim::Channel<TranslationRequest> &ch)
        : ch_(ch)
    {}

    void
    translate(TranslationRequest req) override
    {
        ch_.send(std::move(req));
    }

  private:
    sim::Channel<TranslationRequest> &ch_;
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_CHANNEL_PORT_HH
