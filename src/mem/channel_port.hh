/**
 * @file
 * Channel-backed MemoryDevice adapter: the request side of a memory
 * edge in the system's channel wiring table.
 *
 * Components keep talking to a plain mem::MemoryDevice (caches never
 * learn about channels); the adapter forwards each access through a
 * typed request channel and stamps the reply channel the completing
 * device (mem/dram_controller.cc) must respond on. The request hop
 * itself is same-tick — the caller has already paid its own latency
 * (cache tag/hit time) before calling access(), exactly as with
 * direct wiring.
 */

#ifndef GPUWALK_MEM_CHANNEL_PORT_HH
#define GPUWALK_MEM_CHANNEL_PORT_HH

#include "mem/request.hh"
#include "sim/port.hh"

namespace gpuwalk::mem {

/** Forwards access() into a request channel toward DRAM. */
class ChannelMemoryPort final : public MemoryDevice
{
  public:
    /**
     * @param requests The table the forwarded requests live in.
     * @param request Carries requests to the DRAM controller.
     * @param reply Stamped on each request; the DRAM controller sends
     *        the completed request back through it.
     */
    ChannelMemoryPort(MemoryTable &requests,
                      sim::Channel<RequestHandle> &request,
                      MemoryReplyChannel &reply)
        : requests_(requests), request_(request), reply_(reply)
    {}

    void
    access(RequestHandle req) override
    {
        requests_.at(req).reply = &reply_;
        request_.sendNow(req);
    }

  private:
    MemoryTable &requests_;
    sim::Channel<RequestHandle> &request_;
    MemoryReplyChannel &reply_;
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_CHANNEL_PORT_HH
