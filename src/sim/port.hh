/**
 * @file
 * Typed channels carrying messages across fixed-latency component
 * boundaries.
 *
 * Every cross-component call that crosses a fixed-latency boundary —
 * GPU TLB hierarchy → IOMMU, caches/walkers → DRAM, DRAM and IOMMU
 * replies back to the requesters — is routed through a Channel, which
 * makes the crossing visible, timestamped, and countable
 * (sent/delivered conservation is an audit invariant), and carries the
 * link latency and its declared floor (minLatency, asserted on every
 * send). Requests cross as 32-bit handles (sim/request_table.hh).
 *
 * Sends preserve the pre-channel event pattern bit-exactly: a
 * positive-latency send schedules exactly one pooled callable on the
 * queue — the same single event the direct call used to schedule,
 * allocated at the same point in execution, so it draws the same
 * insertion sequence — and a same-tick send is a direct synchronous
 * call, just like the nested call it replaces. The golden digests
 * (tests/test_digest_golden.cc) pin this down.
 */

#ifndef GPUWALK_SIM_PORT_HH
#define GPUWALK_SIM_PORT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {

/**
 * Message-type-erased channel face: what the audit invariants need —
 * identity, latency floor and conservation counters.
 */
class ChannelBase
{
  public:
    ChannelBase(std::string name, Tick latency, Tick min_latency)
        : name_(std::move(name)), latency_(latency),
          minLatency_(min_latency)
    {}

    ChannelBase(const ChannelBase &) = delete;
    ChannelBase &operator=(const ChannelBase &) = delete;

    /** Attaches the queue that times sends and delivers messages. */
    void bind(EventQueue &eq) { eq_ = &eq; }

    const std::string &name() const { return name_; }

    /** Link latency added by send() (sendAt() callers pick their own). */
    Tick latency() const { return latency_; }

    /**
     * Lower bound on (delivery tick - send tick) over every message
     * this channel can carry; sendAt() asserts it.
     */
    Tick minLatency() const { return minLatency_; }

    /** Messages accepted for transmission. */
    std::uint64_t sent() const { return sent_; }

    /** Messages handed to the destination's deliver callback. */
    std::uint64_t delivered() const { return delivered_; }

  protected:
    EventQueue *eq_ = nullptr;
    const std::string name_;
    const Tick latency_;
    const Tick minLatency_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
};

/**
 * A typed, unidirectional, latency-carrying message channel.
 *
 * Wiring (system::System does this once at construction):
 *
 *     Channel<Msg> ch("name", latency, minLatency);
 *     ch.bind(queue);
 *     ch.onDeliver([&](Msg &&m) { ... });
 */
template <typename Msg>
class Channel final : public ChannelBase
{
  public:
    /**
     * @param name For audit findings and debugging.
     * @param latency Added by send(); also the default minLatency.
     * @param min_latency Floor when sendAt() can deliver sooner than
     *        @p latency (e.g. same-tick completions).
     */
    explicit Channel(std::string name, Tick latency,
                     Tick min_latency = maxTick)
        : ChannelBase(std::move(name), latency,
                      min_latency == maxTick ? latency : min_latency)
    {}

    /** Sets the destination-side handler. Must outlive the channel. */
    template <typename Fn>
    void
    onDeliver(Fn &&fn)
    {
        deliver_ = std::forward<Fn>(fn);
    }

    /** Sends @p m with the channel's fixed latency. */
    void
    send(Msg m)
    {
        sendAt(eq_->now() + latency_, std::move(m));
    }

    /** Sends @p m for immediate (same-tick) delivery. */
    void
    sendNow(Msg m)
    {
        sendAt(eq_->now(), std::move(m));
    }

    /**
     * Sends @p m for delivery at absolute tick @p when (>= the queue's
     * current time; @p when - now must be >= minLatency()).
     */
    void
    sendAt(Tick when, Msg m)
    {
        const Tick now = eq_->now();
        GPUWALK_ASSERT(when >= now, "channel '", name_,
                       "' sending into the past");
        GPUWALK_ASSERT(when - now >= minLatency_, "channel '", name_,
                       "' violates its minimum latency (", when - now,
                       " < ", minLatency_, ")");
        ++sent_;
        if (when == now) {
            // The nested synchronous call the channel replaces.
            deliver_(std::move(m));
            ++delivered_;
            return;
        }
        // Exactly one pooled event, allocated here — the same event
        // the pre-channel code scheduled at this point.
        eq_->schedule(when, [this, m = std::move(m)]() mutable {
            deliver_(std::move(m));
            ++delivered_;
        });
    }

  private:
    std::function<void(Msg &&)> deliver_;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_PORT_HH
