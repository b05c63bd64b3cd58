/**
 * @file
 * Unit tests for the channel primitive (sim/port.hh): latency
 * accounting, pass-through semantics and conservation counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/port.hh"

namespace {

using namespace gpuwalk;
using sim::Channel;
using sim::EventQueue;
using sim::Tick;

TEST(Port, SendAddsTheChannelLatency)
{
    EventQueue eq;
    Channel<int> ch("link", 40);
    ch.bind(eq);

    Tick delivered_at = sim::maxTick;
    ch.onDeliver([&](int &&) { delivered_at = eq.now(); });

    // Advance time a little so the latency is added to "now", not 0.
    eq.schedule(eq.now() + 5, [] {});
    eq.runOne();
    ASSERT_EQ(eq.now(), 5u);

    ch.send(7);
    EXPECT_EQ(ch.sent(), 1u);
    EXPECT_EQ(ch.delivered(), 0u) << "positive latency defers delivery";

    while (eq.runOne()) {}
    EXPECT_EQ(delivered_at, 45u) << "delivery tick = send tick + latency";
    EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Port, MinLatencyDefaultsToTheLatency)
{
    Channel<int> ch("link", 25'000);
    EXPECT_EQ(ch.latency(), 25'000u);
    EXPECT_EQ(ch.minLatency(), 25'000u);
}

TEST(Port, ExplicitMinLatencyAllowsEarlierSendAt)
{
    EventQueue eq;
    Channel<int> ch("dram_reply", 100, 10);
    ch.bind(eq);
    EXPECT_EQ(ch.minLatency(), 10u);

    std::vector<Tick> deliveries;
    ch.onDeliver([&](int &&) { deliveries.push_back(eq.now()); });

    ch.sendAt(eq.now() + 10, 1); // exactly the floor: legal
    ch.sendAt(eq.now() + 60, 2); // between floor and nominal: legal
    while (eq.runOne()) {}
    EXPECT_EQ(deliveries, (std::vector<Tick>{10, 60}));
}

TEST(Port, SameTickSendIsASynchronousCallInSerialMode)
{
    EventQueue eq;
    Channel<int> ch("zero_hop", 0);
    ch.bind(eq);

    bool delivered = false;
    ch.onDeliver([&](int &&v) {
        delivered = true;
        EXPECT_EQ(v, 9);
    });

    const std::uint64_t events_before = eq.executed();
    ch.sendNow(9);
    EXPECT_TRUE(delivered) << "serial same-tick delivery is synchronous";
    EXPECT_EQ(eq.executed(), events_before) << "no event was scheduled";
    EXPECT_EQ(ch.sent(), 1u);
    EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Port, SerialPositiveLatencySendSchedulesExactlyOneEvent)
{
    EventQueue eq;
    Channel<int> ch("link", 8);
    ch.bind(eq);
    ch.onDeliver([](int &&) {});

    ASSERT_TRUE(eq.empty());
    ch.send(1);
    EXPECT_EQ(eq.pending(), 1u)
        << "a serial send must cost the single event the direct "
           "scheduleIn it replaced cost — golden digests depend on it";
    while (eq.runOne()) {}
    EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Port, ConservationCountersBalanceAfterAFullDrain)
{
    EventQueue eq;
    Channel<int> ch("link", 5, /*min_latency=*/0);
    ch.bind(eq);
    ch.onDeliver([](int &&) {});

    for (int i = 0; i < 17; ++i) {
        if (i % 3 == 0)
            ch.sendNow(i);
        else
            ch.send(i);
    }
    EXPECT_EQ(ch.sent(), 17u);
    EXPECT_EQ(ch.delivered(), 6u) << "only same-tick sends delivered yet";
    while (eq.runOne()) {}
    EXPECT_EQ(ch.delivered(), ch.sent());
}

} // namespace
