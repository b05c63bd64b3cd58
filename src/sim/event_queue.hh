/**
 * @file
 * Deterministic discrete-event core: a two-tier calendar queue
 * dispatching pooled callables.
 *
 * Every scheduled event is one node kind: a callable stored inline in
 * a node drawn from a sim::SlotTable. Events run in (tick, insertion
 * sequence) order, so equal-time events execute in a fully
 * deterministic order and every simulation is reproducible for a
 * given configuration and seed. The golden trace digests
 * (tests/test_digest_golden.cc) pin that order down bit-exactly.
 *
 * Structure
 * ---------
 * Tier 1 (near future): one bucket per slot of slotTicks (256) ticks,
 * over the slot-aligned window of the 256 slots from slot(now), i.e.
 * windowTicks (2^16) ticks. Ticks are picoseconds and the common
 * scheduling distances in this simulator (GPU cycle 500, IOMMU hop
 * 25000, DRAM CAS ~13750, bank-conflict reissue ~41k) all fit inside
 * the window, so almost every event lands in a bucket. Nearly every
 * event falls on a multiple of 250 ticks, so a slot holds at most two
 * distinct ticks of that pattern, and the 256 buckets (4 KiB) stay in
 * the host's cache; a bucket per tick would spread them over 1 MiB.
 * Because the window spans exactly numBuckets slots, `slot %
 * numBuckets` is collision-free and every bucket holds events of a
 * single slot, kept in (tick, seq) order: scheduling appends at the
 * tail when the event sorts last (the common case) and dispatch is a
 * bitmap scan to the next occupied slot, whose head is the earliest
 * pending event.
 *
 * Tier 2 (far future): events whose slot lies numBuckets or more slots
 * past slot(now) go to a small overflow min-heap. runOne() migrates
 * them into buckets once they come within the window; when only
 * far-future events remain, time jumps directly to the earliest one.
 *
 * A node holds the capture in inline storage and its own slot handle,
 * which returns it to the table after the callable ran. A capture that
 * does not fit inline is a compile error, so no scheduled callable
 * ever allocates.
 *
 * Ordering subtlety: a bucket can hold several ticks of its slot, and
 * a migrated overflow event can carry a *lower* insertion sequence
 * than events already sitting in its bucket (they were scheduled
 * later, but near). An insert therefore walks to its (tick, seq)
 * place unless it sorts after the tail, which a fresh insert at the
 * slot's latest tick does by construction.
 */

#ifndef GPUWALK_SIM_EVENT_QUEUE_HH
#define GPUWALK_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/slot_table.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {

class EventQueue;

namespace detail {

/**
 * The event node: a type-erased callable stored inline, linked into
 * its slot bucket or parked in the overflow heap. The hot dispatch
 * path uses a fused invoke-and-destroy thunk (one indirect call); the
 * separate destroy thunk exists only for queue teardown with events
 * still pending.
 */
class PooledEvent
{
  public:
    /**
     * Sized for the largest hot capture: requests travel as 32-bit
     * handles, so the biggest is [this, handle, pa_page, large_page]
     * (24 bytes) — a completion delivered after a delay.
     */
    static constexpr std::size_t inlineBytes = 32;

    /** True when @p F fits the node's inline capture storage. */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= inlineBytes && alignof(F) <= alignof(std::max_align_t);

    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        ::new (storage()) D(std::forward<F>(fn));
        invokeDestroy_ = [](void *p) {
            D *f = std::launder(reinterpret_cast<D *>(p));
            (*f)();
            f->~D();
        };
        destroyOnly_ = [](void *p) {
            std::launder(reinterpret_cast<D *>(p))->~D();
        };
    }

    /** Hot path: run the callable and destroy it in one thunk. The
     *  node itself is released to the slot table by the queue
     *  afterwards. */
    void runAndDestroyCallable() { invokeDestroy_(storage()); }

    /** Teardown path: destroy a never-run callable. */
    void destroyCallable() { destroyOnly_(storage()); }

  private:
    friend class gpuwalk::sim::EventQueue;

    void *storage() { return store_; }

    PooledEvent *next_ = nullptr;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    void (*invokeDestroy_)(void *) = nullptr;
    void (*destroyOnly_)(void *) = nullptr;
    Handle handle_ = noHandle; ///< this node's slot in the queue's table
    alignas(std::max_align_t) unsigned char store_[inlineBytes];
};

} // namespace detail

/**
 * The central event queue driving a simulation.
 *
 * Components schedule callables at absolute ticks; the queue executes
 * them in deterministic (tick, insertion) order. There is exactly one
 * queue per System.
 */
class EventQueue
{
  public:
    /** Ticks per slot, the span one bucket covers; slots start at
     *  multiples of slotTicks. */
    static constexpr Tick slotTicks = Tick(1) << 8;

    /** Span of the near-future bucket window, in ticks: numBuckets
     *  slots starting at now()'s slot. */
    static constexpr Tick windowTicks = Tick(1) << 16;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Destroy never-run callables: their captures may own
        // resources. The nodes go with the slot table.
        for (const Bucket &b : buckets_)
            for (Node *ev = b.head; ev; ev = ev->next_)
                ev->destroyCallable();
        for (Node *ev : overflow_)
            ev->destroyCallable();
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events awaiting execution. */
    std::size_t pending() const { return nearCount_ + overflow_.size(); }

    /** Events currently parked in the far-future overflow tier. */
    std::size_t overflowPending() const { return overflow_.size(); }

    /** True if no events remain. */
    bool empty() const { return pending() == 0; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedules callable @p fn to run at absolute time @p when, in a
     * pooled node with inline capture storage. A capture larger than
     * detail::PooledEvent::inlineBytes does not compile: capture one
     * pointer to the state instead.
     *
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        static_assert(Node::fitsInline<std::decay_t<F>>,
                      "event capture exceeds the pooled node's inline "
                      "storage");
        GPUWALK_ASSERT(when >= now_, "scheduling event in the past (when=",
                       when, " now=", now_, ")");
        const Handle h = nodes_.acquire();
        Node *ev = &nodes_.at(h);
        ev->emplace(std::forward<F>(fn));
        ev->handle_ = h;
        ev->when_ = when;
        ev->seq_ = nextSeq_++;
        enqueue(ev);
    }

    /** Schedules callable @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Executes the next event, advancing time to its tick.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        migrateOverflow();
        if (nearCount_ == 0) {
            if (overflow_.empty())
                return false;
            // Only far-future events remain: jump straight to the
            // earliest one and pull its cohort into the window.
            now_ = overflow_.front()->when_;
            scanFrom_ = slotOf(now_);
            migrateOverflow();
        }
        const Tick t = scanNextTick(); // leaves scanFrom_ at its slot
        const std::size_t idx = bucketIndex(scanFrom_);
        Bucket &b = buckets_[idx];
        Node *ev = b.head;
        b.head = ev->next_;
        if (!b.head)
            clearBit(idx);
        --nearCount_;
        now_ = t;
        ++executed_;
        ev->runAndDestroyCallable();
        nodes_.release(ev->handle_);
        return true;
    }

    /**
     * Runs until the queue drains or simulated time would exceed
     * @p limit, whichever comes first.
     *
     * With an explicit limit, time always advances to exactly
     * @p limit even when the queue drains early, so time-bounded
     * callers (rate probes, fixed-horizon studies) observe consistent
     * end times. The unbounded default keeps now() at the last
     * executed event.
     *
     * @return the final simulated time.
     */
    Tick
    run(Tick limit = maxTick)
    {
        if (limit == maxTick) {
            while (runOne()) {
            }
            return now_;
        }
        Tick next = 0;
        while (nextWhen(next) && next <= limit)
            runOne();
        if (now_ < limit)
            now_ = limit;
        return now_;
    }

    /** Runs at most @p max_events events. @return events executed. */
    std::uint64_t
    runEvents(std::uint64_t max_events)
    {
        std::uint64_t n = 0;
        while (n < max_events && runOne())
            ++n;
        return n;
    }

  private:
    using Node = detail::PooledEvent;

    static constexpr std::size_t numBuckets =
        static_cast<std::size_t>(windowTicks / slotTicks);
    static constexpr std::size_t numWords = numBuckets / 64;

    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    struct OverflowLater
    {
        bool
        operator()(const Node *a, const Node *b) const
        {
            if (a->when_ != b->when_)
                return a->when_ > b->when_;
            return a->seq_ > b->seq_;
        }
    };

    static Tick slotOf(Tick when) { return when / slotTicks; }

    static std::size_t
    bucketIndex(Tick slot)
    {
        return static_cast<std::size_t>(slot % numBuckets);
    }

    /** True when @p when lies in the near window (@pre when >= now). */
    bool
    inWindow(Tick when) const
    {
        return slotOf(when) - slotOf(now_) < numBuckets;
    }

    /** Strict (tick, seq) order: @p a dispatches before @p b. */
    static bool
    before(const Node *a, const Node *b)
    {
        return a->when_ < b->when_
               || (a->when_ == b->when_ && a->seq_ < b->seq_);
    }

    void
    setBit(std::size_t idx)
    {
        occupied_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    void
    clearBit(std::size_t idx)
    {
        occupied_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    void
    enqueue(Node *ev)
    {
        if (inWindow(ev->when_)) {
            bucketInsert(ev);
        } else {
            overflow_.push_back(ev);
            std::push_heap(overflow_.begin(), overflow_.end(),
                           OverflowLater{});
        }
    }

    void
    bucketInsert(Node *ev)
    {
        const Tick slot = slotOf(ev->when_);
        const std::size_t idx = bucketIndex(slot);
        Bucket &b = buckets_[idx];
        if (!b.head) {
            ev->next_ = nullptr;
            b.head = b.tail = ev;
            setBit(idx);
        } else if (before(b.tail, ev)) {
            // Fast path: a fresh insert at the slot's latest tick.
            ev->next_ = nullptr;
            b.tail->next_ = ev;
            b.tail = ev;
        } else if (before(ev, b.head)) {
            ev->next_ = b.head;
            b.head = ev;
        } else {
            Node *p = b.head;
            while (before(p->next_, ev))
                p = p->next_;
            ev->next_ = p->next_;
            p->next_ = ev;
        }
        ++nearCount_;
        if (slot < scanFrom_)
            scanFrom_ = slot;
    }

    /** Moves overflow events whose slot entered the window into their
     *  buckets, in (tick, seq) order among the slot's residents. */
    void
    migrateOverflow()
    {
        while (!overflow_.empty()) {
            Node *top = overflow_.front();
            if (!inWindow(top->when_))
                break;
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          OverflowLater{});
            overflow_.pop_back();
            bucketInsert(top);
        }
    }

    /**
     * Finds the earliest occupied slot via a circular bitmap scan and
     * returns the tick of its head, the earliest near event. The slot
     * is cached in scanFrom_ — inserts below it pull it back,
     * executions advance it — so repeated scans are near-constant
     * time.
     *
     * @pre nearCount_ > 0
     */
    Tick
    scanNextTick()
    {
        if (scanFrom_ < slotOf(now_))
            scanFrom_ = slotOf(now_);
        const std::size_t base = bucketIndex(scanFrom_);
        const std::size_t word = base >> 6;
        const unsigned bit = base & 63;
        const std::uint64_t first = occupied_[word] >> bit;
        if (first) {
            scanFrom_ += static_cast<Tick>(std::countr_zero(first));
            return buckets_[bucketIndex(scanFrom_)].head->when_;
        }
        for (std::size_t k = 1; k <= numWords; ++k) {
            std::size_t wi = word + k;
            if (wi >= numWords)
                wi -= numWords;
            const std::uint64_t bits = occupied_[wi];
            if (bits) {
                scanFrom_ += static_cast<Tick>(
                    k * 64 - bit
                    + static_cast<unsigned>(std::countr_zero(bits)));
                return buckets_[bucketIndex(scanFrom_)].head->when_;
            }
        }
        panic("bucket bitmap inconsistent with nearCount_=", nearCount_);
    }

    /**
     * Reports the tick of the earliest pending event without mutating
     * queue state (no migration, no time jump) — the overflow top
     * bounds the buckets from below when migration is pending.
     *
     * @return false when the queue is empty.
     */
    bool
    nextWhen(Tick &out)
    {
        bool have = false;
        if (nearCount_ > 0) {
            out = scanNextTick();
            have = true;
        }
        if (!overflow_.empty()
            && (!have || overflow_.front()->when_ < out)) {
            out = overflow_.front()->when_;
            have = true;
        }
        return have;
    }

    std::array<Bucket, numBuckets> buckets_{};
    std::array<std::uint64_t, numWords> occupied_{};
    std::vector<Node *> overflow_;
    SlotTable<Node> nodes_;
    std::size_t nearCount_ = 0;
    Tick now_ = 0;
    Tick scanFrom_ = 0; ///< slot where the next bitmap scan starts
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_EVENT_QUEUE_HH
