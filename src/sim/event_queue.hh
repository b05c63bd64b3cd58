/**
 * @file
 * Deterministic discrete-event core: a two-tier calendar queue
 * dispatching intrusive, pool-allocated event nodes.
 *
 * Events are ordered by (tick, priority, insertion sequence); equal-time
 * events therefore execute in a fully deterministic order, which keeps
 * every simulation reproducible for a given configuration and seed.
 * That ordering contract is identical to the original binary-heap
 * implementation — the golden trace digests (tests/test_digest_golden.cc)
 * pin it down bit-exactly.
 *
 * Structure
 * ---------
 * Tier 1 (near future): one single-tick bucket per tick in the window
 * [now, now + windowTicks). Ticks are picoseconds and the common
 * scheduling distances in this simulator (GPU cycle 500, IOMMU hop
 * 25000, DRAM CAS ~13750, bank-conflict reissue ~41k) all fit inside
 * the 2^16-tick window, so almost every event lands in a bucket:
 * scheduling is an append to a per-tick FIFO list and dispatch is a
 * bitmap scan to the next occupied bucket. Because the window spans
 * exactly windowTicks ticks, `when % windowTicks` is collision-free
 * and every bucket holds events of a single tick.
 *
 * Tier 2 (far future): events at `when - now >= windowTicks` go to a
 * small overflow min-heap. runOne() migrates them into buckets once
 * they come within the window; when only far-future events remain,
 * time jumps directly to the earliest one.
 *
 * Event nodes are intrusive (`sim::Event`): components embed events as
 * members and scheduling links them in place — zero allocation on the
 * hottest paths. Callable-based scheduling still works: callbacks are
 * placed into pooled nodes with inline storage for the capture, drawn
 * from a slab pool (sim/object_pool.hh). A capture that does not fit
 * inline is a compile error, so no scheduled callable ever allocates.
 *
 * Ordering subtlety: a migrated overflow event can carry a *lower*
 * insertion sequence than events already sitting in its bucket (they
 * were scheduled later, but near). Migration therefore inserts in
 * (priority, seq) order; fresh inserts — whose seq is by construction
 * the largest — take the tail-append fast path unless a priority
 * demands otherwise.
 */

#ifndef GPUWALK_SIM_EVENT_QUEUE_HH
#define GPUWALK_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/object_pool.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {

class EventQueue;

/**
 * Priority levels for equal-tick ordering. Lower values run first.
 * Most events use Default; responses that must be observed before new
 * work is issued in the same tick can use Early.
 */
enum class EventPriority : int
{
    Early = -1,
    Default = 0,
    Late = 1,
};

/**
 * Intrusive event node. Components embed these as members and
 * schedule them directly; the queue links nodes in place, so the
 * steady state allocates nothing.
 *
 * An Event must stay at a stable address while scheduled (store
 * container-held events in a std::deque, not a std::vector). A still-
 * scheduled event deschedules itself on destruction, so tearing down
 * a component with an event in flight is safe as long as the queue
 * outlives it.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event();

    /** Runs when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick this event is (or was last) scheduled for. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Event *next_ = nullptr;
    EventQueue *queue_ = nullptr;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    std::int8_t prio_ = 0;
    bool scheduled_ = false;
    bool inOverflow_ = false;
    bool pooled_ = false;
};

namespace detail {

/**
 * Pool-recycled node carrying a type-erased callable inline. The hot
 * dispatch path uses a fused invoke-and-destroy thunk (one indirect
 * call); the separate destroy thunk exists only for queue teardown
 * with events still pending.
 */
class PooledEvent final : public Event
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
     *  node itself is released to the pool by the queue afterwards. */
    void runAndDestroyCallable() { invokeDestroy_(storage()); }

    /** Teardown path: destroy a never-run callable. */
    void destroyCallable() { destroyOnly_(storage()); }

    void process() override { runAndDestroyCallable(); }

  private:
    void *storage() { return store_; }

    void (*invokeDestroy_)(void *) = nullptr;
    void (*destroyOnly_)(void *) = nullptr;
    alignas(std::max_align_t) unsigned char store_[inlineBytes];
};

} // namespace detail

/**
 * The central event queue driving a simulation.
 *
 * Components schedule intrusive events or callbacks at absolute
 * ticks; the queue executes them in deterministic (tick, priority,
 * insertion) order. There is exactly one queue per System.
 */
class EventQueue
{
  public:
    /** Span of the near-future bucket window, in ticks. */
    static constexpr Tick windowTicks = Tick(1) << 16;

    EventQueue()
    {
        // Deliberately uninitialised: the occupancy bitmap is the
        // validity gate — a bucket is read only when its bit is set,
        // and the bit is set only after the bucket is written. This
        // keeps construction O(bitmap), not O(1 MiB of buckets).
        buckets_.reset(static_cast<Bucket *>(
            std::malloc(numBuckets * sizeof(Bucket))));
        GPUWALK_ASSERT(buckets_, "event queue bucket allocation failed");
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Unhook still-pending events so their later destruction does
        // not chase a dead queue, and destroy never-run pooled
        // callables (their captures may own resources).
        if (nearCount_ > 0) {
            for (std::size_t w = 0; w < numWords; ++w) {
                std::uint64_t bits = occupied_[w];
                while (bits) {
                    const auto b =
                        static_cast<unsigned>(std::countr_zero(bits));
                    bits &= bits - 1;
                    Event *ev = buckets_[w * 64 + b].head;
                    while (ev) {
                        Event *next = ev->next_;
                        unhookAtTeardown(ev);
                        ev = next;
                    }
                }
            }
        }
        for (Event *ev : overflow_)
            unhookAtTeardown(ev);
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
     * Schedules the intrusive event @p ev at absolute time @p when.
     *
     * @pre when >= now()
     * @pre !ev.scheduled()
     */
    void
    schedule(Tick when, Event &ev,
             EventPriority prio = EventPriority::Default)
    {
        GPUWALK_ASSERT(when >= now_, "scheduling event in the past (when=",
                       when, " now=", now_, ")");
        GPUWALK_ASSERT(!ev.scheduled_, "event already scheduled (when=",
                       ev.when_, ")");
        ev.when_ = when;
        ev.prio_ = static_cast<std::int8_t>(prio);
        ev.seq_ = nextSeq_++;
        ev.scheduled_ = true;
        ev.queue_ = this;
        enqueue(&ev);
    }

    /** Schedules the intrusive event @p ev @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Event &ev,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, ev, prio);
    }

    /**
     * Schedules callable @p fn to run at absolute time @p when, in a
     * pooled node with inline capture storage. A capture larger than
     * detail::PooledEvent::inlineBytes does not compile: capture one
     * pointer to the state instead.
     *
     * @pre when >= now()
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_v<std::decay_t<F> &>
                  && !std::is_base_of_v<Event, std::remove_reference_t<F>>>>
    void
    schedule(Tick when, F &&fn,
             EventPriority prio = EventPriority::Default)
    {
        static_assert(detail::PooledEvent::fitsInline<std::decay_t<F>>,
                      "event capture exceeds the pooled node's inline "
                      "storage");
        GPUWALK_ASSERT(when >= now_, "scheduling event in the past (when=",
                       when, " now=", now_, ")");
        detail::PooledEvent *ev = pool_.acquire();
        ev->emplace(std::forward<F>(fn));
        ev->when_ = when;
        ev->prio_ = static_cast<std::int8_t>(prio);
        ev->seq_ = nextSeq_++;
        ev->scheduled_ = true;
        ev->pooled_ = true;
        ev->queue_ = this;
        enqueue(ev);
    }

    /** Schedules callable @p fn to run @p delay ticks from now. */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_v<std::decay_t<F> &>
                  && !std::is_base_of_v<Event, std::remove_reference_t<F>>>>
    void
    scheduleIn(Tick delay, F &&fn,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::forward<F>(fn), prio);
    }

    /**
     * Removes a still-pending event from the queue. Called
     * automatically when a scheduled Event is destroyed.
     */
    void
    deschedule(Event &ev)
    {
        GPUWALK_ASSERT(ev.scheduled_ && ev.queue_ == this,
                       "descheduling an event this queue does not hold");
        if (ev.inOverflow_) {
            auto it = std::find(overflow_.begin(), overflow_.end(), &ev);
            GPUWALK_ASSERT(it != overflow_.end(),
                           "overflow event missing from heap");
            overflow_.erase(it);
            std::make_heap(overflow_.begin(), overflow_.end(),
                           OverflowLater{});
            ev.inOverflow_ = false;
        } else {
            const std::size_t idx = bucketIndex(ev.when_);
            Bucket &b = buckets_[idx];
            if (b.head == &ev) {
                b.head = ev.next_;
                if (!b.head)
                    clearBit(idx);
            } else {
                Event *p = b.head;
                while (p && p->next_ != &ev)
                    p = p->next_;
                GPUWALK_ASSERT(p, "event missing from its tick bucket");
                p->next_ = ev.next_;
                if (b.tail == &ev)
                    b.tail = p;
            }
            --nearCount_;
        }
        ev.next_ = nullptr;
        ev.scheduled_ = false;
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
            scanFrom_ = now_;
            migrateOverflow();
        }
        const Tick t = scanNextTick();
        const std::size_t idx = bucketIndex(t);
        Bucket &b = buckets_[idx];
        Event *ev = b.head;
        GPUWALK_ASSERT(ev && ev->when_ == t,
                       "bucket bitmap out of sync at tick ", t);
        b.head = ev->next_;
        if (!b.head)
            clearBit(idx); // bit clear ⇒ bucket contents invalid
        --nearCount_;
        ev->next_ = nullptr;
        ev->scheduled_ = false;
        now_ = t;
        ++executed_;
        if (ev->pooled_) {
            auto *pe = static_cast<detail::PooledEvent *>(ev);
            pe->runAndDestroyCallable();
            pool_.release(pe);
        } else {
            ev->process();
        }
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
    static constexpr std::size_t numBuckets =
        static_cast<std::size_t>(windowTicks);
    static constexpr std::size_t numWords = numBuckets / 64;

    struct Bucket
    {
        Event *head;
        Event *tail;
    };
    static_assert(std::is_trivially_default_constructible_v<Bucket>,
                  "buckets are calloc-initialised");

    struct BucketFree
    {
        void operator()(Bucket *p) const { std::free(p); }
    };

    struct OverflowLater
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when_ != b->when_)
                return a->when_ > b->when_;
            if (a->prio_ != b->prio_)
                return a->prio_ > b->prio_;
            return a->seq_ > b->seq_;
        }
    };

    static std::size_t
    bucketIndex(Tick when)
    {
        return static_cast<std::size_t>(when % windowTicks);
    }

    /** Same-tick ordering within a bucket: (priority, seq). */
    static bool
    ordersBefore(const Event *a, const Event *b)
    {
        if (a->prio_ != b->prio_)
            return a->prio_ < b->prio_;
        return a->seq_ < b->seq_;
    }

    void
    setBit(std::size_t idx)
    {
        occupied_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    bool
    testBit(std::size_t idx) const
    {
        return occupied_[idx >> 6] >> (idx & 63) & 1;
    }

    void
    clearBit(std::size_t idx)
    {
        occupied_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    void
    enqueue(Event *ev)
    {
        if (ev->when_ - now_ < windowTicks) {
            bucketInsert(ev);
        } else {
            ev->inOverflow_ = true;
            overflow_.push_back(ev);
            std::push_heap(overflow_.begin(), overflow_.end(),
                           OverflowLater{});
        }
    }

    void
    bucketInsert(Event *ev)
    {
        const std::size_t idx = bucketIndex(ev->when_);
        Bucket &b = buckets_[idx];
        ev->next_ = nullptr;
        if (!testBit(idx)) {
            // Bucket contents are garbage until the bit is set; write
            // before reading anything from it.
            b.head = b.tail = ev;
            setBit(idx);
            ++nearCount_;
            if (ev->when_ < scanFrom_)
                scanFrom_ = ev->when_;
            return;
        }
        GPUWALK_ASSERT(b.head->when_ == ev->when_,
                       "mixed-tick bucket: window invariant broken");
        if (ordersBefore(b.tail, ev)) {
            // Fast path: fresh inserts carry the largest seq, so they
            // belong at the tail unless outranked by priority.
            b.tail->next_ = ev;
            b.tail = ev;
        } else if (ordersBefore(ev, b.head)) {
            ev->next_ = b.head;
            b.head = ev;
        } else {
            Event *p = b.head;
            while (p->next_ && ordersBefore(p->next_, ev))
                p = p->next_;
            ev->next_ = p->next_;
            p->next_ = ev;
            if (!ev->next_)
                b.tail = ev;
        }
        ++nearCount_;
        if (ev->when_ < scanFrom_)
            scanFrom_ = ev->when_;
    }

    /** Moves overflow events whose tick entered the window into their
     *  buckets, preserving (priority, seq) order among same-tick
     *  residents. */
    void
    migrateOverflow()
    {
        while (!overflow_.empty()) {
            Event *top = overflow_.front();
            if (top->when_ - now_ >= windowTicks)
                break;
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          OverflowLater{});
            overflow_.pop_back();
            top->inOverflow_ = false;
            bucketInsert(top);
        }
    }

    /**
     * Finds the tick of the earliest occupied bucket via a circular
     * bitmap scan. The start position is cached in scanFrom_ — inserts
     * below it pull it back, executions advance it — so repeated scans
     * are near-constant time.
     *
     * @pre nearCount_ > 0
     */
    Tick
    scanNextTick()
    {
        if (scanFrom_ < now_)
            scanFrom_ = now_;
        const std::size_t base = bucketIndex(scanFrom_);
        const std::size_t word = base >> 6;
        const unsigned bit = base & 63;
        const std::uint64_t first = occupied_[word] >> bit;
        if (first) {
            scanFrom_ += static_cast<Tick>(std::countr_zero(first));
            return scanFrom_;
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
                return scanFrom_;
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

    void
    unhookAtTeardown(Event *ev)
    {
        ev->next_ = nullptr;
        ev->scheduled_ = false;
        ev->inOverflow_ = false;
        ev->queue_ = nullptr;
        if (ev->pooled_)
            static_cast<detail::PooledEvent *>(ev)->destroyCallable();
    }

    std::unique_ptr<Bucket[], BucketFree> buckets_;
    std::array<std::uint64_t, numWords> occupied_{};
    std::vector<Event *> overflow_;
    ObjectPool<detail::PooledEvent> pool_{512};
    std::size_t nearCount_ = 0;
    Tick now_ = 0;
    Tick scanFrom_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

inline Event::~Event()
{
    if (scheduled_ && queue_)
        queue_->deschedule(*this);
}

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_EVENT_QUEUE_HH
