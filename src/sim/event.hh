/**
 * @file
 * Discrete-event simulation kernel: EventQueue.
 *
 * Every event is a one-shot callable scheduled with scheduleFn. Events
 * fire in (cycle, insertion sequence) order, so events at the same
 * cycle fire in schedule order, which makes runs fully deterministic.
 * The queue is a two-band calendar queue:
 *
 *  - Near band: a ring of kRingSize per-cycle FIFO buckets covering
 *    [ringBase, ringBase + kRingSize) with an occupancy bitmap. A
 *    bucket is a doubly linked list threaded through the events' own
 *    nodes, so schedule, pop and cancel are all O(1) and a bucket
 *    holds live events only: its bitmap bit is set exactly when an
 *    event is due in that cycle. Nearly all simulator traffic
 *    (coroutine resumes, spend ends, network arrivals) schedules a
 *    few cycles out.
 *  - Far band: a 4-ary min-heap. When the clock crosses into a new
 *    window, pending heap entries inside it migrate to the ring in
 *    (cycle, seq) order, which keeps firing order identical to a
 *    single global priority queue. Cancelling a heap entry is lazy:
 *    the entry goes stale through its slot's generation and is
 *    skipped when reached, or swept out wholesale once stale entries
 *    dominate, so memory stays proportional to live events even
 *    under unbounded cancel-and-replace churn.
 *
 * Because the near band is exact, tryAdvance can tell in a few bitmap
 * words that nothing is due before a given cycle; exec::Cpu uses it
 * to end a spend without an event when its end would fire next.
 *
 * The scheduling fast path is allocation-free in steady state: each
 * slot owns a node, allocated in chunks that never move, holding the
 * callable inline, and cancellation handles are plain
 * {slot, generation} pairs instead of shared_ptr control blocks.
 */

#ifndef FUGU_SIM_EVENT_HH
#define FUGU_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace fugu
{

/** Sentinel slot index: an inert handle, or the free list's end. */
inline constexpr std::uint32_t kNoEventSlot = 0xffffffffu;

/**
 * Handle to a scheduleFn occurrence; pass to EventQueue::cancelFn.
 * A {slot, generation} pair: once the occurrence fires or is
 * cancelled the slot's generation advances, so stale handles are
 * harmless no-ops. Default-constructed handles are inert.
 */
struct EventHandle
{
    std::uint32_t slot = kNoEventSlot;
    std::uint32_t gen = 0;
};

/**
 * Type-erased move-only callable with inline storage: callables live
 * in the object itself, and one larger than kInlineBytes does not
 * compile. Sized so every scheduleFn lambda in the simulator fits —
 * the largest captures a whole net::Packet, which carries its payload
 * inline (~88 bytes) plus this and a node id.
 */
class SmallFn
{
  public:
    static constexpr std::size_t kInlineBytes = 128;

    SmallFn() = default;
    ~SmallFn() { reset(); }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    template <typename F>
    void
    assign(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "callable too large for SmallFn's inline buffer");
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        fire_ = [](void *p) {
            Fn *f = static_cast<Fn *>(p);
            (*f)();
            f->~Fn();
        };
    }

    /**
     * Invoke the callable and destroy it, leaving the object empty —
     * the one-shot fire path, a single indirect call. The callable
     * still occupies buf_ while running: the owner must not reuse
     * this SmallFn until the call returns (the queue frees the slot
     * only afterwards).
     */
    void
    fireAndReset()
    {
        auto fire = fire_;
        destroy_ = nullptr;
        fire_ = nullptr;
        fire(buf_);
    }

    void
    reset()
    {
        if (destroy_)
            destroy_(buf_);
        destroy_ = nullptr;
        fire_ = nullptr;
    }

  private:
    // The function pointers come first, so they share a cache line
    // with the owning node's header (EventQueue::Node).
    void (*destroy_)(void *) = nullptr;
    void (*fire_)(void *) = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/**
 * The global ordered queue of pending events plus the current cycle.
 * One EventQueue drives an entire simulated machine. EventQueues are
 * independent: separate queues may run on separate threads.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Schedule the one-shot callable @p fn to fire at cycle @p when
     * (>= now). The queue stores the @p name pointer, not a copy, so
     * the string must outlive the event.
     * @return handle that can be passed to cancelFn.
     */
    template <typename F>
    EventHandle
    scheduleFn(F &&fn, Cycle when, const char *name = "lambda")
    {
        const std::uint32_t idx = push(when, name);
        Node &n = node(idx);
        n.fn.assign(std::forward<F>(fn));
        return EventHandle{idx, n.gen};
    }

    /** Cancel a scheduleFn event via its handle. No-op if fired. */
    void cancelFn(const EventHandle &handle);

    /**
     * Move the clock to @p when (>= now) without firing anything, if
     * that is exactly what running on would do first: no event is due
     * in [now, when], @p when lies inside the near band's window, and
     * it does not pass the horizon of the run() or runOne() in
     * progress (outside one, nothing passes). An event due at @p when
     * itself refuses, because it was scheduled first and would fire
     * first.
     * @return whether the clock moved.
     */
    bool tryAdvance(Cycle when);

    /**
     * Execute the next pending event, advancing the clock. Work that
     * the event does through tryAdvance stays within @p until.
     * @return false if the queue is empty.
     */
    bool runOne(Cycle until = kMaxCycle);

    /**
     * Run until the queue empties, @p until is passed, or
     * @p max_events have been processed. The clock advances to
     * @p until only when the run was not cut short by @p max_events.
     * A tryAdvance inside an event is not an event of its own.
     * @return number of events processed.
     */
    std::uint64_t run(Cycle until = kMaxCycle,
                      std::uint64_t max_events = ~std::uint64_t(0));

    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t pending() const { return live_; }

    /** Ring + heap entries currently held, live + stale (for tests). */
    std::size_t heapSize() const { return live_ + stale_; }

  private:
    /** Near-band window: covers this many cycles from ringBase_. */
    static constexpr unsigned kRingBits = 10;
    static constexpr unsigned kRingSize = 1u << kRingBits;
    static constexpr unsigned kOccWords = kRingSize / 64;

    /** Node::bucket of an event parked in the far-band heap. */
    static constexpr std::uint32_t kInHeap = kNoEventSlot;

    /** Nodes per chunk; a chunk is allocated whole and never moves. */
    static constexpr unsigned kChunkBits = 6;
    static constexpr unsigned kChunkNodes = 1u << kChunkBits;

    /**
     * One slot: its generation, its links and name, then its
     * callable. A firing callable runs out of its node's buffer and
     * may schedule, which may add chunks, so nodes never move.
     */
    struct Node
    {
        std::uint32_t gen = 1; // advanced on fire and on cancel
        /** Ring bucket successor; the free list's link when free. */
        std::uint32_t next = kNoEventSlot;
        std::uint32_t prev = kNoEventSlot; // ring bucket predecessor
        std::uint32_t bucket = kInHeap;    // ring bucket, or kInHeap
        const char *name = nullptr;
        SmallFn fn;
    };

    /** A near-band bucket: FIFO list of the live events due then. */
    struct Bucket
    {
        std::uint32_t head = kNoEventSlot;
        std::uint32_t tail = kNoEventSlot;
    };

    struct HeapEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /**
     * Heap order: a fires before b. The heap is 4-ary: half the
     * levels of a binary heap, and all four children of a node are
     * contiguous, which speeds up the pop-heavy migration path.
     */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    Node &
    node(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkBits][idx & (kChunkNodes - 1)];
    }

    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    void heapPush(HeapEntry e);
    void heapPopFront();
    void heapRebuild();

    bool
    entryLive(const HeapEntry &e)
    {
        return node(e.slot).gen == e.gen;
    }

    /** Claim a slot for an event at @p when and queue it. */
    std::uint32_t push(Cycle when, const char *name);

    /** Put a retired slot back on the free list. */
    void freeSlot(std::uint32_t idx);

    /** Allocate a chunk of nodes onto the free list. */
    void addChunk();

    /// @name Near-band buckets
    /// @{
    void bucketAppend(std::uint32_t b, std::uint32_t idx);
    void bucketUnlink(std::uint32_t b, std::uint32_t idx);
    /// @}

    /**
     * Set @p when to the cycle of the next event, dropping stale
     * entries off the heap top on the way.
     * @return false if the queue is empty.
     */
    bool nextWhen(Cycle &when);

    /** Pop and fire the event nextWhen() located at @p when. */
    void fireNext(Cycle when);

    /**
     * Realign the ring window to now_ (after firing a far-band event)
     * and migrate heap entries that now fall inside it.
     */
    void migrateWindow();

    /** Pop stale (cancelled) entries off the heap top. */
    void skipStale();

    /** Sweep dead heap entries when they dominate live ones. */
    void compactIfNeeded();

    Cycle now_ = 0;
    Cycle horizon_ = 0; // until of the run()/runOne() in progress
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    std::size_t stale_ = 0; // dead entries still in heap_
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t freeSlotHead_ = kNoEventSlot;

    Cycle ringBase_ = 0; // window start, kRingSize-aligned, <= now_
    Bucket ring_[kRingSize];
    std::uint64_t occ_[kOccWords] = {}; // non-empty-bucket bitmap

    std::vector<HeapEntry> heap_;
};

} // namespace fugu

#endif // FUGU_SIM_EVENT_HH
