#include "sim/event.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace fugu
{

void
EventQueue::freeSlot(std::uint32_t idx)
{
    node(idx).next = freeSlotHead_;
    freeSlotHead_ = idx;
}

void
EventQueue::addChunk()
{
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() * kChunkNodes);
    fugu_assert(base < kNoEventSlot - kChunkNodes, "event slots exhausted");
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    // Lowest index first off the free list.
    for (std::uint32_t i = kChunkNodes; i-- > 0;)
        freeSlot(base + i);
}

void
EventQueue::bucketAppend(std::uint32_t b, std::uint32_t idx)
{
    Bucket &bk = ring_[b];
    Node &n = node(idx);
    n.bucket = b;
    n.next = kNoEventSlot;
    n.prev = bk.tail;
    if (bk.tail != kNoEventSlot)
        node(bk.tail).next = idx;
    else
        bk.head = idx;
    bk.tail = idx;
    occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void
EventQueue::bucketUnlink(std::uint32_t b, std::uint32_t idx)
{
    Bucket &bk = ring_[b];
    const Node &n = node(idx);
    if (n.prev != kNoEventSlot)
        node(n.prev).next = n.next;
    else
        bk.head = n.next;
    if (n.next != kNoEventSlot)
        node(n.next).prev = n.prev;
    else
        bk.tail = n.prev;
    if (bk.head == kNoEventSlot)
        occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

namespace
{
constexpr std::size_t kHeapArity = 4;
} // namespace

void
EventQueue::heapSiftUp(std::size_t i)
{
    HeapEntry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kHeapArity;
        if (!before(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::heapSiftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    HeapEntry e = heap_[i];
    for (;;) {
        const std::size_t first = i * kHeapArity + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kHeapArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], e))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = e;
}

void
EventQueue::heapPush(HeapEntry e)
{
    heap_.push_back(e);
    heapSiftUp(heap_.size() - 1);
}

void
EventQueue::heapPopFront()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        heapSiftDown(0);
}

void
EventQueue::heapRebuild()
{
    if (heap_.size() < 2)
        return;
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;)
        heapSiftDown(i);
}

std::uint32_t
EventQueue::push(Cycle when, const char *name)
{
    fugu_assert(when >= now_, "event '", name,
                "' scheduled in the past (", when, " < ", now_, ")");
    if (freeSlotHead_ == kNoEventSlot)
        addChunk();
    const std::uint32_t idx = freeSlotHead_;
    Node &n = node(idx);
    freeSlotHead_ = n.next;
    n.name = name;
    ++live_;
    // ringBase_ <= now_ <= when always holds, so a window hit only
    // needs the upper bound. Bucket FIFO order is schedule order.
    if (when < ringBase_ + kRingSize) {
        bucketAppend(static_cast<std::uint32_t>(when & (kRingSize - 1)),
                     idx);
    } else {
        n.bucket = kInHeap;
        heapPush(HeapEntry{when, nextSeq_++, idx, n.gen});
    }
    return idx;
}

void
EventQueue::cancelFn(const EventHandle &handle)
{
    if (handle.slot >= chunks_.size() * kChunkNodes ||
        node(handle.slot).gen != handle.gen)
        return; // fired, cancelled, or slot since reused
    Node &n = node(handle.slot);
    ++n.gen;
    fugu_assert(live_ > 0);
    --live_;
    if (n.bucket != kInHeap) {
        bucketUnlink(n.bucket, handle.slot);
    } else {
        ++stale_; // the heap entry goes stale
        compactIfNeeded();
    }
    // Drop the captures before freeing the slot: a capture's
    // destructor that schedules must not be handed this node.
    n.fn.reset();
    freeSlot(handle.slot);
}

void
EventQueue::skipStale()
{
    while (!heap_.empty() && !entryLive(heap_.front())) {
        heapPopFront();
        fugu_assert(stale_ > 0);
        --stale_;
    }
}

void
EventQueue::compactIfNeeded()
{
    // Lazy cancellation leaves dead entries behind; sweep them once
    // they outnumber live ones so a long run's heap stays O(live).
    if (stale_ < 64 || stale_ * 2 < heap_.size())
        return;
    std::erase_if(heap_,
                  [this](const HeapEntry &e) { return !entryLive(e); });
    heapRebuild();
    stale_ = 0;
}

bool
EventQueue::tryAdvance(Cycle when)
{
    fugu_assert(when >= now_, "tryAdvance into the past (", when, " < ",
                now_, ")");
    // The window bound also covers a clock that run(until) left past
    // the window: then when >= now_ >= ringBase_ + kRingSize. Heap
    // entries all lie past the window, so only the ring can hold
    // events due in [now_, when].
    if (when > horizon_ || when - ringBase_ >= kRingSize)
        return false;
    const Cycle lo = now_ - ringBase_;
    const Cycle hi = when - ringBase_;
    std::size_t w = lo >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (lo & 63));
    for (; w < (hi >> 6); word = occ_[++w]) {
        if (word != 0)
            return false;
    }
    if ((word & (~std::uint64_t{0} >> (63 - (hi & 63)))) != 0)
        return false;
    now_ = when;
    return true;
}

bool
EventQueue::nextWhen(Cycle &when)
{
    // Pushes never target cycles < now_, and every bucket the clock
    // has passed is empty, so the scan can start at now_. A set bit
    // is a live event: buckets hold nothing else.
    const Cycle rel = now_ - ringBase_;
    if (rel < kRingSize) {
        std::size_t w = rel >> 6;
        std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (rel & 63));
        for (;;) {
            if (word != 0) {
                when = ringBase_ + w * 64 +
                       static_cast<unsigned>(std::countr_zero(word));
                return true;
            }
            if (++w >= kOccWords)
                break;
            word = occ_[w];
        }
    }
    skipStale();
    if (heap_.empty())
        return false;
    when = heap_.front().when;
    return true;
}

void
EventQueue::migrateWindow()
{
    const Cycle nb = now_ & ~Cycle{kRingSize - 1};
    // The fired far-band event had when >= ringBase_ + kRingSize, so
    // the window always moves forward (and the old ring is empty:
    // nextWhen fell through to the heap only after finding it so).
    fugu_assert(nb >= ringBase_ + kRingSize);
    ringBase_ = nb;
    // Heap entries pop in (when, seq) order, and no bucket in the new
    // window can already hold entries (see push()), so migration
    // preserves global firing order.
    while (!heap_.empty() && heap_.front().when < nb + kRingSize) {
        const HeapEntry e = heap_.front();
        heapPopFront();
        if (!entryLive(e)) {
            fugu_assert(stale_ > 0);
            --stale_;
            continue;
        }
        bucketAppend(static_cast<std::uint32_t>(e.when & (kRingSize - 1)),
                     e.slot);
    }
}

void
EventQueue::fireNext(Cycle when)
{
    std::uint32_t idx;
    // Ring entries lie inside the window and live heap entries past
    // it, so the cycle alone says which band holds the event.
    if (when - ringBase_ < kRingSize) {
        const auto b = static_cast<std::uint32_t>(when & (kRingSize - 1));
        idx = ring_[b].head;
        bucketUnlink(b, idx);
        now_ = when;
    } else {
        idx = heap_.front().slot; // live: nextWhen skipped stale ones
        heapPopFront();
        now_ = when;
        migrateWindow();
    }
    // Retire the slot before the callable runs, so cancelling its own
    // handle is a no-op; free it only after the callable returns,
    // because the callable runs out of the node's buffer.
    Node &n = node(idx);
    ++n.gen;
    --live_;
    n.fn.fireAndReset();
    freeSlot(idx);
}

bool
EventQueue::runOne(Cycle until)
{
    Cycle when;
    if (!nextWhen(when))
        return false;
    horizon_ = until;
    fireNext(when);
    horizon_ = 0;
    return true;
}

std::uint64_t
EventQueue::run(Cycle until, std::uint64_t max_events)
{
    std::uint64_t n = 0;
    horizon_ = until;
    while (n < max_events) {
        Cycle when;
        if (!nextWhen(when) || when > until) {
            horizon_ = 0;
            // Drained up to the horizon: the clock advances to it.
            if (until != kMaxCycle && now_ < until)
                now_ = until;
            return n;
        }
        fireNext(when);
        ++n;
    }
    horizon_ = 0;
    // Cut short by max_events: the clock stays at the last event.
    return n;
}

} // namespace fugu
