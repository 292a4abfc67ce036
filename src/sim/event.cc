#include "sim/event.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace fugu
{

EventQueue::EventQueue() : ring_(kRingSize), ringHead_(kRingSize, 0) {}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    slots_[idx].nextFree = freeSlotHead_;
    freeSlotHead_ = idx;
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
    std::uint32_t idx = freeSlotHead_;
    if (idx != kNoEventSlot) {
        freeSlotHead_ = slots_[idx].nextFree;
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    SlotRec &s = slots_[idx];
    s.node->name = name;
    ++live_;
    // ringBase_ <= now_ <= when always holds, so a window hit only
    // needs the upper bound. Bucket FIFO order is schedule order.
    s.inRing = when < ringBase_ + kRingSize;
    if (s.inRing) {
        const std::uint32_t b = when & (kRingSize - 1);
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ring_[b].push_back(BucketEntry{idx, s.gen});
        ++ringCount_;
    } else {
        heapPush(HeapEntry{when, nextSeq_++, idx, s.gen});
    }
    return idx;
}

void
EventQueue::cancelFn(const EventHandle &handle)
{
    if (handle.slot >= slots_.size() ||
        slots_[handle.slot].gen != handle.gen)
        return; // fired, cancelled, or slot since reused
    SlotRec &s = slots_[handle.slot];
    ++s.gen; // the queued entry goes stale
    fugu_assert(live_ > 0);
    --live_;
    if (s.inRing) {
        ++ringStale_;
        ringSweepIfNeeded();
    } else {
        ++stale_;
        compactIfNeeded();
    }
    // Drop the captures before freeing the slot: a capture's
    // destructor that schedules must not be handed this node.
    s.node->fn.reset();
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

void
EventQueue::ringSweepIfNeeded()
{
    // Ring analogue of compactIfNeeded: without it, cancel churn on
    // near-future events would grow bucket vectors without bound.
    if (ringStale_ < 64 || ringStale_ * 2 < ringCount_)
        return;
    for (unsigned w = 0; w < kOccWords; ++w) {
        std::uint64_t word = occ_[w];
        while (word != 0) {
            const unsigned b =
                w * 64 + static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            std::vector<BucketEntry> &bucket = ring_[b];
            std::size_t wr = 0;
            for (std::size_t r = ringHead_[b]; r < bucket.size(); ++r) {
                if (slots_[bucket[r].slot].gen == bucket[r].gen)
                    bucket[wr++] = bucket[r];
            }
            ringCount_ -= bucket.size() - ringHead_[b] - wr;
            bucket.resize(wr); // keeps capacity: no realloc churn
            ringHead_[b] = 0;
            if (wr == 0)
                occ_[w] &= ~(std::uint64_t{1} << (b & 63));
        }
    }
    ringStale_ = 0;
}

bool
EventQueue::findNext(NextEvent &nx)
{
    // Pushes never target cycles < now_, and every bucket the clock
    // has passed was drained, so the scan can start at now_.
    const Cycle rel = now_ - ringBase_;
    if (rel < kRingSize) {
        std::size_t w = rel >> 6;
        std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (rel & 63));
        for (;;) {
            while (word == 0) {
                if (++w >= kOccWords)
                    break;
                word = occ_[w];
            }
            if (w >= kOccWords)
                break;
            const std::uint32_t b =
                static_cast<std::uint32_t>(w * 64) +
                static_cast<std::uint32_t>(std::countr_zero(word));
            // Drop the bucket's stale prefix before committing to it.
            std::vector<BucketEntry> &bucket = ring_[b];
            std::uint32_t h = ringHead_[b];
            const std::size_t sz = bucket.size();
            while (h < sz &&
                   slots_[bucket[h].slot].gen != bucket[h].gen) {
                ++h;
                fugu_assert(ringStale_ > 0);
                --ringStale_;
                --ringCount_;
            }
            if (h == sz) { // bucket fully consumed/cancelled
                bucket.clear();
                ringHead_[b] = 0;
                occ_[w] &= ~(std::uint64_t{1} << (b & 63));
                word &= ~(std::uint64_t{1} << (b & 63));
                continue;
            }
            ringHead_[b] = h;
            nx = NextEvent{ringBase_ + b, true, b};
            return true;
        }
    }
    skipStale();
    if (heap_.empty())
        return false;
    nx = NextEvent{heap_.front().when, false, 0};
    return true;
}

void
EventQueue::migrateWindow()
{
    const Cycle nb = now_ & ~Cycle{kRingSize - 1};
    // The fired far-band event had when >= ringBase_ + kRingSize, so
    // the window always moves forward (and the old ring is empty:
    // findNext fell through to the heap only after draining it).
    fugu_assert(nb >= ringBase_ + kRingSize);
    ringBase_ = nb;
    // Heap entries pop in (when, seq) order, and no bucket in the new
    // window can already hold entries (see push()), so migration
    // preserves global firing order.
    while (!heap_.empty() && heap_.front().when < nb + kRingSize) {
        const HeapEntry e = heap_.front();
        heapPopFront();
        if (slots_[e.slot].gen != e.gen) {
            fugu_assert(stale_ > 0);
            --stale_;
            continue;
        }
        const std::uint32_t b = e.when & (kRingSize - 1);
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ring_[b].push_back(BucketEntry{e.slot, e.gen});
        slots_[e.slot].inRing = true;
        ++ringCount_;
    }
}

void
EventQueue::fireSlot(std::uint32_t idx)
{
    // Retire the slot before the callable runs, so cancelling its own
    // handle is a no-op; free it only after the callable returns,
    // because the callable runs out of the node's buffer.
    Node &node = *slots_[idx].node;
    ++slots_[idx].gen;
    --live_;
    node.fn.fireAndReset();
    freeSlot(idx);
}

void
EventQueue::fireNext(const NextEvent &nx)
{
    std::uint32_t slot;
    if (nx.fromRing) {
        std::vector<BucketEntry> &bucket = ring_[nx.bucket];
        slot = bucket[ringHead_[nx.bucket]].slot; // liveness checked
        ++ringHead_[nx.bucket];
        --ringCount_;
        now_ = nx.when;
    } else {
        const HeapEntry e = heap_.front();
        heapPopFront();
        slot = e.slot;
        now_ = e.when;
        migrateWindow();
    }
    fireSlot(slot);
}

bool
EventQueue::runOne()
{
    NextEvent nx;
    if (!findNext(nx))
        return false;
    fireNext(nx);
    return true;
}

std::uint64_t
EventQueue::run(Cycle until, std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events) {
        NextEvent nx;
        if (!findNext(nx) || nx.when > until) {
            // Drained up to the horizon: the clock advances to it.
            if (until != kMaxCycle && now_ < until)
                now_ = until;
            return n;
        }
        fireNext(nx);
        ++n;
    }
    // Cut short by max_events: the clock stays at the last event.
    return n;
}

} // namespace fugu
