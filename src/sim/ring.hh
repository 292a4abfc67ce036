/**
 * @file
 * RingDeque: a power-of-2 ring buffer with deque surface.
 *
 * The simulator's hot FIFOs (network arrival queues, the OS NIC's
 * receive queue, virtual-buffer records) all follow the same pattern:
 * bounded-ish occupancy with unbounded throughput. std::deque pays an
 * allocator round-trip per block even in steady state (pop_front
 * frees the block push_back will re-allocate); this ring grows
 * geometrically to the high-water mark once and then never touches
 * the allocator again, keeps elements contiguous (one or two cache
 * lines per access), and supports the random access swapOut-style
 * scans need.
 */

#ifndef FUGU_SIM_RING_HH
#define FUGU_SIM_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace fugu::sim
{

template <typename T>
class RingDeque
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    T &back() { return (*this)[count_ - 1]; }
    const T &back() const { return (*this)[count_ - 1]; }

    /** Index from the front; @p i must be < size(). */
    T &operator[](std::size_t i)
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    push_back(T v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_++) & (buf_.size() - 1)] = std::move(v);
    }

    void
    pop_front()
    {
        buf_[head_] = T{}; // drop held resources promptly
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    void
    clear()
    {
        while (count_ > 0)
            pop_front();
    }

    /**
     * Remove the element at index @p i (from the front), preserving
     * the relative order of the rest: elements before it shift back
     * one slot and the vacated front is popped. O(i) moves.
     */
    void
    remove_at(std::size_t i)
    {
        for (std::size_t k = i; k > 0; --k)
            (*this)[k] = std::move((*this)[k - 1]);
        pop_front();
    }

    /** Forward iteration, front to back (for range-for scans). */
    template <typename RD, typename V>
    class Iter
    {
      public:
        Iter(RD *rd, std::size_t i) : rd_(rd), i_(i) {}
        V &operator*() const { return (*rd_)[i_]; }
        V *operator->() const { return &(*rd_)[i_]; }
        Iter &operator++() { ++i_; return *this; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }
        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        RD *rd_;
        std::size_t i_;
    };

    using iterator = Iter<RingDeque, T>;
    using const_iterator = Iter<const RingDeque, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

  private:
    void
    grow()
    {
        std::vector<T> nb(buf_.empty() ? 8 : buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            nb[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(nb);
        head_ = 0;
    }

    std::vector<T> buf_; // power-of-2 size once non-empty
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace fugu::sim

#endif // FUGU_SIM_RING_HH
