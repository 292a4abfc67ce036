/**
 * @file
 * Physical frames and per-process virtual memory.
 *
 * Glaze (like the paper's, see footnote 4) does not page user memory
 * to disk: it supports demand-zero allocation and, for the virtual
 * buffering system, page-out of buffer pages over the second network
 * as the deadlock-free path to backing store. The FramePool models
 * the per-node pool of physical page frames shared by all consumers;
 * the AddressSpace models a process's demand-zero heap (touching an
 * unmapped-but-reserved page takes a page-fault trap, which is one of
 * the three triggers for buffered mode).
 */

#ifndef FUGU_GLAZE_VM_HH
#define FUGU_GLAZE_VM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace fugu::sim
{
class FaultInjector;
}

namespace fugu::glaze
{

/** Page size in words (4 KB with 32-bit words). */
inline constexpr unsigned kPageWords = 1024;

/** Per-node pool of physical page frames. */
class FramePool
{
  public:
    FramePool(unsigned total, StatGroup *parent, NodeId id);

    unsigned total() const { return total_; }
    unsigned free() const { return total_ - used_; }
    unsigned used() const { return used_; }

    /** @return true and takes a frame, or false if none are free. */
    bool tryAllocate();

    void release();

    /** Free-frame count below which overflow control engages. */
    void setLowWatermark(unsigned w) { watermark_ = w; }
    bool belowWatermark() const { return free() <= watermark_; }

    /**
     * Attach a fault injector: tryAllocate feigns exhaustion at the
     * configured rate, driving callers through the same retry /
     * overflow-control paths a genuinely full pool would.
     */
    void setFault(sim::FaultInjector *fault) { fault_ = fault; }

    struct Stats
    {
        Stats(StatGroup *parent, NodeId id);
        StatGroup group;
        Scalar allocations;
        Scalar peakUsed;
        Scalar allocationFailures;
    };

    Stats stats;

  private:
    unsigned total_;
    unsigned used_ = 0;
    unsigned watermark_ = 2;
    sim::FaultInjector *fault_ = nullptr;
};

/** Demand-zero page state in an address space. */
enum class PageState
{
    Unmapped,  ///< not reserved: access is a fatal protection error
    ZeroFill,  ///< reserved, no frame yet: access faults, then maps
    Mapped,    ///< backed by a physical frame
};

/**
 * A process's (per-node) address space: a sparse map of page numbers.
 * Application heaps reserve ranges demand-zero; the first touch of
 * each page takes a page-fault trap into the kernel.
 */
class AddressSpace
{
  public:
    explicit AddressSpace(FramePool &frames) : frames_(frames) {}

    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /** Reserve @p npages demand-zero pages starting at @p first. */
    void reserve(std::uint64_t first, std::uint64_t npages);

    PageState state(std::uint64_t page) const;

    /**
     * Does touching @p page require a page-fault trap?
     * (ZeroFill pages do; Unmapped pages are fatal.)
     */
    bool needsFault(std::uint64_t page) const;

    /**
     * Kernel side of the fault: back the page with a frame.
     * @return false if no frame was available (caller must wait for
     *         the pool to drain and retry).
     */
    bool mapPage(std::uint64_t page);

    /** Release the frame backing @p page (back to ZeroFill). */
    void unmapPage(std::uint64_t page);

    unsigned mappedPages() const { return mapped_; }

  private:
    FramePool &frames_;
    std::unordered_map<std::uint64_t, PageState> pages_;
    unsigned mapped_ = 0;
};

} // namespace fugu::glaze

#endif // FUGU_GLAZE_VM_HH
