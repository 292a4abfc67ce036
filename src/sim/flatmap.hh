/**
 * @file
 * FlatMap: an open-addressed integer-keyed hash table.
 *
 * The simulator's per-message lookup tables (the network's (src,dst)
 * channels, the invariant checker's in-flight messages and streams)
 * are looked up on every message. A node-based std::map or
 * std::unordered_map pays a pointer chase per lookup and a heap block
 * per entry; linear probing over a flat power-of-2 table makes a
 * lookup one or two cache lines and an insert or erase no allocation
 * once the table has grown to its high-water mark. Erase shifts the
 * rest of the probe chain back (no tombstones), so a table whose
 * entries come and go stays as short as its live entries.
 *
 * The table starts empty, allocates 16 slots on the first insert and
 * doubles at 70% load; it never shrinks. It is never iterated, so
 * table order cannot leak into simulation order. Pointers returned by
 * find and getOrCreate are invalidated by the next getOrCreate
 * (growth) or take (shifting).
 */

#ifndef FUGU_SIM_FLATMAP_HH
#define FUGU_SIM_FLATMAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace fugu::sim
{

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K> && sizeof(K) <= 8,
                  "FlatMap keys are unsigned integers of at most 64 bits");

  public:
    V *
    find(K k)
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(k);; ++i) {
            Slot &s = slots_[i & mask];
            if (!s.used)
                return nullptr;
            if (s.key == k)
                return &s.val;
        }
    }

    const V *
    find(K k) const
    {
        return const_cast<FlatMap *>(this)->find(k);
    }

    /** The value of @p k, default-constructed if absent. */
    V &
    getOrCreate(K k)
    {
        // Grow at ~70% load so probe chains stay short.
        if (slots_.empty() || (size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(k);; ++i) {
            Slot &s = slots_[i & mask];
            if (!s.used) {
                s.used = true;
                s.key = k;
                ++size_;
                return s.val;
            }
            if (s.key == k)
                return s.val;
        }
    }

    /** Remove @p k and return its value (nullopt if absent). */
    std::optional<V>
    take(K k)
    {
        if (size_ == 0)
            return std::nullopt;
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = home(k);
        for (;; ++hole) {
            Slot &s = slots_[hole & mask];
            if (!s.used)
                return std::nullopt;
            if (s.key == k)
                break;
        }
        hole &= mask;
        std::optional<V> out(std::move(slots_[hole].val));
        // Backward shift: walk the chain after the hole and move back
        // every entry whose home does not lie in (hole, j], so each
        // stays reachable from its home without a tombstone.
        for (std::size_t j = (hole + 1) & mask; slots_[j].used;
             j = (j + 1) & mask) {
            if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return out;
    }

    std::size_t size() const { return size_; }

    /** Slots the longest lookup of a stored key visits (0 if empty). */
    std::size_t
    maxProbe() const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t longest = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].used)
                longest = std::max(longest,
                                   ((i - home(slots_[i].key)) & mask) + 1);
        return longest;
    }

  private:
    struct Slot
    {
        K key = 0;
        bool used = false;
        V val{};
    };

    /**
     * Fibonacci hashing: the key times 2^64/phi, indexed by the
     * product's top bits. Every table size draws its home slot from
     * all of the key's bits, so home slots cover the whole table at
     * any size, and adjacent keys (node pairs, sequence numbers)
     * spread out.
     */
    std::size_t
    home(K k) const
    {
        return static_cast<std::size_t>(
            (std::uint64_t{k} * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
        const std::size_t mask = slots_.size() - 1;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i & mask].used)
                ++i;
            slots_[i & mask] = std::move(s);
        }
    }

    std::vector<Slot> slots_; // power-of-2 size
    std::size_t size_ = 0;
    unsigned shift_ = 0; // 64 - log2(slots_.size()), set by grow()
};

} // namespace fugu::sim

#endif // FUGU_SIM_FLATMAP_HH
