/**
 * @file
 * Per-thread size-class free lists for coroutine frames and Contexts.
 *
 * Every interrupt, trap and upcall spawns a Context and runs one or
 * more coroutines, so a fast-case delivery used to cost several heap
 * round trips. Task and CoTask frames (through their promises'
 * operator new) and Cpu::spawn's Contexts (through allocate_shared
 * with PoolAllocator) instead take blocks from a free list per size
 * class, kept per host thread, so a warmed-up delivery allocates
 * nothing.
 *
 * Each block is its own operator new allocation, so a block may be
 * freed on any thread: it joins the freeing thread's list. A thread's
 * lists are returned to operator delete when the thread exits; blocks
 * freed after that go straight to operator delete. Under
 * AddressSanitizer a block is poisoned while it sits on a list, so a
 * use after free still reports.
 */

#ifndef FUGU_EXEC_POOL_HH
#define FUGU_EXEC_POOL_HH

#include <cstddef>
#include <new>

namespace fugu::exec
{

/** A block of at least @p bytes, aligned as operator new aligns. */
void *poolAllocate(std::size_t bytes);

/** Return a poolAllocate block of the same @p bytes. */
void poolFree(void *p, std::size_t bytes) noexcept;

/** Frame allocation for coroutine promise types: inherit it. */
struct PooledFrame
{
    static void *operator new(std::size_t bytes)
    {
        return poolAllocate(bytes);
    }

    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        poolFree(p, bytes);
    }
};

/** Stateless allocator over the pool, for std::allocate_shared. */
template <typename T>
struct PoolAllocator
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pool blocks are only operator new aligned");

    using value_type = T;

    PoolAllocator() = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(poolAllocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        poolFree(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PoolAllocator<U> &) const noexcept
    {
        return true;
    }
};

} // namespace fugu::exec

#endif // FUGU_EXEC_POOL_HH
