#include "exec/pool.hh"

#if defined(__SANITIZE_ADDRESS__)
#define FUGU_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FUGU_POOL_ASAN 1
#endif
#endif

#ifdef FUGU_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace fugu::exec
{

namespace
{

/** Size classes step by kGrain bytes; larger blocks bypass the pool. */
constexpr std::size_t kGrain = 32;
constexpr std::size_t kClasses = 128; // blocks up to 4 KiB

struct FreeBlock
{
    FreeBlock *next;
};

void
poison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
{
#ifdef FUGU_POOL_ASAN
    __asan_poison_memory_region(p, n);
#endif
}

void
unpoison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
{
#ifdef FUGU_POOL_ASAN
    __asan_unpoison_memory_region(p, n);
#endif
}

/** Class of a @p bytes block; kClasses or more bypasses the pool. */
std::size_t
classOf(std::size_t bytes)
{
    return (bytes - 1) / kGrain; // 0 bytes wraps past every class
}

std::size_t
blockBytes(std::size_t c)
{
    return (c + 1) * kGrain;
}

/** One thread's free lists, emptied into operator delete at exit. */
struct Pool
{
    FreeBlock *head[kClasses] = {};

    ~Pool();
};

thread_local Pool tPool;
/** Set once tPool is destroyed: later frees bypass it. */
thread_local bool tPoolGone = false;

Pool::~Pool()
{
    for (std::size_t c = 0; c < kClasses; ++c) {
        while (FreeBlock *b = head[c]) {
            unpoison(b, blockBytes(c));
            head[c] = b->next;
            ::operator delete(b, blockBytes(c));
        }
    }
    tPoolGone = true;
}

} // namespace

void *
poolAllocate(std::size_t bytes)
{
    const std::size_t c = classOf(bytes);
    if (c >= kClasses)
        return ::operator new(bytes);
    // Every block of a class has the class's size, whichever thread
    // frees it into whichever list.
    if (tPoolGone)
        return ::operator new(blockBytes(c));
    if (FreeBlock *b = tPool.head[c]) {
        unpoison(b, blockBytes(c));
        tPool.head[c] = b->next;
        return b;
    }
    return ::operator new(blockBytes(c));
}

void
poolFree(void *p, std::size_t bytes) noexcept
{
    const std::size_t c = classOf(bytes);
    if (c >= kClasses || tPoolGone) {
        ::operator delete(p);
        return;
    }
    auto *b = static_cast<FreeBlock *>(p);
    b->next = tPool.head[c];
    tPool.head[c] = b;
    poison(b, blockBytes(c));
}

} // namespace fugu::exec
