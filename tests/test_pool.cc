/**
 * @file
 * Unit tests for the per-thread frame and Context pool (exec/pool.hh).
 */

#include <gtest/gtest.h>

#include <vector>

#include "exec/pool.hh"

#if defined(__SANITIZE_ADDRESS__)
#define FUGU_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FUGU_TEST_ASAN 1
#endif
#endif

#ifdef FUGU_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace
{

using namespace fugu::exec;

TEST(PoolTest, ReusesAFreedBlockForAnySizeInItsClass)
{
    void *a = poolAllocate(40);
    poolFree(a, 40);
    // 40 and 64 bytes share a 64-byte class; the freed block is the
    // list's head.
    void *b = poolAllocate(64);
    EXPECT_EQ(b, a);
    poolFree(b, 64);
}

TEST(PoolTest, ListsAreLastInFirstOut)
{
    std::vector<void *> blocks;
    for (int i = 0; i < 8; ++i)
        blocks.push_back(poolAllocate(200));
    for (void *p : blocks)
        poolFree(p, 200);
    for (int i = 7; i >= 0; --i)
        EXPECT_EQ(poolAllocate(200), blocks[i]);
    for (void *p : blocks)
        poolFree(p, 200);
}

TEST(PoolTest, FreeBlocksArePoisonedUnderAsan)
{
#ifdef FUGU_TEST_ASAN
    auto *p = static_cast<char *>(poolAllocate(128));
    p[0] = 1;
    EXPECT_FALSE(__asan_address_is_poisoned(p + 100));
    poolFree(p, 128);
    EXPECT_TRUE(__asan_address_is_poisoned(p));
    EXPECT_TRUE(__asan_address_is_poisoned(p + 100));
    EXPECT_EQ(static_cast<char *>(poolAllocate(128)), p);
    EXPECT_FALSE(__asan_address_is_poisoned(p + 100));
    poolFree(p, 128);
#else
    GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

} // namespace
