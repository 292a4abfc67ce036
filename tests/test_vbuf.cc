/**
 * @file
 * Unit tests for the virtual buffer: page accounting, FIFO content,
 * swap-out/page-in, and frame reclamation.
 */

#include <gtest/gtest.h>

#include "core/arch.hh"
#include "glaze/vbuf.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::glaze;

namespace
{

struct VbufTest : ::testing::Test
{
    VbufTest() : sg("t"), pool(6, &sg, 0), vb(pool, &sg, 0, 1)
    {
        detail::setThrowOnError(true);
    }

    ~VbufTest() override { detail::setThrowOnError(false); }

    net::Packet
    pkt(Word tag, unsigned payload_words = 1)
    {
        net::Packet p;
        p.src = 3;
        p.dst = 0;
        p.gid = 1;
        p.handler = 9;
        p.payload.assign(payload_words, tag);
        return p;
    }

    void
    insert(Word tag, unsigned payload_words = 1)
    {
        net::Packet p = pkt(tag, payload_words);
        if (vb.needsNewPageFor(p)) {
            ASSERT_TRUE(vb.allocatePage());
        }
        vb.insert(std::move(p));
    }

    StatGroup sg;
    FramePool pool;
    VirtualBuffer vb;
};

TEST_F(VbufTest, FifoContentMatchesInputWindowLayout)
{
    insert(100);
    insert(200);
    ASSERT_TRUE(vb.available());
    EXPECT_EQ(vb.size(), 3u);
    EXPECT_EQ(core::headerNode(vb.read(0)), 3);
    EXPECT_EQ(vb.read(1), 9u);
    EXPECT_EQ(vb.read(2), 100u);
    vb.pop();
    EXPECT_EQ(vb.read(2), 200u);
    vb.pop();
    EXPECT_FALSE(vb.available());
}

TEST_F(VbufTest, PagesAllocatedOnDemandAndFreedOnDrain)
{
    // Footprint = size+2 = 5 words for 1-payload messages; a page
    // holds kPageWords/5 of them.
    const unsigned per_page = kPageWords / 5;
    for (unsigned i = 0; i < per_page + 1; ++i)
        insert(i);
    EXPECT_EQ(vb.pagesAllocated(), 2u);
    EXPECT_EQ(pool.used(), 2u);
    EXPECT_DOUBLE_EQ(vb.stats.peakPages.value(), 2.0);
    // Drain the first page's worth: its frame returns.
    for (unsigned i = 0; i < per_page; ++i)
        vb.pop();
    EXPECT_EQ(vb.pagesAllocated(), 1u);
    EXPECT_EQ(pool.used(), 1u);
    vb.pop();
    EXPECT_TRUE(vb.empty());
    EXPECT_EQ(pool.used(), 0u);
}

TEST_F(VbufTest, InsertWithoutPagePanics)
{
    net::Packet p = pkt(1);
    EXPECT_THROW(vb.insert(std::move(p)), SimError);
}

TEST_F(VbufTest, SwapOutReleasesFramesNewestFirst)
{
    const unsigned per_page = kPageWords / 5;
    for (unsigned i = 0; i < 3 * per_page; ++i)
        insert(i);
    EXPECT_EQ(vb.pagesAllocated(), 3u);
    EXPECT_EQ(vb.swapOut(2), 2u);
    EXPECT_EQ(pool.used(), 1u);
    EXPECT_EQ(vb.pagesResident(), 1u);
    // The front (draining) page is never swapped: reads still work.
    EXPECT_FALSE(vb.frontSwapped());
    EXPECT_EQ(vb.read(2), 0u);
}

TEST_F(VbufTest, DrainIntoSwappedPageRequiresPageIn)
{
    const unsigned per_page = kPageWords / 5;
    for (unsigned i = 0; i < 2 * per_page; ++i)
        insert(i);
    EXPECT_EQ(vb.swapOut(1), 1u);
    for (unsigned i = 0; i < per_page; ++i)
        vb.pop();
    // Now the front message sits on the swapped page.
    EXPECT_TRUE(vb.frontSwapped());
    EXPECT_THROW(vb.read(2), SimError);
    ASSERT_TRUE(vb.pageInFront());
    EXPECT_EQ(vb.read(2), per_page);
    EXPECT_DOUBLE_EQ(vb.stats.pageIns.value(), 1.0);
}

TEST_F(VbufTest, StatsCountInsertsAndDrains)
{
    insert(1);
    insert(2);
    vb.pop();
    EXPECT_DOUBLE_EQ(vb.stats.inserts.value(), 2.0);
    EXPECT_DOUBLE_EQ(vb.stats.drained.value(), 1.0);
}

TEST_F(VbufTest, DestructorReturnsResidentFrames)
{
    {
        VirtualBuffer v2(pool, &sg, 0, 2);
        net::Packet p = pkt(1);
        ASSERT_TRUE(v2.allocatePage());
        v2.insert(std::move(p));
        EXPECT_EQ(pool.used(), 1u);
    }
    EXPECT_EQ(pool.used(), 0u);
}

TEST_F(VbufTest, TeardownWithSwappedPagesConservesPool)
{
    // Swapped pages already returned their frame to the pool; the
    // destructor must release only the still-resident ones, or the
    // pool would underflow / leak. Mixed case: 3 pages, 2 swapped.
    {
        VirtualBuffer v2(pool, &sg, 0, 2);
        const unsigned per_page = kPageWords / 5;
        for (unsigned i = 0; i < 3 * per_page; ++i) {
            net::Packet p = pkt(i);
            if (v2.needsNewPageFor(p)) {
                ASSERT_TRUE(v2.allocatePage());
            }
            v2.insert(std::move(p));
        }
        EXPECT_EQ(v2.swapOut(2), 2u);
        EXPECT_EQ(pool.used(), 1u);
    }
    EXPECT_EQ(pool.used(), 0u);
}

TEST_F(VbufTest, TeardownPartiallyDrainedConservesPool)
{
    // A process killed mid-drain: some messages consumed, the front
    // page half-empty, a later page paged back in after a swap.
    {
        VirtualBuffer v2(pool, &sg, 0, 2);
        const unsigned per_page = kPageWords / 5;
        for (unsigned i = 0; i < 2 * per_page; ++i) {
            net::Packet p = pkt(i);
            if (v2.needsNewPageFor(p)) {
                ASSERT_TRUE(v2.allocatePage());
            }
            v2.insert(std::move(p));
        }
        EXPECT_EQ(v2.swapOut(1), 1u);
        for (unsigned i = 0; i < per_page; ++i)
            v2.pop();
        ASSERT_TRUE(v2.pageInFront());
        v2.pop();
        EXPECT_EQ(pool.used(), 1u);
    }
    EXPECT_EQ(pool.used(), 0u);
}

TEST_F(VbufTest, LargeMessagesPackFewerPerPage)
{
    // 14-word payloads: footprint 18; page holds 56.
    const unsigned per_page = kPageWords / 18;
    for (unsigned i = 0; i < per_page + 1; ++i)
        insert(i, 14);
    EXPECT_EQ(vb.pagesAllocated(), 2u);
}

namespace
{
/**
 * FNV-1a over the window-visible words of a buffered record — the
 * same observable surface the invariant checker's content-
 * transparency hash covers (what user code can read back out).
 */
std::uint64_t
windowHash(const std::vector<Word> &words)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (Word w : words) {
        std::uint64_t v = w;
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}
} // namespace

TEST_F(VbufTest, MaxSizeRecordRoundTripsBitExact)
{
    // A full kMaxMessageWords message: header + handler + 14 distinct
    // payload words. The inline-payload representation must hand back
    // exactly the words that went in, in window order, and the
    // content-transparency hash over them must not move.
    net::Packet p = pkt(0, net::kMaxPayloadWords);
    for (unsigned i = 0; i < net::kMaxPayloadWords; ++i)
        p.payload[i] = 0xA000 + i * 7;
    ASSERT_EQ(p.size(), net::kMaxMessageWords);

    std::vector<Word> sent;
    sent.push_back(core::makeHeader(p.src, false));
    sent.push_back(p.handler);
    sent.insert(sent.end(), p.payload.begin(), p.payload.end());
    const std::uint64_t hash_in = windowHash(sent);

    ASSERT_TRUE(vb.allocatePage());
    vb.insert(std::move(p));
    ASSERT_TRUE(vb.available());
    ASSERT_EQ(vb.size(), net::kMaxMessageWords);

    std::vector<Word> got;
    for (unsigned i = 0; i < vb.size(); ++i)
        got.push_back(vb.read(i));
    EXPECT_EQ(got, sent);
    EXPECT_EQ(windowHash(got), hash_in);
    vb.pop();
    EXPECT_FALSE(vb.available());
}

TEST_F(VbufTest, ZeroPayloadRecordRoundTrips)
{
    net::Packet p = pkt(0, 0);
    ASSERT_EQ(p.size(), 2u);
    ASSERT_TRUE(vb.allocatePage());
    vb.insert(std::move(p));
    ASSERT_TRUE(vb.available());
    ASSERT_EQ(vb.size(), 2u);
    EXPECT_EQ(core::headerNode(vb.read(0)), 3);
    EXPECT_EQ(vb.read(1), 9u);
    vb.pop();
    EXPECT_FALSE(vb.available());
}

TEST_F(VbufTest, MaxSizeRecordSurvivesSwapRoundTrip)
{
    // Same max-size record, but through the swap-out / page-in path:
    // buffered content must be transparent across paging too.
    VirtualBuffer v2(pool, &sg, 0, 2);
    const unsigned per_page = kPageWords / (net::kMaxMessageWords + 2);
    std::vector<std::uint64_t> hashes;
    for (unsigned i = 0; i < per_page + 1; ++i) {
        net::Packet p = pkt(0, net::kMaxPayloadWords);
        for (unsigned j = 0; j < net::kMaxPayloadWords; ++j)
            p.payload[j] = i * 100 + j;
        std::vector<Word> sent;
        sent.push_back(core::makeHeader(p.src, false));
        sent.push_back(p.handler);
        sent.insert(sent.end(), p.payload.begin(), p.payload.end());
        hashes.push_back(windowHash(sent));
        if (v2.needsNewPageFor(p)) {
            ASSERT_TRUE(v2.allocatePage());
        }
        v2.insert(std::move(p));
    }
    ASSERT_EQ(v2.swapOut(1), 1u);
    for (unsigned i = 0; i < per_page + 1; ++i) {
        if (v2.frontSwapped()) {
            ASSERT_TRUE(v2.pageInFront());
        }
        ASSERT_TRUE(v2.available());
        std::vector<Word> got;
        for (unsigned w = 0; w < v2.size(); ++w)
            got.push_back(v2.read(w));
        EXPECT_EQ(windowHash(got), hashes[i]) << "record " << i;
        v2.pop();
    }
    EXPECT_FALSE(v2.available());
}

} // namespace
