/**
 * @file
 * Counting replacement of the global operator new/delete, linked into
 * the allocation tests (test_event_alloc, test_packet_alloc).
 *
 * Every plain and aligned operator new, scalar or array, bumps
 * g_newCalls before it allocates with malloc/aligned_alloc; every
 * operator delete frees with free. A test warms its subject up,
 * snapshots the counter, runs the steady-state loop and asserts the
 * counter did not move.
 *
 * The replacement has its own translation unit (count_alloc.cc): in
 * the same one as a test's code, GCC's -Wmismatched-new-delete flags
 * new-expressions whose inlined delete ends in free().
 */

#ifndef FUGU_TESTS_COUNT_ALLOC_HH
#define FUGU_TESTS_COUNT_ALLOC_HH

#include <atomic>
#include <cstdint>

/** Calls to any replaced operator new so far. */
extern std::atomic<std::uint64_t> g_newCalls;

#endif // FUGU_TESTS_COUNT_ALLOC_HH
