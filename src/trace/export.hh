/**
 * @file
 * Trace exporters, reader, and analysis shared by the harness, the
 * tracetool binary, and the tests.
 *
 * Two side-by-side formats are written for every `--trace=FILE` run:
 *
 *  - FILE: compact binary ("FGTR", version 1), 16-byte header +
 *    24-byte little-endian records, readable by tracetool and
 *    readBinary();
 *  - FILE.json: Chrome trace-event JSON (the `traceEvents` array
 *    form), loadable directly in Perfetto / chrome://tracing, with
 *    the retained and dropped event counts in `otherData`.
 *
 * Both are byte-deterministic: integers only, no host state.
 */

#ifndef FUGU_TRACE_EXPORT_HH
#define FUGU_TRACE_EXPORT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace fugu::trace
{

/**
 * Binary format magic and version ("FGTR", little-endian u32): header
 * {magic, version, count} + 24-byte records.
 */
inline constexpr std::uint32_t kBinaryMagic = 0x52544746u;
inline constexpr std::uint32_t kBinaryVersion = 1;

void writeBinary(std::ostream &os, const TraceBuffer &buf);
void writeJson(std::ostream &os, const TraceBuffer &buf);

/**
 * Parse a binary trace.
 * @return false (with @p err set) on bad magic/version/truncation.
 */
bool readBinary(std::istream &is, std::vector<TraceEvent> &out,
                std::string *err);

/** readBinary from a path. */
bool readBinaryFile(const std::string &path,
                    std::vector<TraceEvent> &out, std::string *err);

/** Write both FILE (binary) and FILE.json for a recorded buffer. */
bool writeTraceFiles(const std::string &path, const TraceBuffer &buf,
                     std::string *err);

/** Exact percentiles over one latency population. */
struct LatencyStats
{
    std::uint64_t count = 0;
    Cycle p50 = 0;
    Cycle p95 = 0;
    Cycle p99 = 0;
    Cycle max = 0;
};

/** What `tracetool summarize` reports. */
struct Summary
{
    std::uint64_t events = 0;
    Cycle firstTs = 0;
    Cycle lastTs = 0;

    std::array<std::uint64_t, kNumTypes> byType{};

    /** Divert events by cause (the buffered-entry attribution). */
    std::array<std::uint64_t, kNumReasons> divertByReason{};

    /** ModeEnter events by cause. */
    std::array<std::uint64_t, kNumReasons> modeEnterByReason{};

    /** Inject -> DirectExtract / BufExtract, matched by message id. */
    LatencyStats fastLatency;
    LatencyStats bufferedLatency;

    /**
     * Per-GID extraction breakdown (multi-tenant attribution for
     * serving runs): counts come from every extract event's packed
     * aux GID; latency percentiles from matched inject->extract
     * pairs only.
     */
    struct GidStats
    {
        Gid gid = 0;
        std::uint64_t fast = 0;     ///< DirectExtract count
        std::uint64_t buffered = 0; ///< BufExtract count
        LatencyStats latency;       ///< both paths combined
        /** Per-path split of the same matched pairs (isolation
         *  reporting: a victim's fast- and buffered-path inflation
         *  under an adversarial neighbour differ). */
        LatencyStats fastLatency;
        LatencyStats bufferedLatency;

        double
        bufferedPct() const
        {
            const std::uint64_t n = fast + buffered;
            return n ? 100.0 * static_cast<double>(buffered) /
                           static_cast<double>(n)
                     : 0.0;
        }
    };
    std::vector<GidStats> byGid; ///< sorted by gid

    /** Peak words in flight per (src,dst) channel, from Inject/NetAccept. */
    struct ChannelPeak
    {
        NodeId src = 0;
        NodeId dst = 0;
        unsigned peakWords = 0;
    };
    std::vector<ChannelPeak> channels; ///< sorted by (src,dst)

    std::uint64_t totalDiverts() const;
};

Summary summarize(const std::vector<TraceEvent> &events);

void printSummary(std::ostream &os, const Summary &s);

/** Side-by-side per-type / per-cause / latency deltas of two traces. */
void printDiff(std::ostream &os, const Summary &a, const Summary &b);

} // namespace fugu::trace

#endif // FUGU_TRACE_EXPORT_HH
