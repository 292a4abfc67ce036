/**
 * @file
 * fugutrace: message-lifecycle tracing.
 *
 * A Recorder captures fixed-size TraceEvents into a ring buffer, one
 * per Machine (one deterministic single-threaded simulation, so
 * recording needs no synchronization and the trace bytes are
 * independent of the harness worker count). Components hold
 * a nullable `trace::Recorder *`: the disabled path is a single
 * null-check branch.
 *
 * Event timestamps come from the Machine's EventQueue, event order is
 * recording order, and nothing host-dependent (pointers, wall-clock,
 * thread ids) enters the buffer, so a trace is bit-identical across
 * runs and across FUGU_THREADS settings.
 */

#ifndef FUGU_TRACE_TRACE_HH
#define FUGU_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::trace
{

/** What happened. Values are part of the binary format: append only. */
enum class Type : std::uint8_t
{
    Inject = 0,        ///< message committed to a network (node = src)
    NetAccept = 1,     ///< NI accepted an arrival into its input queue
    Divert = 2,        ///< mismatch path inserted into a virtual buffer
    DirectExtract = 3, ///< fast path: disposed straight off the NI
    BufExtract = 4,    ///< buffered path: drained from the vbuf
    Dispatch = 5,      ///< user handler completed (span; aux = cycles)
    AtomTimeout = 6,   ///< atomicity timer fired (revocation imminent)
    ModeEnter = 7,     ///< process entered buffered mode
    ModeExit = 8,      ///< process left buffered mode
    QuantumSwitch = 9, ///< gang-scheduler quantum switch taken
    KernelMsg = 10,    ///< kernel message dispatched (either network)
    PageFault = 11,    ///< page-fault trap serviced
    Overflow = 12,     ///< overflow control activated
    VbufPage = 13,     ///< vbuf page alloc / swap-out / page-in
    IrqDispatch = 14,  ///< interrupt handler dispatched (aux = line)
};

inline constexpr unsigned kNumTypes = 15;

/**
 * Why a message took (or a process entered) the buffered path. Doubles
 * as the buffered-entry cause stored on the Process so that later
 * Divert events of the same episode carry their cause. Values are part
 * of the binary format: append only.
 */
enum class DivertReason : std::uint8_t
{
    None = 0,
    GidMismatch = 1, ///< arrival for a descheduled process
    AtomTimeout = 2, ///< atomicity-timer revocation
    PageFault = 3,   ///< page fault inside an atomic section
    QuantumCarry = 4,///< quantum began with messages already buffered
    Config = 5,      ///< always-buffered ablation
    Forced = 6,      ///< fault injection forced the transition
};

inline constexpr unsigned kNumReasons = 7;

const char *toString(Type t);
const char *toString(DivertReason r);

/** VbufPage event subkinds (low 2 bits of aux). */
inline constexpr std::uint32_t kVbufAlloc = 0;
inline constexpr std::uint32_t kVbufSwapOut = 1;
inline constexpr std::uint32_t kVbufPageIn = 2;

/**
 * One fixed-size trace record. 24 bytes; the binary format writes the
 * fields little-endian in declaration order.
 */
struct TraceEvent
{
    Cycle ts = 0;           ///< EventQueue cycle of the record
    std::uint64_t msg = 0;  ///< message id (see msgId helpers), or 0
    std::uint32_t aux = 0;  ///< per-type payload (see Type docs)
    std::uint16_t node = 0; ///< node the event happened on
    std::uint8_t type = 0;  ///< Type
    std::uint8_t reason = 0;///< DivertReason

    bool
    operator==(const TraceEvent &o) const
    {
        return ts == o.ts && msg == o.msg && aux == o.aux &&
               node == o.node && type == o.type && reason == o.reason;
    }
};

/**
 * Message ids correlate lifecycle events of one packet. Each network
 * assigns a per-network injection sequence; the low bit tags which
 * network so user-net and OS-net sequences never collide.
 */
constexpr std::uint64_t
userMsgId(std::uint64_t seq)
{
    return seq << 1;
}

constexpr std::uint64_t
osMsgId(std::uint64_t seq)
{
    return (seq << 1) | 1;
}

/**
 * Extract events (DirectExtract/BufExtract) pack the receiving GID and
 * the delivery latency (inject to extract, cycles) into aux: the GID
 * in the top byte, the latency saturated into the low 24 bits. The
 * per-tenant breakdown in `tracetool summarize` attributes every
 * extraction without a matching Inject record (which a wrapped ring
 * may have dropped).
 */
constexpr std::uint32_t
packExtractAux(Gid gid, Cycle latency)
{
    const std::uint32_t g =
        gid > 0xff ? 0xffu : static_cast<std::uint32_t>(gid);
    const std::uint32_t lat =
        latency > 0xffffffull ? 0xffffffu
                              : static_cast<std::uint32_t>(latency);
    return (g << 24) | lat;
}

constexpr Gid
extractAuxGid(std::uint32_t aux)
{
    return static_cast<Gid>(aux >> 24);
}

constexpr Cycle
extractAuxLatency(std::uint32_t aux)
{
    return aux & 0xffffffu;
}

/** Recorder knobs, embedded in MachineConfig. */
struct Options
{
    bool enabled = false;

    /**
     * Ring capacity in events (24 bytes each). When a run records
     * more, the oldest events are overwritten; the drop count is
     * reported by the exporters. 0 means unbounded.
     */
    std::size_t maxEvents = 1u << 20;

    /**
     * Free-form label stamped into exported traces (e.g.
     * "backend=damq") so ablation runs stay distinguishable in
     * summaries and diffs. Empty (the default) keeps the version-1
     * binary format byte for byte; a tag writes a version-2 header.
     */
    std::string runTag;
};

/** Register the tracing knobs on the scenario/config tree. */
void bindConfig(sim::Binder &b, Options &c);

/**
 * Single-writer ring of TraceEvents. Storage grows in fixed chunks up
 * to the capacity, then wraps; a bounded run therefore keeps the most
 * recent `capacity` events. Growth is lazy so an idle recorder costs
 * one pointer vector.
 */
class TraceBuffer
{
  public:
    /** @param capacity max retained events; 0 = unbounded. */
    explicit TraceBuffer(std::size_t capacity) : cap_(capacity) {}

    void
    append(const TraceEvent &e)
    {
        slot(total_) = e;
        ++total_;
    }

    /** Events retained (<= capacity). */
    std::size_t
    size() const
    {
        if (cap_ == 0)
            return static_cast<std::size_t>(total_);
        return static_cast<std::size_t>(
            total_ < cap_ ? total_ : cap_);
    }

    /** Events ever recorded, including overwritten ones. */
    std::uint64_t total() const { return total_; }

    /** Events lost to ring wrap-around. */
    std::uint64_t dropped() const { return total_ - size(); }

    /** @param i 0 = oldest retained event. */
    const TraceEvent &
    operator[](std::size_t i) const
    {
        return const_cast<TraceBuffer *>(this)->slot(dropped() + i);
    }

    /** Copy the retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Run label carried into the exporters (may be empty). */
    const std::string &tag() const { return tag_; }
    void setTag(std::string tag) { tag_ = std::move(tag); }

  private:
    static constexpr std::size_t kChunk = std::size_t{1} << 16;

    TraceEvent &slot(std::uint64_t n);

    std::size_t cap_;
    std::uint64_t total_ = 0;
    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
    std::string tag_;
};

/** Stamps events with the owning Machine's simulated clock. */
class Recorder
{
  public:
    Recorder(const EventQueue &eq, const Options &opts)
        : eq_(eq), buf_(opts.maxEvents)
    {
        buf_.setTag(opts.runTag);
    }

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    void
    record(NodeId node, Type t, std::uint64_t msg = 0,
           DivertReason r = DivertReason::None, std::uint32_t aux = 0)
    {
        TraceEvent e;
        e.ts = eq_.now();
        e.msg = msg;
        e.aux = aux;
        e.node = node;
        e.type = static_cast<std::uint8_t>(t);
        e.reason = static_cast<std::uint8_t>(r);
        buf_.append(e);
    }

    const TraceBuffer &buffer() const { return buf_; }

  private:
    const EventQueue &eq_;
    TraceBuffer buf_;
};

} // namespace fugu::trace

/**
 * Instrumentation-point gate: `rec` is a nullable trace::Recorder*.
 * Disabled cost is one predictable branch.
 */
#define FUGU_TRACE(rec, ...)                                           \
    do {                                                               \
        if (rec)                                                       \
            (rec)->record(__VA_ARGS__);                                \
    } while (0)

#endif // FUGU_TRACE_TRACE_HH
