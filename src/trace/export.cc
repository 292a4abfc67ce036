#include "trace/export.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <unordered_map>

namespace fugu::trace
{

// ---------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------

namespace
{

void
putU16(std::ostream &os, std::uint16_t v)
{
    char b[2] = {static_cast<char>(v & 0xff),
                 static_cast<char>(v >> 8)};
    os.write(b, 2);
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 4);
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 8);
}

bool
getBytes(std::istream &is, unsigned char *b, std::size_t n)
{
    is.read(reinterpret_cast<char *>(b), static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(is.gcount()) == n;
}

std::uint64_t
loadLe(const unsigned char *b, unsigned n)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

} // namespace

void
writeBinary(std::ostream &os, const TraceBuffer &buf)
{
    putU32(os, kBinaryMagic);
    putU32(os, kBinaryVersion);
    putU64(os, buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
        const TraceEvent &e = buf[i];
        putU64(os, e.ts);
        putU64(os, e.msg);
        putU32(os, e.aux);
        putU16(os, e.node);
        os.put(static_cast<char>(e.type));
        os.put(static_cast<char>(e.reason));
    }
}

bool
readBinary(std::istream &is, std::vector<TraceEvent> &out,
           std::string *err)
{
    auto fail = [&](const char *what) {
        if (err)
            *err = what;
        return false;
    };
    unsigned char hdr[16];
    if (!getBytes(is, hdr, sizeof(hdr)))
        return fail("truncated header");
    if (loadLe(hdr, 4) != kBinaryMagic)
        return fail("bad magic (not a fugutrace binary)");
    if (loadLe(hdr + 4, 4) != kBinaryVersion)
        return fail("unsupported trace version");
    const std::uint64_t count = loadLe(hdr + 8, 8);
    out.clear();
    // The header's count is untrusted input: a corrupt/hostile value
    // must not drive a multi-GB reserve. Cap the pre-allocation; the
    // read loop below still detects genuine truncation record by
    // record.
    out.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, 1u << 20)));
    for (std::uint64_t i = 0; i < count; ++i) {
        unsigned char rec[24];
        if (!getBytes(is, rec, sizeof(rec)))
            return fail("truncated record");
        TraceEvent e;
        e.ts = loadLe(rec, 8);
        e.msg = loadLe(rec + 8, 8);
        e.aux = static_cast<std::uint32_t>(loadLe(rec + 16, 4));
        e.node = static_cast<std::uint16_t>(loadLe(rec + 20, 2));
        e.type = rec[22];
        e.reason = rec[23];
        out.push_back(e);
    }
    return true;
}

bool
readBinaryFile(const std::string &path, std::vector<TraceEvent> &out,
               std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    return readBinary(is, out, err);
}

// ---------------------------------------------------------------------
// Chrome trace-event JSON (Perfetto-loadable)
// ---------------------------------------------------------------------

void
writeJson(std::ostream &os, const TraceBuffer &buf)
{
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
       << "\"tool\":\"fugutrace\",\"events\":" << buf.size()
       << ",\"dropped\":" << buf.dropped() << "},\"traceEvents\":[";

    // One metadata record per node seen, so Perfetto labels tracks.
    std::uint16_t max_node = 0;
    for (std::size_t i = 0; i < buf.size(); ++i)
        max_node = std::max(max_node, buf[i].node);
    bool first = true;
    for (std::uint16_t n = 0; n <= max_node; ++n) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << n << ",\"args\":{\"name\":\"node "
           << n << "\"}}";
    }

    for (std::size_t i = 0; i < buf.size(); ++i) {
        const TraceEvent &e = buf[i];
        const Type t = static_cast<Type>(e.type);
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << toString(t) << "\",";
        if (t == Type::Dispatch) {
            // Handler span: aux carries the duration (high bit tags
            // the buffered path), the record is stamped at span end.
            const std::uint32_t dur = e.aux & 0x7fffffffu;
            const bool buffered = (e.aux & 0x80000000u) != 0;
            const Cycle start = e.ts >= dur ? e.ts - dur : 0;
            os << "\"ph\":\"X\",\"ts\":" << start << ",\"dur\":" << dur
               << ",\"pid\":0,\"tid\":" << e.node
               << ",\"args\":{\"path\":\""
               << (buffered ? "buffered" : "direct") << "\"}}";
            continue;
        }
        os << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.ts
           << ",\"pid\":0,\"tid\":" << e.node << ",\"args\":{";
        bool comma = false;
        auto arg = [&](const char *k) -> std::ostream & {
            if (comma)
                os << ",";
            comma = true;
            os << "\"" << k << "\":";
            return os;
        };
        if (e.msg)
            arg("msg") << e.msg;
        if (e.reason)
            arg("reason")
                << "\"" << toString(static_cast<DivertReason>(e.reason))
                << "\"";
        arg("aux") << e.aux;
        os << "}}";
    }
    os << "]}\n";
}

bool
writeTraceFiles(const std::string &path, const TraceBuffer &buf,
                std::string *err)
{
    {
        std::ofstream bin(path, std::ios::binary);
        if (!bin) {
            if (err)
                *err = "cannot write " + path;
            return false;
        }
        writeBinary(bin, buf);
    }
    {
        std::ofstream js(path + ".json");
        if (!js) {
            if (err)
                *err = "cannot write " + path + ".json";
            return false;
        }
        writeJson(js, buf);
    }
    return true;
}

// ---------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------

std::uint64_t
Summary::totalDiverts() const
{
    std::uint64_t n = 0;
    for (std::uint64_t v : divertByReason)
        n += v;
    return n;
}

namespace
{

LatencyStats
percentiles(std::vector<Cycle> &lat)
{
    LatencyStats out;
    out.count = lat.size();
    if (lat.empty())
        return out;
    std::sort(lat.begin(), lat.end());
    auto at = [&](double p) {
        const std::size_t idx = static_cast<std::size_t>(
            p * static_cast<double>(lat.size() - 1));
        return lat[idx];
    };
    out.p50 = at(0.50);
    out.p95 = at(0.95);
    out.p99 = at(0.99);
    out.max = lat.back();
    return out;
}

} // namespace

Summary
summarize(const std::vector<TraceEvent> &events)
{
    Summary s;
    s.events = events.size();
    if (!events.empty()) {
        s.firstTs = events.front().ts;
        s.lastTs = events.back().ts;
    }

    std::unordered_map<std::uint64_t, Cycle> injectTs;
    std::vector<Cycle> fast, buffered;
    struct GidAccum
    {
        std::uint64_t fast = 0;
        std::uint64_t buffered = 0;
        std::vector<Cycle> lat;
        std::vector<Cycle> latFast;
        std::vector<Cycle> latBuf;
    };
    std::map<Gid, GidAccum> byGid;
    struct ChanState
    {
        unsigned inFlight = 0;
        unsigned peak = 0;
    };
    std::map<std::uint32_t, ChanState> chans;

    for (const TraceEvent &e : events) {
        if (e.type < kNumTypes)
            ++s.byType[e.type];
        const Type t = static_cast<Type>(e.type);
        switch (t) {
          case Type::Inject: {
            injectTs[e.msg] = e.ts;
            const NodeId dst = static_cast<NodeId>(e.aux >> 16);
            const unsigned words = e.aux & 0xffffu;
            ChanState &c =
                chans[(static_cast<std::uint32_t>(e.node) << 16) | dst];
            c.inFlight += words;
            c.peak = std::max(c.peak, c.inFlight);
            break;
          }
          case Type::NetAccept: {
            const NodeId src = static_cast<NodeId>(e.aux >> 16);
            const unsigned words = e.aux & 0xffffu;
            ChanState &c =
                chans[(static_cast<std::uint32_t>(src) << 16) | e.node];
            c.inFlight -= std::min(c.inFlight, words);
            break;
          }
          case Type::Divert:
            if (e.reason < kNumReasons)
                ++s.divertByReason[e.reason];
            break;
          case Type::ModeEnter:
            if (e.reason < kNumReasons)
                ++s.modeEnterByReason[e.reason];
            break;
          case Type::DirectExtract:
          case Type::BufExtract: {
            GidAccum &g = byGid[extractAuxGid(e.aux)];
            (t == Type::DirectExtract ? g.fast : g.buffered) += 1;
            auto it = injectTs.find(e.msg);
            if (it == injectTs.end())
                break; // inject lost to ring wrap-around
            const Cycle lat = e.ts - it->second;
            (t == Type::DirectExtract ? fast : buffered).push_back(lat);
            g.lat.push_back(lat);
            (t == Type::DirectExtract ? g.latFast : g.latBuf)
                .push_back(lat);
            injectTs.erase(it);
            break;
          }
          default:
            break;
        }
    }

    s.fastLatency = percentiles(fast);
    s.bufferedLatency = percentiles(buffered);
    for (auto &[gid, g] : byGid) {
        Summary::GidStats gs;
        gs.gid = gid;
        gs.fast = g.fast;
        gs.buffered = g.buffered;
        gs.latency = percentiles(g.lat);
        gs.fastLatency = percentiles(g.latFast);
        gs.bufferedLatency = percentiles(g.latBuf);
        s.byGid.push_back(gs);
    }
    for (const auto &[key, c] : chans)
        s.channels.push_back({static_cast<NodeId>(key >> 16),
                              static_cast<NodeId>(key & 0xffffu),
                              c.peak});
    return s;
}

namespace
{

/** Deterministic one-decimal percentage (no locale/float formatting). */
std::string
pctTenths(double pct)
{
    const std::uint64_t tenths =
        static_cast<std::uint64_t>(pct * 10.0 + 0.5);
    return std::to_string(tenths / 10) + "." +
           std::to_string(tenths % 10);
}

} // namespace

void
printSummary(std::ostream &os, const Summary &s)
{
    os << "events " << s.events << " (cycles " << s.firstTs << ".."
       << s.lastTs << ")\n";

    os << "\nper-type counts:\n";
    for (unsigned t = 0; t < kNumTypes; ++t) {
        if (s.byType[t])
            os << "  " << toString(static_cast<Type>(t)) << " "
               << s.byType[t] << "\n";
    }

    os << "\nbuffered entries: inserted " << s.totalDiverts()
       << ", drained "
       << s.byType[static_cast<unsigned>(Type::BufExtract)] << "\n";
    os << "buffered-entry causes (divert events): total "
       << s.totalDiverts() << "\n";
    for (unsigned r = 0; r < kNumReasons; ++r) {
        if (s.divertByReason[r])
            os << "  " << toString(static_cast<DivertReason>(r)) << " "
               << s.divertByReason[r] << "\n";
    }
    os << "mode entries by cause:\n";
    for (unsigned r = 0; r < kNumReasons; ++r) {
        if (s.modeEnterByReason[r])
            os << "  " << toString(static_cast<DivertReason>(r)) << " "
               << s.modeEnterByReason[r] << "\n";
    }

    auto lat = [&](const char *name, const LatencyStats &l) {
        os << name << ": n=" << l.count;
        if (l.count)
            os << " p50=" << l.p50 << " p95=" << l.p95
               << " p99=" << l.p99 << " max=" << l.max;
        else
            os << " p50=n/a p95=n/a p99=n/a max=n/a";
        os << "\n";
    };
    os << "\ndelivery latency (cycles, inject->extract):\n";
    lat("  fast path    ", s.fastLatency);
    lat("  buffered path", s.bufferedLatency);

    if (!s.byGid.empty()) {
        os << "\nper-GID extraction breakdown:\n";
        for (const auto &g : s.byGid) {
            const std::uint64_t n = g.fast + g.buffered;
            os << "  gid " << g.gid << ": extracted " << n << " (fast "
               << g.fast << ", buffered " << g.buffered << ", "
               << pctTenths(g.bufferedPct()) << "% buffered)";
            if (g.latency.count)
                os << " latency p50=" << g.latency.p50
                   << " p95=" << g.latency.p95
                   << " p99=" << g.latency.p99
                   << " max=" << g.latency.max;
            if (g.fastLatency.count)
                os << " fast-p99=" << g.fastLatency.p99;
            if (g.bufferedLatency.count)
                os << " buf-p99=" << g.bufferedLatency.p99;
            os << "\n";
        }
    }

    os << "\nchannel peak occupancy (words in flight):\n";
    unsigned shown = 0;
    std::vector<Summary::ChannelPeak> top = s.channels;
    std::stable_sort(top.begin(), top.end(),
                     [](const auto &a, const auto &b) {
                         return a.peakWords > b.peakWords;
                     });
    for (const auto &c : top) {
        if (shown++ == 10) {
            os << "  ... (" << s.channels.size() << " channels total)\n";
            break;
        }
        os << "  " << c.src << "->" << c.dst << " " << c.peakWords
           << "\n";
    }
}

void
printDiff(std::ostream &os, const Summary &a, const Summary &b)
{
    auto delta = [&](const char *name, std::uint64_t va,
                     std::uint64_t vb) {
        if (va == 0 && vb == 0)
            return;
        os << "  " << name << " " << va << " -> " << vb << " ("
           << (vb >= va ? "+" : "-")
           << (vb >= va ? vb - va : va - vb) << ")\n";
    };
    os << "events " << a.events << " -> " << b.events << "\n";
    os << "per-type:\n";
    for (unsigned t = 0; t < kNumTypes; ++t)
        delta(toString(static_cast<Type>(t)), a.byType[t], b.byType[t]);
    os << "divert causes:\n";
    for (unsigned r = 0; r < kNumReasons; ++r)
        delta(toString(static_cast<DivertReason>(r)),
              a.divertByReason[r], b.divertByReason[r]);
    auto lat = [&](const char *name, const LatencyStats &la,
                   const LatencyStats &lb) {
        os << name << ": n " << la.count << " -> " << lb.count
           << ", p50 " << la.p50 << " -> " << lb.p50 << ", p99 "
           << la.p99 << " -> " << lb.p99 << "\n";
    };
    lat("fast latency", a.fastLatency, b.fastLatency);
    lat("buffered latency", a.bufferedLatency, b.bufferedLatency);
}

} // namespace fugu::trace
