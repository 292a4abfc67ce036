#include "harness/benchjson.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::harness
{

JsonValue::JsonValue(double v)
    : kind_(Kind::Num),
      // JSON has no inf/nan.
      repr_(std::isfinite(v) ? sim::formatConfigDouble(v) : "null")
{
}

JsonValue::JsonValue(std::uint64_t v)
    : kind_(Kind::Num), repr_(std::to_string(v))
{
}

JsonValue::JsonValue(int v) : kind_(Kind::Num), repr_(std::to_string(v))
{
}

JsonValue::JsonValue(bool v)
    : kind_(Kind::Bool), repr_(v ? "true" : "false")
{
}

void
JsonValue::write(std::ostream &os) const
{
    if (kind_ != Kind::Str) {
        os << repr_;
        return;
    }
    os << '"';
    for (char c : repr_) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), path_("BENCH_" + name_ + ".json")
{
}

void
BenchReport::enable(const std::string &path)
{
    enabled_ = true;
    if (!path.empty())
        path_ = path;
}

void
BenchReport::rename(std::string name)
{
    if (path_ == "BENCH_" + name_ + ".json")
        path_ = "BENCH_" + name + ".json";
    name_ = std::move(name);
}

BenchReport::~BenchReport()
{
    write();
}

void
BenchReport::meta(std::string key, JsonValue value)
{
    meta_.emplace_back(std::move(key), std::move(value));
}

void
BenchReport::row(std::vector<Cell> cells)
{
    rows_.push_back(std::move(cells));
}

void
BenchReport::write()
{
    if (!enabled_ || written_)
        return;
    written_ = true;
    std::ofstream os(path_);
    if (!os) {
        warn("cannot write bench report to '", path_, "'");
        return;
    }
    auto writeCells = [&os](const std::vector<Cell> &cells,
                            const char *indent) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << indent;
            JsonValue(cells[i].first).write(os);
            os << ": ";
            cells[i].second.write(os);
            os << (i + 1 < cells.size() ? ",\n" : "\n");
        }
    };
    os << "{\n  \"bench\": ";
    JsonValue(name_).write(os);
    os << ",\n  \"meta\": {\n";
    writeCells(meta_, "    ");
    os << "  },\n  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << "    {\n";
        writeCells(rows_[r], "      ");
        os << (r + 1 < rows_.size() ? "    },\n" : "    }\n");
    }
    os << "  ]\n}\n";
}

} // namespace fugu::harness
