/**
 * @file
 * Machine-readable bench output: every bench binary accepts --json
 * (or --json=PATH) and, in addition to its human-readable table,
 * writes a BENCH_<name>.json file recording the same rows plus
 * metadata.
 */

#ifndef FUGU_HARNESS_BENCHJSON_HH
#define FUGU_HARNESS_BENCHJSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace fugu::harness
{

/** One typed JSON scalar (string, number, or bool). */
class JsonValue
{
  public:
    JsonValue(const char *s) : kind_(Kind::Str), repr_(s) {}
    JsonValue(std::string s) : kind_(Kind::Str), repr_(std::move(s)) {}
    JsonValue(double v);
    JsonValue(std::uint64_t v);
    JsonValue(unsigned v) : JsonValue(std::uint64_t{v}) {}
    JsonValue(int v);
    JsonValue(bool v);

    void write(std::ostream &os) const;

  private:
    enum class Kind { Str, Num, Bool };

    Kind kind_;
    std::string repr_; // numbers/bools kept preformatted, exact
};

/**
 * Collects rows of (key, value) cells and writes them as JSON when
 * enabled. Flag parsing lives in harness::benchMain (--json), which
 * calls enable(); a default-constructed report collects rows but
 * writes nothing.
 */
class BenchReport
{
  public:
    using Cell = std::pair<std::string, JsonValue>;

    /** @param name bench name; default output BENCH_<name>.json. */
    explicit BenchReport(std::string name);

    /** Turn on writing; empty @p path keeps the default file. */
    void enable(const std::string &path = "");

    /** Rename the bench; a default output path follows the name. */
    void rename(std::string name);

    /** Writes the file on destruction if --json was given. */
    ~BenchReport();

    bool enabled() const { return enabled_; }

    /** Attach run-level metadata (config, units, host note...). */
    void meta(std::string key, JsonValue value);

    /** Append one result row. */
    void row(std::vector<Cell> cells);

    /** Write now (also called by the destructor). */
    void write();

  private:
    std::string name_;
    std::string path_;
    bool enabled_ = false;
    bool written_ = false;
    std::vector<Cell> meta_;
    std::vector<std::vector<Cell>> rows_;
};

} // namespace fugu::harness

#endif // FUGU_HARNESS_BENCHJSON_HH
