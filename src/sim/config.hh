/**
 * @file
 * sim::Config — the unified scenario/config layer.
 *
 * One typed, hierarchical parameter tree flows from the CLI to the
 * CostModel. Every config struct in the system registers its fields
 * once against a Binder (name, default, doc string, units); the tree
 * is populated from scenario files (simple `key = value` sections,
 * e.g. scenarios/fig7_skew.cfg), from CLI overrides (`--set
 * net.per_hop=4`), and from programmatic defaults, with precedence
 * CLI > file > default. Unknown keys and type mismatches are errors
 * that name the offending file and line.
 *
 * The same binder walk serves four purposes: register defaults,
 * apply overrides, list parameters (`--list-params`), and dump the
 * effective post-fix configuration (`--dump-config`) in a format the
 * parser reads back, so any run can be replayed bit-identically from
 * its own dump.
 */

#ifndef FUGU_SIM_CONFIG_HH
#define FUGU_SIM_CONFIG_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace fugu::sim
{

/** Where an assignment came from (precedence: Cli > File). */
enum class ConfigSource : std::uint8_t
{
    File,
    Cli,
};

/** One raw `key = value` assignment with provenance for diagnostics. */
struct ConfigAssignment
{
    std::string key;
    std::string value;
    ConfigSource source = ConfigSource::File;
    std::string file; ///< scenario path, or "--set" for CLI values
    int line = 0;     ///< 1-based line in @c file (0 for CLI)
    bool consumed = false; ///< matched by a registered parameter

    /** "file:line" (or "--set key=value" when line is 0) for errors. */
    std::string where() const;
};

/**
 * The raw parameter tree: an ordered list of assignments collected
 * from scenario files and --set flags. Typing and defaults live in
 * the Binder registrations; the tree itself only stores strings, so
 * it can be populated before any config struct exists.
 */
class Config
{
  public:
    /**
     * Load a scenario file. Lines are `key = value`, `[section]`
     * headers (prefixed onto following keys), blank lines, and `#`
     * comments. Later files override earlier ones.
     * @return false and set @p err on I/O or syntax errors.
     */
    bool loadFile(const std::string &path, std::string *err);

    /** loadFile on in-memory text; @p name labels diagnostics. */
    bool loadString(const std::string &text, const std::string &name,
                    std::string *err);

    /** Record a CLI `key=value` override (from --set). */
    bool setCli(const std::string &keyval, std::string *err);

    /**
     * Record one sweep point's `key=value`. It beats every file value
     * (harness::expandSweep rejects a --set of a key an axis steps),
     * and its diagnostics name @p axis (the assignment that declared
     * the sweep axis) by file and line.
     */
    void setPoint(const ConfigAssignment &axis, const std::string &key,
                  const std::string &value);

    /**
     * The winning assignment for @p key — the last CLI one if any,
     * else the last file one — or null when the key was never set.
     */
    const ConfigAssignment *find(const std::string &key) const;

    /** Was @p key set by a scenario file or the CLI? */
    bool explicitlySet(const std::string &key) const
    {
        return find(key) != nullptr;
    }

    /** Mark every assignment of @p key consumed (binder bookkeeping). */
    void consume(const std::string &key);

    /**
     * After every binder ran: any unconsumed assignment is an unknown
     * key. @return false and set @p err naming its file and line.
     */
    bool checkUnknown(std::string *err) const;

    const std::vector<ConfigAssignment> &assignments() const
    {
        return asgs_;
    }

  private:
    std::vector<ConfigAssignment> asgs_;
};

/**
 * Registers typed parameters against a Config tree and visits the
 * live config structs. A bind function has the shape
 *
 *     void bindConfig(sim::Binder &b, NetworkConfig &c)
 *     {
 *         b.item("per_hop", c.perHop, "router latency per mesh hop",
 *                "cycles");
 *         ...
 *     }
 *
 * and is composed hierarchically with prefix sections:
 *
 *     { auto s = b.push("net"); bindConfig(b, cfg.net); }
 *
 * Run once in Apply mode, the walk registers each parameter (the
 * default is the field's value at bind time) and overwrites fields
 * that the tree sets. Run again in Dump mode over the final (post
 * Machine::fix) structs, it records the effective values for
 * --dump-config and --list-params.
 */
class Binder
{
  public:
    enum class Mode
    {
        Apply, ///< register defaults, then apply tree overrides
        Dump,  ///< record current field values as the effective tree
    };

    struct Param
    {
        std::string key;
        std::string value; ///< default (Apply) or effective (Dump)
        std::string units;
        std::string doc;
        bool overridden = false; ///< set by a file or the CLI
    };

    Binder(Config &cfg, Mode mode) : cfg_(cfg), mode_(mode) {}

    Binder(const Binder &) = delete;
    Binder &operator=(const Binder &) = delete;

    /** RAII dotted-prefix scope. */
    class Section
    {
      public:
        explicit Section(Binder &b) : b_(b) {}
        ~Section() { b_.popPrefix(); }
        Section(const Section &) = delete;
        Section &operator=(const Section &) = delete;

      private:
        Binder &b_;
    };

    [[nodiscard]] Section push(const std::string &name)
    {
        prefix_ += name;
        prefix_ += '.';
        return Section(*this);
    }

    /// @name Typed parameters
    /// @{
    void item(const std::string &key, bool &v, const std::string &doc,
              const std::string &units = "");
    void item(const std::string &key, unsigned &v,
              const std::string &doc, const std::string &units = "");
    void item(const std::string &key, std::uint64_t &v,
              const std::string &doc, const std::string &units = "");
    void item(const std::string &key, double &v,
              const std::string &doc, const std::string &units = "");
    void item(const std::string &key, std::string &v,
              const std::string &doc, const std::string &units = "");

    /** Enumeration stored by symbolic name. */
    template <typename E>
    void
    enumItem(const std::string &key, E &v,
             std::initializer_list<std::pair<const char *, E>> names,
             const std::string &doc)
    {
        std::vector<std::pair<std::string, int>> opts;
        for (const auto &[n, val] : names)
            opts.emplace_back(n, static_cast<int>(val));
        int raw = static_cast<int>(v);
        enumImpl(key, raw, opts, doc);
        v = static_cast<E>(raw);
    }

    /** A string restricted to @p names. */
    void enumItem(const std::string &key, std::string &v,
                  std::initializer_list<const char *> names,
                  const std::string &doc);
    /// @}

    bool ok() const { return err_.empty(); }
    const std::string &error() const { return err_; }

    /** Registered parameters, in registration order. */
    const std::vector<Param> &params() const { return params_; }

    /** Render params() as a replayable scenario file. */
    std::string dumpText() const;

    /** Render params() as the aligned --list-params table. */
    std::string listText() const;

  private:
    friend class Section;
    void popPrefix();

    /**
     * Shared walk: register (key, current-as-string, doc); in Apply
     * mode parse the winning override with @p parse (returns false on
     * type mismatch) and refresh the stored string.
     */
    void bindRaw(const std::string &key, std::string current,
                 const std::string &doc, const std::string &units,
                 const std::string &type_name,
                 bool (*parse)(const std::string &, void *), void *out);

    void enumImpl(const std::string &key, int &v,
                  const std::vector<std::pair<std::string, int>> &opts,
                  const std::string &doc);

    Config &cfg_;
    Mode mode_;
    std::string prefix_;
    std::string err_;
    std::vector<Param> params_;
};

/** Split on @p sep, trimming each element; blank -> empty list. */
std::vector<std::string> splitConfigList(const std::string &s,
                                         char sep = ',');

/**
 * The shortest text that parses back to exactly @p v, so dumps
 * round-trip byte-identically.
 */
std::string formatConfigDouble(double v);

} // namespace fugu::sim

#endif // FUGU_SIM_CONFIG_HH
