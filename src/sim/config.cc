#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/log.hh"

namespace fugu::sim
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
validKey(const std::string &k)
{
    if (k.empty() || k.front() == '.' || k.back() == '.')
        return false;
    for (char c : k) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.')
            return false;
    }
    return k.find("..") == std::string::npos;
}

bool
parseBool(const std::string &s, void *out)
{
    bool v;
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        v = true;
    else if (s == "false" || s == "0" || s == "no" || s == "off")
        v = false;
    else
        return false;
    *static_cast<bool *>(out) = v;
    return true;
}

bool
parseU64(const std::string &s, void *out)
{
    if (s.empty() || s[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    *static_cast<std::uint64_t *>(out) = v;
    return true;
}

bool
parseUnsigned(const std::string &s, void *out)
{
    std::uint64_t v;
    if (!parseU64(s, &v) || v > 0xffffffffull)
        return false;
    *static_cast<unsigned *>(out) = static_cast<unsigned>(v);
    return true;
}

bool
parseDouble(const std::string &s, void *out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    *static_cast<double *>(out) = v;
    return true;
}

bool
parseString(const std::string &s, void *out)
{
    *static_cast<std::string *>(out) = s;
    return true;
}

} // namespace

std::vector<std::string>
splitConfigList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    if (trim(s).empty())
        return out;
    std::size_t start = 0;
    while (true) {
        const std::size_t at = s.find(sep, start);
        out.push_back(trim(s.substr(start, at - start)));
        if (at == std::string::npos)
            break;
        start = at + 1;
    }
    return out;
}

std::string
ConfigAssignment::where() const
{
    if (line == 0)
        return "--set " + key + "=" + value;
    return file + ":" + std::to_string(line);
}

bool
Config::loadString(const std::string &text, const std::string &name,
                   std::string *err)
{
    std::istringstream is(text);
    std::string line;
    std::string section;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']') {
                *err = name + ":" + std::to_string(lineno) +
                       ": unterminated [section] header";
                return false;
            }
            section = trim(line.substr(1, line.size() - 2));
            if (!section.empty() && !validKey(section)) {
                *err = name + ":" + std::to_string(lineno) +
                       ": bad section name '" + section + "'";
                return false;
            }
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            *err = name + ":" + std::to_string(lineno) +
                   ": expected 'key = value', got '" + line + "'";
            return false;
        }
        std::string key = trim(line.substr(0, eq));
        if (!section.empty())
            key = section + "." + key;
        if (!validKey(key)) {
            *err = name + ":" + std::to_string(lineno) +
                   ": bad parameter name '" + key + "'";
            return false;
        }
        ConfigAssignment a;
        a.key = std::move(key);
        a.value = trim(line.substr(eq + 1));
        a.source = ConfigSource::File;
        a.file = name;
        a.line = lineno;
        asgs_.push_back(std::move(a));
    }
    return true;
}

bool
Config::loadFile(const std::string &path, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        *err = "cannot open scenario file '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << is.rdbuf();
    return loadString(text.str(), path, err);
}

bool
Config::setCli(const std::string &keyval, std::string *err)
{
    const std::size_t eq = keyval.find('=');
    if (eq == std::string::npos) {
        *err = "--set expects key=value, got '" + keyval + "'";
        return false;
    }
    ConfigAssignment a;
    a.key = trim(keyval.substr(0, eq));
    a.value = trim(keyval.substr(eq + 1));
    a.source = ConfigSource::Cli;
    a.file = "--set";
    if (!validKey(a.key)) {
        *err = "--set: bad parameter name '" + a.key + "'";
        return false;
    }
    asgs_.push_back(std::move(a));
    return true;
}

void
Config::setPoint(const ConfigAssignment &axis, const std::string &key,
                 const std::string &value)
{
    ConfigAssignment a = axis;
    a.key = key;
    a.value = value;
    a.source = ConfigSource::Cli; // appended last, so it wins
    a.consumed = false;
    asgs_.push_back(std::move(a));
}

const ConfigAssignment *
Config::find(const std::string &key) const
{
    const ConfigAssignment *best = nullptr;
    for (const auto &a : asgs_) {
        if (a.key != key)
            continue;
        // Last CLI assignment wins over any file one; within a
        // source, later assignments override earlier ones.
        if (!best || a.source >= best->source)
            best = &a;
    }
    return best;
}

void
Config::consume(const std::string &key)
{
    for (auto &a : asgs_)
        if (a.key == key)
            a.consumed = true;
}

bool
Config::checkUnknown(std::string *err) const
{
    for (const auto &a : asgs_) {
        if (!a.consumed) {
            *err = a.where() + ": unknown parameter '" + a.key + "'";
            return false;
        }
    }
    return true;
}

std::string
formatConfigDouble(double v)
{
    // Shortest representation that parses back exactly, so dumps
    // round-trip byte-identically.
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    return buf;
}

void
Binder::popPrefix()
{
    // Drop the trailing "name." segment.
    fugu_assert(!prefix_.empty() && prefix_.back() == '.');
    prefix_.pop_back();
    const std::size_t dot = prefix_.rfind('.');
    prefix_.erase(dot == std::string::npos ? 0 : dot + 1);
}

void
Binder::bindRaw(const std::string &key, std::string current,
                const std::string &doc, const std::string &units,
                const std::string &type_name,
                bool (*parse)(const std::string &, void *), void *out)
{
    const std::string full = prefix_ + key;
    for (const Param &p : params_)
        fugu_assert(p.key != full, "parameter '", full,
                    "' registered twice");

    Param p;
    p.key = full;
    p.units = units;
    p.doc = doc;

    const ConfigAssignment *a = cfg_.find(full);
    cfg_.consume(full);
    if (mode_ == Mode::Apply && a) {
        if (!parse(a->value, out)) {
            if (err_.empty())
                err_ = a->where() + ": parameter '" + full +
                       "' expects " + type_name + ", got '" + a->value +
                       "'";
            params_.push_back(std::move(p));
            return;
        }
        p.overridden = true;
    }
    // In Apply mode `current` was captured before the override was
    // applied; refresh it so params() reflects the applied value.
    p.value = (mode_ == Mode::Apply && a) ? a->value : current;
    params_.push_back(std::move(p));
}

void
Binder::item(const std::string &key, bool &v, const std::string &doc,
             const std::string &units)
{
    bindRaw(key, v ? "true" : "false", doc, units, "a boolean",
            parseBool, &v);
}

void
Binder::item(const std::string &key, unsigned &v,
             const std::string &doc, const std::string &units)
{
    bindRaw(key, std::to_string(v), doc, units, "an unsigned integer",
            parseUnsigned, &v);
}

void
Binder::item(const std::string &key, std::uint64_t &v,
             const std::string &doc, const std::string &units)
{
    bindRaw(key, std::to_string(v), doc, units, "an unsigned integer",
            parseU64, &v);
}

void
Binder::item(const std::string &key, double &v, const std::string &doc,
             const std::string &units)
{
    bindRaw(key, formatConfigDouble(v), doc, units, "a number",
            parseDouble, &v);
}

void
Binder::item(const std::string &key, std::string &v,
             const std::string &doc, const std::string &units)
{
    bindRaw(key, v, doc, units, "a string", parseString, &v);
}

void
Binder::enumImpl(const std::string &key, int &v,
                 const std::vector<std::pair<std::string, int>> &opts,
                 const std::string &doc)
{
    std::string current = "?";
    std::string all;
    for (const auto &[n, val] : opts) {
        if (val == v)
            current = n;
        if (!all.empty())
            all += "|";
        all += n;
    }
    struct Ctx
    {
        const std::vector<std::pair<std::string, int>> *opts;
        int *out;
    };
    // bindRaw's parser is a plain function pointer; smuggle the
    // option table through the out pointer.
    Ctx ctx{&opts, &v};
    bindRaw(key, current, doc + " (" + all + ")", "", "one of " + all,
            [](const std::string &s, void *p) {
                Ctx &c = *static_cast<Ctx *>(p);
                for (const auto &[n, val] : *c.opts) {
                    if (n == s) {
                        *c.out = val;
                        return true;
                    }
                }
                return false;
            },
            &ctx);
}

void
Binder::enumItem(const std::string &key, std::string &v,
                 std::initializer_list<const char *> names,
                 const std::string &doc)
{
    std::vector<std::pair<std::string, int>> opts;
    int raw = -1;
    for (const char *n : names) {
        if (v == n)
            raw = static_cast<int>(opts.size());
        opts.emplace_back(n, static_cast<int>(opts.size()));
    }
    enumImpl(key, raw, opts, doc);
    if (raw >= 0)
        v = opts[static_cast<std::size_t>(raw)].first;
}

std::string
Binder::dumpText() const
{
    std::string out;
    out += "# Effective fugusim configuration. Replay with:\n";
    out += "#   <bench> --scenario <this file>\n";
    for (const Param &p : params_)
        out += p.key + " = " + p.value + "\n";
    return out;
}

std::string
Binder::listText() const
{
    std::size_t kw = 0, vw = 0;
    for (const Param &p : params_) {
        kw = std::max(kw, p.key.size());
        vw = std::max(vw, p.value.size());
    }
    std::string out;
    for (const Param &p : params_) {
        std::string line = p.key;
        line += std::string(kw - p.key.size() + 2, ' ');
        line += p.value;
        line += std::string(vw - p.value.size() + 2, ' ');
        line += p.doc;
        if (!p.units.empty())
            line += " [" + p.units + "]";
        out += line + "\n";
    }
    return out;
}

} // namespace fugu::sim
