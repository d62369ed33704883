// One reader for every telemetry export the runtime writes: a strict JSON
// parser (the metrics and profile JSON reports, the Chrome trace and each
// line of the causal event log), the Prometheus text exposition, the
// profiler's folded and JSON reports read into one Profile, and the JSONL
// event log. The tests and tools/telemetry_check read exports only through
// this header, so what a valid export looks like is decided in one place: a
// formatting or accounting regression in an exporter fails a test instead of
// a scrape or a flamegraph.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hpp"

namespace lpt::telemetry {

/// The whole file at `path`; empty when it cannot be read.
inline std::string slurp(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON (RFC 8259)
// ---------------------------------------------------------------------------

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;  ///< a string's value, or a number as written
  std::vector<std::pair<std::string, Json>> object;
  std::vector<Json> array;

  /// The first member named `key` of an object, or null.
  const Json* get(const std::string& key) const {
    for (const auto& kv : object)
      if (kv.first == key) return &kv.second;
    return nullptr;
  }
  double num_or(const std::string& key, double fallback) const {
    const Json* j = get(key);
    return j != nullptr && j->kind == kNumber ? j->number : fallback;
  }
  /// Member `key` as an integer of type T, exactly: false when it is
  /// missing, not a number, has a fraction or exponent, or does not fit.
  template <class T>
  bool int_at(const std::string& key, T* out) const {
    const Json* j = get(key);
    if (j == nullptr || j->kind != kNumber) return false;
    const char* end = j->str.data() + j->str.size();
    const auto r = std::from_chars(j->str.data(), end, *out);
    return r.ec == std::errc() && r.ptr == end;
  }
};

namespace detail {

/// Calls fn(lineno, line) for every '\n'-terminated line of `text` (and a
/// last unterminated one), numbering from 1.
template <class Fn>
void for_each_line(const std::string& text, Fn fn) {
  int lineno = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    fn(++lineno, text.substr(pos, eol - pos));
    pos = eol + 1;
  }
}

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  Json document() {
    Json j = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after the document");
    return j;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json offset " + std::to_string(pos_) + ": " +
                             what);
  }
  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  bool digits() {
    const std::size_t begin = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > begin;
  }

  Json value(int depth) {
    if (depth > 256) fail("nested too deeply");
    Json j;
    if (eat('{')) {
      j.kind = Json::kObject;
      if (eat('}')) return j;
      do {
        skip_ws();
        if (!at('"')) fail("object key is not a string");
        std::string key = string();
        expect(':');
        j.object.emplace_back(std::move(key), value(depth + 1));
      } while (eat(','));
      expect('}');
    } else if (eat('[')) {
      j.kind = Json::kArray;
      if (eat(']')) return j;
      do j.array.push_back(value(depth + 1));
      while (eat(','));
      expect(']');
    } else if (at('"')) {
      j.kind = Json::kString;
      j.str = string();
    } else if (literal("true")) {
      j.kind = Json::kBool;
      j.boolean = true;
    } else if (literal("false")) {
      j.kind = Json::kBool;
    } else if (!literal("null")) {
      number(&j);
    }
    return j;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and nothing else: no NaN,
  // Infinity, hex, leading '+' or leading zero.
  void number(Json* j) {
    const std::size_t begin = pos_;
    if (at('-')) ++pos_;
    if (at('0'))
      ++pos_;
    else if (!digits())
      fail("not a JSON value");
    if (at('.')) {
      ++pos_;
      if (!digits()) fail("bad fraction");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) fail("bad exponent");
    }
    j->kind = Json::kNumber;
    j->str = s_.substr(begin, pos_ - begin);
    j->number = std::strtod(j->str.c_str(), nullptr);
  }

  unsigned hex4() {
    unsigned v = 0;
    const char* p = s_.data() + pos_;
    if (s_.size() - pos_ < 4 || std::from_chars(p, p + 4, v, 16).ptr != p + 4)
      fail("\\u needs four hex digits");
    pos_ += 4;
    return v;
  }

  // A surrogate pair decodes as two code units: no exporter escapes one.
  static void append_utf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string string() {
    ++pos_;  // the opening quote
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = pos_ < s_.size() ? s_[pos_++] : '\0';
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(hex4(), &out); break;
        default: fail("bad escape in string");
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text` as exactly one JSON document. On malformed input returns
/// false and says where in *err.
inline bool parse_json(const std::string& text, Json* out, std::string* err) {
  try {
    *out = detail::JsonReader(text).document();
    return true;
  } catch (const std::runtime_error& e) {
    *err = e.what();
    return false;
  }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct Metrics {
  std::vector<Sample> samples;
  std::map<std::string, std::string> types;  ///< family -> counter|gauge|...
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }

  /// Sum of every sample of `name` whose labels all match `where`.
  double sum(const std::string& name,
             const std::map<std::string, std::string>& where = {}) const {
    double total = 0.0;
    for (const Sample& s : samples) {
      if (s.name != name) continue;
      bool match = true;
      for (const auto& kv : where) {
        auto it = s.labels.find(kv.first);
        match = match && it != s.labels.end() && it->second == kv.second;
      }
      if (match) total += s.value;
    }
    return total;
  }

  const Sample* find(const std::string& name,
                     const std::map<std::string, std::string>& labels) const {
    for (const Sample& s : samples)
      if (s.name == name && s.labels == labels) return &s;
    return nullptr;
  }

  bool has_family(const std::string& name) const {
    return types.count(name) != 0;
  }
};

namespace detail {

inline bool valid_name(const std::string& s) {
  if (s.empty() ||
      (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_'))
    return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      return false;
  return true;
}

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() > suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// A Prometheus sample value: [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, NaN, +Inf
/// or -Inf, and nothing else (no hex, no padding, no lowercase inf/nan).
inline bool prom_value(const std::string& v, double* out) {
  if (v == "NaN" || v == "+Inf" || v == "-Inf") {
    *out = std::strtod(v.c_str(), nullptr);
    return true;
  }
  std::size_t i = 0;
  auto digits = [&] {
    const std::size_t from = i;
    while (i < v.size() && std::isdigit(static_cast<unsigned char>(v[i]))) ++i;
    return i - from;
  };
  if (i < v.size() && (v[i] == '+' || v[i] == '-')) ++i;
  std::size_t mantissa = digits();
  if (i < v.size() && v[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < v.size() && (v[i] == 'e' || v[i] == 'E')) {
    ++i;
    if (i < v.size() && (v[i] == '+' || v[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  if (i != v.size()) return false;
  *out = std::strtod(v.c_str(), nullptr);
  return true;
}

}  // namespace detail

/// Parses a full exposition, strictly on the subset the runtime emits: name
/// and label syntax, decimal, NaN and ±Inf values (detail::prom_value),
/// TYPE before a family's samples, the counter `_total` suffix, and no
/// duplicate series. Every problem is collected into `errors` with its line
/// number.
inline Metrics parse_prometheus(const std::string& text) {
  Metrics out;
  std::set<std::string> sampled;  // families with a sample already
  std::set<std::string> series;   // name|labels seen
  detail::for_each_line(text, [&](int lineno, const std::string& line) {
    auto err = [&](const std::string& msg) {
      out.errors.push_back("line " + std::to_string(lineno) + ": " + msg);
    };
    if (line.empty()) return;
    if (line[0] == '#') {
      // HELP lines and comments need nothing beyond being comments.
      if (line.rfind("# TYPE ", 0) != 0) return;
      const std::size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) return err("malformed TYPE line");
      const std::string fam = line.substr(7, sp - 7);
      const std::string kind = line.substr(sp + 1);
      if (!detail::valid_name(fam)) err("bad family name '" + fam + "'");
      if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
          kind != "summary" && kind != "untyped")
        err("unknown TYPE kind '" + kind + "'");
      if (out.types.count(fam)) err("duplicate TYPE for '" + fam + "'");
      if (sampled.count(fam)) err("TYPE for '" + fam + "' after its samples");
      if (kind == "counter" && !detail::ends_with(fam, "_total"))
        err("counter '" + fam + "' does not end in _total");
      out.types[fam] = kind;
      return;
    }

    // name[{k="v",...}] value
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string::npos) i = line.size();
    Sample s;
    s.name = line.substr(0, i);
    if (!detail::valid_name(s.name))
      return err("bad metric name '" + s.name + "'");
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string::npos) return err("label without '='");
        const std::string key = line.substr(i, eq - i);
        if (!detail::valid_name(key)) err("bad label key '" + key + "'");
        if (eq + 1 >= line.size() || line[eq + 1] != '"')
          return err("label value not quoted");
        const std::size_t endq = line.find('"', eq + 2);
        if (endq == std::string::npos)
          return err("unterminated label value");
        s.labels[key] = line.substr(eq + 2, endq - (eq + 2));
        i = endq + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) return err("unterminated label set");
      ++i;
    }
    if (i >= line.size() || line[i] != ' ')
      return err("missing value separator");
    const std::string valstr = line.substr(i + 1);
    if (!detail::prom_value(valstr, &s.value))
      return err("bad sample value '" + valstr + "'");

    // A sample's family is its own TYPE'd name or, for the _bucket, _sum
    // and _count series, the histogram it belongs to.
    std::string fam = s.name;
    if (!out.types.count(fam)) {
      for (const char* suffix : {"_bucket", "_sum", "_count"})
        if (detail::ends_with(s.name, suffix))
          fam = s.name.substr(0, s.name.size() - std::string(suffix).size());
      auto it = out.types.find(fam);
      if (it == out.types.end() || it->second != "histogram") {
        err("sample '" + s.name + "' has no preceding TYPE");
        fam = s.name;
      }
    }
    sampled.insert(fam);

    std::string key = s.name;
    for (const auto& kv : s.labels) key += "|" + kv.first + "=" + kv.second;
    if (!series.insert(key).second) err("duplicate series " + key);
    out.samples.push_back(std::move(s));
  });
  return out;
}

// ---------------------------------------------------------------------------
// Profiles: the folded-stack and the JSON report (src/prof/prof.cpp)
// ---------------------------------------------------------------------------

struct Stack {
  std::uint32_t ult = 0;
  std::uint32_t pool = 0;
  std::vector<std::string> frames;  ///< outermost first; may be empty
  std::uint64_t count = 0;
};

/// One profile, read from either export. The folded report's header lines
/// and the JSON report's sections carry the same counters; its stacks are
/// the folded stack lines or, from JSON, one frameless entry per
/// `oncpu.by_ult` row.
struct Profile {
  std::string mode;  ///< off | hz | piggyback
  std::uint64_t sample_hz = 0, max_depth = 0;
  std::uint64_t invocations = 0, recorded = 0, dropped = 0;
  std::uint64_t offcpu_waits = 0, offcpu_dropped = 0;
  std::uint64_t lock_acquires = 0, lock_contended = 0, contention_chains = 0;
  std::vector<Stack> stacks;
  Json json;  ///< the JSON report's tree; null when read from folded text
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }

  /// Samples over every stack, or over one ULT's stacks.
  std::uint64_t samples(std::int64_t ult = -1) const {
    std::uint64_t total = 0;
    for (const Stack& s : stacks)
      if (ult < 0 || s.ult == ult) total += s.count;
    return total;
  }
};

/// Every counter of a profile: its folded header, its JSON section and key,
/// and the metrics family the same run publishes it as (null if none).
struct ProfileCounter {
  const char* header;
  const char* section;
  const char* key;
  std::uint64_t Profile::*field;
  const char* family;
};

inline constexpr ProfileCounter kProfileCounters[] = {
    {"sample_hz", "prof", "sample_hz", &Profile::sample_hz, nullptr},
    {"max_depth", "prof", "max_depth", &Profile::max_depth, nullptr},
    {"invocations", "oncpu", "invocations", &Profile::invocations,
     "lpt_prof_sample_invocations_total"},
    {"recorded", "oncpu", "recorded", &Profile::recorded,
     "lpt_prof_samples_recorded_total"},
    {"dropped", "oncpu", "dropped", &Profile::dropped,
     "lpt_prof_samples_dropped_total"},
    {"offcpu_waits", "offcpu", "waits", &Profile::offcpu_waits,
     "lpt_prof_offcpu_waits_total"},
    {"offcpu_dropped", "offcpu", "dropped", &Profile::offcpu_dropped, nullptr},
    {"lock_acquires", "locks", "acquires", &Profile::lock_acquires,
     "lpt_prof_lock_acquires_total"},
    {"lock_contended", "locks", "contended", &Profile::lock_contended,
     "lpt_prof_lock_contended_total"},
    {"contention_chains", "locks", "chains", &Profile::contention_chains,
     "lpt_prof_contention_chains_total"},
};

namespace detail {

template <class T>
bool parse_uint(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, *out);
  return !s.empty() && r.ec == std::errc() && r.ptr == end;
}

//   # lpt profile v1
//   # <key>: <value>      one per counter, and "# mode: <mode>"
//   ult<id>;p<pool>[;frame]... <count>
inline void read_folded(const std::string& text, Profile* p) {
  std::set<std::string> headers;
  bool magic = false;
  detail::for_each_line(text, [&](int lineno, const std::string& line) {
    auto err = [&](const std::string& msg) {
      p->errors.push_back("line " + std::to_string(lineno) + ": " + msg);
    };
    if (lineno == 1) {
      magic = line == "# lpt profile v1";
      if (!magic) err("bad magic '" + line + "' (want '# lpt profile v1')");
      return;
    }
    if (line.empty()) return;
    if (line[0] == '#') {
      const std::size_t colon = line.find(": ");
      if (line.compare(0, 2, "# ") != 0 || colon == std::string::npos)
        return err("malformed header '" + line + "'");
      const std::string key = line.substr(2, colon - 2);
      const std::string val = line.substr(colon + 2);
      if (!headers.insert(key).second) err("duplicate header '" + key + "'");
      if (!p->stacks.empty()) err("header '" + key + "' after stack lines");
      if (key == "mode") {
        p->mode = val;
        return;
      }
      for (const ProfileCounter& c : kProfileCounters)
        if (key == c.header) {
          if (!parse_uint(val, &(p->*c.field)))
            err("header '" + key + "' is not a number: '" + val + "'");
          return;
        }
      return err("unknown header '" + key + "'");
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0)
      return err("stack line without count");
    Stack s;
    if (!parse_uint(line.substr(sp + 1), &s.count) || s.count == 0)
      return err("bad stack count '" + line.substr(sp + 1) + "'");
    std::vector<std::string> parts;
    for (std::size_t start = 0; start <= sp;) {
      const std::size_t semi = std::min(line.find(';', start), sp);
      parts.push_back(line.substr(start, semi - start));
      start = semi + 1;
    }
    if (parts.size() < 2 || parts[0].rfind("ult", 0) != 0 ||
        parts[1].rfind("p", 0) != 0 ||
        !parse_uint(parts[0].substr(3), &s.ult) ||
        !parse_uint(parts[1].substr(1), &s.pool))
      return err("stack root is not 'ult<id>;p<pool>': '" +
                 line.substr(0, sp) + "'");
    for (std::size_t i = 2; i < parts.size(); ++i) {
      if (parts[i].empty()) return err("empty frame in '" + line + "'");
      s.frames.push_back(parts[i]);
    }
    p->stacks.push_back(std::move(s));
  });
  if (!magic) {
    if (text.empty()) p->errors.push_back("empty profile");
    return;
  }
  if (!headers.count("mode")) p->errors.push_back("missing header 'mode'");
  for (const ProfileCounter& c : kProfileCounters)
    if (!headers.count(c.header))
      p->errors.push_back(std::string("missing header '") + c.header + "'");
}

inline void read_json_profile(const std::string& text, Profile* p) {
  std::string why;
  if (!parse_json(text, &p->json, &why)) return p->errors.push_back(why);
  std::map<std::string, const Json*> section;
  for (const char* name : {"prof", "oncpu", "offcpu", "locks"}) {
    const Json* s = p->json.get(name);
    if (s == nullptr || s->kind != Json::kObject)
      return p->errors.push_back(std::string("missing section '") + name +
                                 "'");
    section[name] = s;
  }
  for (const ProfileCounter& c : kProfileCounters)
    if (!section[c.section]->int_at(c.key, &(p->*c.field)))
      p->errors.push_back(std::string(c.section) + "." + c.key +
                          " is missing or not an integer");
  const Json* mode = section["prof"]->get("mode");
  if (mode != nullptr && mode->kind == Json::kString) p->mode = mode->str;

  static const std::vector<Json> kNone;
  auto rows = [&](const char* in, const char* key) -> const std::vector<Json>& {
    const Json* a = section[in]->get(key);
    if (a != nullptr && a->kind == Json::kArray) return a->array;
    p->errors.push_back(std::string(in) + "." + key + " is not an array");
    return kNone;
  };
  for (const Json& u : rows("oncpu", "by_ult")) {
    Stack s;
    if (!u.int_at("ult", &s.ult) || !u.int_at("pool", &s.pool) ||
        !u.int_at("samples", &s.count))
      return p->errors.push_back("oncpu.by_ult row without ult/pool/samples");
    p->stacks.push_back(std::move(s));
  }
  std::uint64_t site_sum = 0;
  for (const Json& s : rows("offcpu", "sites")) {
    const Json* kind = s.get("kind");
    std::uint64_t count = 0;
    if (kind == nullptr || kind->kind != Json::kString || kind->str.empty() ||
        !s.int_at("count", &count))
      return p->errors.push_back("offcpu site without a kind or count");
    site_sum += count;
  }
  // `waits` counts every recorded wait, the site-table-full drops included,
  // and those never land in a row.
  if (p->errors.empty() && site_sum != p->offcpu_waits - p->offcpu_dropped)
    p->errors.push_back("offcpu site counts do not sum to waits - dropped");
  for (const Json& row : rows("locks", "table"))
    if (row.num_or("contended", 0) > row.num_or("acquires", 0))
      return p->errors.push_back("locks.table row: contended > acquires");
}

}  // namespace detail

/// Reads a profile export, JSON when it opens with '{' and folded text
/// otherwise, then checks the accounting both formats promise (prof.hpp):
/// invocations == recorded + dropped, stack samples <= recorded (equal once
/// the runtime quiesced; mid-run a reserved but uncommitted slot is
/// skipped), contended <= acquires and chains <= contended.
inline Profile read_profile(const std::string& text) {
  Profile p;
  if (text.rfind("{", 0) == 0)
    detail::read_json_profile(text, &p);
  else
    detail::read_folded(text, &p);
  if (!p.ok()) return p;
  auto err = [&](const std::string& msg) { p.errors.push_back(msg); };
  if (p.mode != "off" && p.mode != "hz" && p.mode != "piggyback")
    err("bad mode '" + p.mode + "'");
  if (p.mode == "hz" && p.sample_hz == 0) err("mode 'hz' with sample_hz 0");
  if (p.mode == "piggyback" && p.sample_hz != 0)
    err("mode 'piggyback' with sample_hz != 0");
  if (p.invocations != p.recorded + p.dropped)
    err("invocations (" + std::to_string(p.invocations) + ") != recorded (" +
        std::to_string(p.recorded) + ") + dropped (" +
        std::to_string(p.dropped) + ")");
  if (p.samples() > p.recorded)
    err("stack samples sum to " + std::to_string(p.samples()) +
        " > recorded " + std::to_string(p.recorded));
  if (p.lock_contended > p.lock_acquires) err("lock_contended > lock_acquires");
  if (p.contention_chains > p.lock_contended)
    err("contention_chains > lock_contended");
  for (const Stack& s : p.stacks)
    if (s.frames.size() > p.max_depth) {
      err("a stack of ult" + std::to_string(s.ult) + " has " +
          std::to_string(s.frames.size()) + " frames > max_depth " +
          std::to_string(p.max_depth));
      break;  // the rest would repeat it
    }
  return p;
}

// ---------------------------------------------------------------------------
// Causal event log: one {"ts","type","ult","worker","arg0","arg1"} object
// per line, sorted by timestamp (trace::Collector::write_events_jsonl)
// ---------------------------------------------------------------------------

struct Event {
  std::int64_t ts = 0;
  trace::EventType type = trace::EventType::kNone;
  std::uint64_t ult = 0;
  std::int64_t worker = -1;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

struct Events {
  std::vector<Event> events;
  std::vector<std::string> errors;
  bool ok() const { return errors.empty(); }
};

/// Reads an event log: every line must be one JSON object with all six
/// fields, a type the tracer writes (trace::event_name), and a timestamp no
/// earlier than the line before it.
inline Events read_events(const std::string& text) {
  std::map<std::string, trace::EventType> types;
  for (int t = 1; t < static_cast<int>(trace::EventType::kCount); ++t)
    types[trace::event_name(static_cast<trace::EventType>(t))] =
        static_cast<trace::EventType>(t);
  Events out;
  detail::for_each_line(text, [&](int lineno, const std::string& line) {
    auto err = [&](const std::string& msg) {
      out.errors.push_back("line " + std::to_string(lineno) + ": " + msg);
    };
    Json j;
    std::string why;
    if (!parse_json(line, &j, &why)) return err(why);
    Event e;
    if (!j.int_at("ts", &e.ts) || !j.int_at("ult", &e.ult) ||
        !j.int_at("worker", &e.worker) || !j.int_at("arg0", &e.arg0) ||
        !j.int_at("arg1", &e.arg1))
      return err("missing or non-integer ts/ult/worker/arg0/arg1");
    const Json* type = j.get("type");
    const std::string name =
        type != nullptr && type->kind == Json::kString ? type->str : "";
    const auto it = types.find(name);
    if (it == types.end()) return err("unknown type '" + name + "'");
    e.type = it->second;
    if (!out.events.empty() && e.ts < out.events.back().ts)
      err("timestamps not sorted (" + std::to_string(e.ts) + " after " +
          std::to_string(out.events.back().ts) + ")");
    out.events.push_back(e);
  });
  if (out.events.empty() && out.ok()) out.errors.push_back("no events");
  return out;
}

}  // namespace lpt::telemetry
