// Environment-knob parsing shared by every LPT_* integer knob: forgiving but
// loud — a malformed value is reported to stderr and ignored, so the
// caller's fallback stands.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace lpt {

/// Parse a positive decimal integer in [1, cap]. Rejects trailing junk,
/// zero, negatives and out-of-range values.
inline bool parse_count(const char* v, long long cap, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || x <= 0 || x > cap) return false;
  *out = x;
  return true;
}

/// Overlay integer knob `name` onto *out when it is set: a value that fails
/// parse_count() is reported ("lpt: ignoring malformed ...") and leaves *out
/// untouched.
inline void env_count(const char* name, long long cap, long long* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return;
  long long x = 0;
  if (!parse_count(v, cap, &x)) {
    std::fprintf(stderr, "lpt: ignoring malformed %s='%s'\n", name, v);
    return;
  }
  *out = x;
}

}  // namespace lpt
