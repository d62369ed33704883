#include "common/sys.hpp"

#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace lpt::sys {

namespace {

enum class Mode : int { kOff = 0, kNth, kFirst, kEvery, kProb };

/// Per-site plan + counters. Plan fields are individually atomic so the
/// signal-handler check path is race-free; cross-field coherence during a
/// reconfigure is not needed (configuration happens between runs/phases).
struct SiteState {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> failed{0};

  std::atomic<int> mode{static_cast<int>(Mode::kOff)};
  std::atomic<std::uint64_t> arg{0};        ///< N for nth/first/every
  std::atomic<std::uint64_t> after{0};      ///< calls to spare up front
  std::atomic<std::uint64_t> max_inject{0}; ///< 0 = unlimited
  /// Snapshot of `calls`/`injected` when the plan was armed: nth/first/after
  /// and max= count from configure time, not process start, so re-arming a
  /// plan mid-run behaves the same as arming it fresh.
  std::atomic<std::uint64_t> calls_base{0};
  std::atomic<std::uint64_t> injected_base{0};
  std::atomic<std::uint32_t> prob_scaled{0};///< P * 2^24
  std::atomic<std::uint64_t> prng{0};       ///< splitmix64 cursor
  std::atomic<int> err{EAGAIN};
};

SiteState g_sites[static_cast<int>(Site::kCount)];
std::atomic<std::uint64_t> g_total_injected{0};

SiteState& site(Site s) { return g_sites[static_cast<int>(s)]; }

std::uint64_t splitmix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// The async-signal-safe injection decision: returns the errno to inject, or
/// 0 to let the real call proceed. Atomics only.
int maybe_fail(Site s) {
  SiteState& st = site(s);
  const std::uint64_t total =
      st.calls.fetch_add(1, std::memory_order_relaxed) + 1;
  const Mode mode = static_cast<Mode>(st.mode.load(std::memory_order_acquire));
  if (mode == Mode::kOff) return 0;
  // Call index since the plan was armed (1-based).
  const std::uint64_t base = st.calls_base.load(std::memory_order_relaxed);
  if (total <= base) return 0;
  const std::uint64_t n = total - base;
  const std::uint64_t after = st.after.load(std::memory_order_relaxed);
  if (n <= after) return 0;
  const std::uint64_t cap = st.max_inject.load(std::memory_order_relaxed);
  if (cap != 0 &&
      st.injected.load(std::memory_order_relaxed) -
              st.injected_base.load(std::memory_order_relaxed) >=
          cap)
    return 0;

  const std::uint64_t k = n - after;  // 1-based eligible-call index
  bool hit = false;
  switch (mode) {
    case Mode::kOff:
      break;
    case Mode::kNth:
      hit = k == st.arg.load(std::memory_order_relaxed);
      break;
    case Mode::kFirst:
      hit = k <= st.arg.load(std::memory_order_relaxed);
      break;
    case Mode::kEvery: {
      const std::uint64_t e = st.arg.load(std::memory_order_relaxed);
      hit = e != 0 && k % e == 0;
      break;
    }
    case Mode::kProb: {
      // fetch_add hands every caller (including nested signal handlers) a
      // private cursor; splitmix64 turns it into the draw. Deterministic for
      // a single-threaded site, a fixed value *set* under concurrency.
      const std::uint64_t x = splitmix64(
          st.prng.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed));
      hit = static_cast<std::uint32_t>(x >> 40) <
            st.prob_scaled.load(std::memory_order_relaxed);
      break;
    }
  }
  if (!hit) return 0;
  st.injected.fetch_add(1, std::memory_order_relaxed);
  g_total_injected.fetch_add(1, std::memory_order_relaxed);
  return st.err.load(std::memory_order_relaxed);
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(x);
  return true;
}

bool parse_errno(const std::string& v, int* out) {
  static const struct { const char* name; int value; } kNames[] = {
      {"EAGAIN", EAGAIN}, {"ENOMEM", ENOMEM}, {"EPERM", EPERM},
      {"EINVAL", EINVAL}, {"ENFILE", ENFILE}, {"ENOSPC", ENOSPC},
      {"EINTR", EINTR},   {"ENOSYS", ENOSYS},
  };
  for (const auto& e : kNames)
    if (v == e.name) {
      *out = e.value;
      return true;
    }
  std::uint64_t x;
  if (parse_u64(v, &x) && x > 0 && x < 4096) {
    *out = static_cast<int>(x);
    return true;
  }
  return false;
}

bool parse_site(const std::string& v, Site* out) {
  for (int i = 0; i < static_cast<int>(Site::kCount); ++i)
    if (v == site_name(static_cast<Site>(i))) {
      *out = static_cast<Site>(i);
      return true;
    }
  return false;
}

int default_errno(Site s) {
  if (s == Site::kMseal) return ENOSYS;  // as on a kernel without mseal(2)
  return s == Site::kMmap || s == Site::kMprotect ? ENOMEM : EAGAIN;
}

/// One clause's parsed plan, staged before being published to a SiteState.
struct Plan {
  Mode mode = Mode::kOff;
  std::uint64_t arg = 0;
  std::uint64_t after = 0;
  std::uint64_t max_inject = 0;
  double prob = 0.0;
  std::uint64_t seed = 1;
  int err = 0;  // 0 = site default
};

bool parse_clause(const std::string& clause, Site* s, Plan* p,
                  std::string* error) {
  const std::size_t colon = clause.find(':');
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = "LPT_FAULT: " + msg + " in '" + clause + "'";
    return false;
  };
  if (colon == std::string::npos) return fail("missing ':'");
  if (!parse_site(clause.substr(0, colon), s)) return fail("unknown site");

  std::size_t pos = colon + 1;
  bool have_mode = false;
  while (pos <= clause.size()) {
    std::size_t comma = clause.find(',', pos);
    if (comma == std::string::npos) comma = clause.size();
    const std::string kv = clause.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) return fail("missing '=' in '" + kv + "'");
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);

    if (key == "nth" || key == "first" || key == "every") {
      if (have_mode) return fail("multiple modes");
      if (!parse_u64(val, &p->arg) || p->arg == 0) return fail("bad " + key);
      p->mode = key == "nth" ? Mode::kNth
                             : key == "first" ? Mode::kFirst : Mode::kEvery;
      have_mode = true;
    } else if (key == "prob") {
      if (have_mode) return fail("multiple modes");
      char* end = nullptr;
      p->prob = std::strtod(val.c_str(), &end);
      if (end == nullptr || *end != '\0' || p->prob < 0.0 || p->prob > 1.0)
        return fail("bad prob");
      p->mode = Mode::kProb;
      have_mode = true;
    } else if (key == "seed") {
      if (!parse_u64(val, &p->seed)) return fail("bad seed");
    } else if (key == "after") {
      if (!parse_u64(val, &p->after)) return fail("bad after");
    } else if (key == "max") {
      if (!parse_u64(val, &p->max_inject)) return fail("bad max");
    } else if (key == "errno") {
      if (!parse_errno(val, &p->err)) return fail("bad errno");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!have_mode) return fail("no mode (nth/first/every/prob)");
  return true;
}

void publish(Site s, const Plan& p) {
  SiteState& st = site(s);
  // Disarm while the remaining fields are (re)written; readers that race a
  // reconfigure see either the old plan or off, never a half plan that can
  // fire with stale parameters.
  st.mode.store(static_cast<int>(Mode::kOff), std::memory_order_release);
  st.arg.store(p.arg, std::memory_order_relaxed);
  st.after.store(p.after, std::memory_order_relaxed);
  st.max_inject.store(p.max_inject, std::memory_order_relaxed);
  st.calls_base.store(st.calls.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  st.injected_base.store(st.injected.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  st.prob_scaled.store(
      static_cast<std::uint32_t>(p.prob * static_cast<double>(1u << 24)),
      std::memory_order_relaxed);
  st.prng.store(p.seed * 0x9E3779B97F4A7C15ull, std::memory_order_relaxed);
  st.err.store(p.err != 0 ? p.err : default_errno(s), std::memory_order_relaxed);
  st.mode.store(static_cast<int>(p.mode), std::memory_order_release);
}

void disarm_all() {
  for (auto& st : g_sites)
    st.mode.store(static_cast<int>(Mode::kOff), std::memory_order_release);
}

}  // namespace

const char* site_name(Site s) {
  switch (s) {
    case Site::kPthreadCreate: return "pthread_create";
    case Site::kTimerCreate: return "timer_create";
    case Site::kTimerSettime: return "timer_settime";
    case Site::kMmap: return "mmap";
    case Site::kPthreadSigqueue: return "pthread_sigqueue";
    case Site::kMprotect: return "mprotect";
    case Site::kRead: return "read";
    case Site::kWrite: return "write";
    case Site::kPipe2: return "pipe2";
    case Site::kEventfd: return "eventfd";
    case Site::kPoll: return "poll";
    case Site::kAccept: return "accept";
    case Site::kConnect: return "connect";
    case Site::kMseal: return "mseal";
    case Site::kCount: break;
  }
  return "unknown";
}

bool configure_faults(const std::string& spec, std::string* error) {
  // Parse everything first so a malformed spec leaves the armed plan intact.
  Site sites[static_cast<int>(Site::kCount)];
  Plan plans[static_cast<int>(Site::kCount)];
  int n = 0;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string clause = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (clause.empty()) continue;
    if (n >= static_cast<int>(Site::kCount)) {
      if (error != nullptr) *error = "LPT_FAULT: too many clauses";
      return false;
    }
    if (!parse_clause(clause, &sites[n], &plans[n], error)) return false;
    ++n;
  }

  disarm_all();
  for (int i = 0; i < n; ++i) publish(sites[i], plans[i]);
  return true;
}

void reset_faults() {
  disarm_all();
  for (auto& st : g_sites) {
    st.calls.store(0, std::memory_order_relaxed);
    st.injected.store(0, std::memory_order_relaxed);
    st.failed.store(0, std::memory_order_relaxed);
    st.calls_base.store(0, std::memory_order_relaxed);
    st.injected_base.store(0, std::memory_order_relaxed);
  }
  g_total_injected.store(0, std::memory_order_relaxed);
}

void load_env_faults() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* spec = std::getenv("LPT_FAULT");
    if (spec == nullptr || spec[0] == '\0') return;
    std::string error;
    if (!configure_faults(spec, &error))
      std::fprintf(stderr, "lpt: ignoring malformed %s\n", error.c_str());
  });
}

SiteCounters counters(Site s) {
  const SiteState& st = site(s);
  SiteCounters c;
  c.calls = st.calls.load(std::memory_order_relaxed);
  c.injected = st.injected.load(std::memory_order_relaxed);
  c.failed = st.failed.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t total_injected() {
  return g_total_injected.load(std::memory_order_relaxed);
}

// --- wrappers --------------------------------------------------------------

int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                   void* (*start_routine)(void*), void* arg) {
  if (const int e = maybe_fail(Site::kPthreadCreate)) return e;
  const int rc = ::pthread_create(thread, attr, start_routine, arg);
  if (rc != 0)
    site(Site::kPthreadCreate).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int timer_create(clockid_t clockid, struct sigevent* sevp, timer_t* timerid) {
  if (const int e = maybe_fail(Site::kTimerCreate)) {
    errno = e;
    return -1;
  }
  const int rc = ::timer_create(clockid, sevp, timerid);
  if (rc != 0)
    site(Site::kTimerCreate).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int timer_settime(timer_t timerid, int flags, const struct itimerspec* new_value,
                  struct itimerspec* old_value) {
  if (const int e = maybe_fail(Site::kTimerSettime)) {
    errno = e;
    return -1;
  }
  const int rc = ::timer_settime(timerid, flags, new_value, old_value);
  if (rc != 0)
    site(Site::kTimerSettime).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

void* mmap(void* addr, std::size_t length, int prot, int flags, int fd,
           off_t offset) {
  if (const int e = maybe_fail(Site::kMmap)) {
    errno = e;
    return MAP_FAILED;
  }
  void* p = ::mmap(addr, length, prot, flags, fd, offset);
  if (p == MAP_FAILED)
    site(Site::kMmap).failed.fetch_add(1, std::memory_order_relaxed);
  return p;
}

int pthread_sigqueue(pthread_t thread, int sig, const union sigval value) {
  if (const int e = maybe_fail(Site::kPthreadSigqueue)) return e;
  const int rc = ::pthread_sigqueue(thread, sig, value);
  if (rc != 0)
    site(Site::kPthreadSigqueue).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int mprotect(void* addr, std::size_t len, int prot) {
  if (const int e = maybe_fail(Site::kMprotect)) {
    errno = e;
    return -1;
  }
  const int rc = ::mprotect(addr, len, prot);
  if (rc != 0)
    site(Site::kMprotect).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int mseal(void* addr, std::size_t len) {
  if (const int e = maybe_fail(Site::kMseal)) {
    errno = e;
    return -1;
  }
#if defined(__NR_mseal)
  const int rc = static_cast<int>(::syscall(__NR_mseal, addr, len, 0UL));
#elif defined(__x86_64__) || defined(__aarch64__)
  // Headers older than the syscall; the number is the same on both ABIs.
  const int rc = static_cast<int>(::syscall(462, addr, len, 0UL));
#else
  (void)addr;
  (void)len;
  errno = ENOSYS;
  const int rc = -1;
#endif
  if (rc != 0) site(Site::kMseal).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

ssize_t read(int fd, void* buf, std::size_t count) {
  if (const int e = maybe_fail(Site::kRead)) {
    errno = e;
    return -1;
  }
  const ssize_t rc = ::read(fd, buf, count);
  if (rc < 0) site(Site::kRead).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

ssize_t write(int fd, const void* buf, std::size_t count) {
  if (const int e = maybe_fail(Site::kWrite)) {
    errno = e;
    return -1;
  }
  const ssize_t rc = ::write(fd, buf, count);
  if (rc < 0) site(Site::kWrite).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int pipe2(int pipefd[2], int flags) {
  if (const int e = maybe_fail(Site::kPipe2)) {
    errno = e;
    return -1;
  }
  const int rc = ::pipe2(pipefd, flags);
  if (rc != 0)
    site(Site::kPipe2).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int eventfd(unsigned int initval, int flags) {
  if (const int e = maybe_fail(Site::kEventfd)) {
    errno = e;
    return -1;
  }
  const int rc = ::eventfd(initval, flags);
  if (rc < 0)
    site(Site::kEventfd).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int poll(struct pollfd* fds, nfds_t nfds, int timeout) {
  if (const int e = maybe_fail(Site::kPoll)) {
    errno = e;
    return -1;
  }
  const int rc = ::poll(fds, nfds, timeout);
  if (rc < 0) site(Site::kPoll).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) {
  if (const int e = maybe_fail(Site::kAccept)) {
    errno = e;
    return -1;
  }
  const int rc = ::accept(sockfd, addr, addrlen);
  if (rc < 0)
    site(Site::kAccept).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen) {
  if (const int e = maybe_fail(Site::kConnect)) {
    errno = e;
    return -1;
  }
  const int rc = ::connect(sockfd, addr, addrlen);
  if (rc != 0)
    site(Site::kConnect).failed.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

}  // namespace lpt::sys
