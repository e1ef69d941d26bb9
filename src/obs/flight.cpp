#include "obs/flight.h"

#include "common/warn.h"

#include <atomic>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "obs/tsc.h"

namespace pto::obs {

// ---------------------------------------------------------------------------
// FlightRing
// ---------------------------------------------------------------------------

FlightRing::FlightRing(std::uint32_t capacity) {
  std::uint32_t cap = capacity < 64 ? 64 : std::bit_ceil(capacity);
  recs_ = new FlightRec[cap]();
  mask_ = cap - 1;
}

FlightRing::~FlightRing() { delete[] recs_; }

std::uint32_t FlightRing::size() const {
  return head_ < capacity() ? static_cast<std::uint32_t>(head_) : capacity();
}

const FlightRec& FlightRing::at(std::uint32_t i) const {
  const std::uint64_t first = head_ - size();
  return recs_[(first + i) & mask_];
}

// ---------------------------------------------------------------------------
// Process-wide recorder
// ---------------------------------------------------------------------------

namespace {

constexpr unsigned kMaxRings = 256;   // live native threads with rings
constexpr unsigned kMaxSites = 1024;  // telemetry sites in the name table

std::uint32_t env_capacity() {
  const char* v = std::getenv("PTO_FLIGHT");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  unsigned long n = std::strtoul(v, &end, 10);
  if (end == v || *end != '\0' || n == 0) {
    warn_once("env.PTO_FLIGHT",
              "ignoring invalid PTO_FLIGHT='%s' (want a positive event count)",
              v);
    return 0;
  }
  return static_cast<std::uint32_t>(n);
}

/// Fixed arrays with atomic publication counters: the dump path (which may
/// run inside a fatal-signal handler) walks them without locking.
struct FlightState {
  std::uint32_t ring_capacity = 0;
  std::atomic<unsigned> ring_count{0};
  FlightRing* rings[kMaxRings] = {};
  std::atomic<unsigned> site_count{0};
  const char* site_names[kMaxSites] = {};
};

FlightState g_state;

void install_dump_handlers();

std::uint32_t init_capacity() {
  const std::uint32_t cap = env_capacity();
  if (cap != 0) {
    // Calibrate now: the signal-time dump must not spin for 10 ms.
    ticks_per_sec();
    install_dump_handlers();
  }
  return cap;
}

FlightRing* make_thread_ring() {
  auto* ring = new FlightRing(g_state.ring_capacity);
  unsigned idx = g_state.ring_count.load(std::memory_order_relaxed);
  for (;;) {
    if (idx >= kMaxRings) {
      warn_once("flight.ring_table_full",
                "PTO_FLIGHT ring table full (%u threads); further threads "
                "are not recorded",
                kMaxRings);
      delete ring;
      return nullptr;
    }
    if (g_state.ring_count.compare_exchange_weak(
            idx, idx + 1, std::memory_order_acq_rel)) {
      break;
    }
  }
  g_state.rings[idx] = ring;  // published by the ring_count acq/rel above
  return ring;
}

thread_local FlightRing* tls_ring = nullptr;
thread_local bool tls_ring_failed = false;

// -- dump ------------------------------------------------------------------

/// write(2) the whole buffer; best effort, no retry bookkeeping beyond EINTR.
void write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void put_u32(int fd, std::uint32_t v) { write_all(fd, &v, sizeof v); }
void put_u64(int fd, std::uint64_t v) { write_all(fd, &v, sizeof v); }

std::atomic<bool> g_dumped{false};

void dump_to_fd(int fd) {
  write_all(fd, "PTOFLT01", 8);
  put_u32(fd, 1);  // version
  put_u64(fd, ticks_per_sec());
  const unsigned nsites = g_state.site_count.load(std::memory_order_acquire);
  put_u32(fd, nsites);
  for (unsigned i = 0; i < nsites; ++i) {
    const char* name = g_state.site_names[i];
    if (name == nullptr) name = "";
    const std::uint32_t len = static_cast<std::uint32_t>(std::strlen(name));
    put_u32(fd, len);
    write_all(fd, name, len);
  }
  const unsigned nrings = g_state.ring_count.load(std::memory_order_acquire);
  put_u32(fd, nrings);
  for (unsigned i = 0; i < nrings; ++i) {
    const FlightRing* ring = g_state.rings[i];
    put_u32(fd, i);
    if (ring == nullptr) {  // slot claimed but not yet published
      put_u64(fd, 0);
      put_u32(fd, 0);
      continue;
    }
    put_u64(fd, ring->total_recorded());
    const std::uint32_t n = ring->size();
    put_u32(fd, n);
    // Oldest-first; the ring is contiguous so at most two spans.
    const std::uint64_t first = ring->total_recorded() - n;
    const std::uint32_t start =
        static_cast<std::uint32_t>(first & (ring->capacity() - 1));
    const std::uint32_t tail = ring->capacity() - start;
    const FlightRec* recs = ring->storage();
    if (n <= tail) {
      write_all(fd, recs + start, n * sizeof(FlightRec));
    } else {
      write_all(fd, recs + start, tail * sizeof(FlightRec));
      write_all(fd, recs, (n - tail) * sizeof(FlightRec));
    }
  }
}

void handle_fatal(int sig) {
  flight_dump();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_dump_handlers() {
  std::atexit([] { flight_dump(); });
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, handle_fatal);
  }
}

const bool g_flight_env = [] {
  g_state.ring_capacity = init_capacity();
  if (g_state.ring_capacity != 0) {
    telemetry::set_tap(telemetry::kTapFlight, true);
  }
  return true;
}();

}  // namespace

void flight_record(std::uint16_t site, std::uint8_t event,
                   std::uint32_t arg) {
  FlightRing* ring = tls_ring;
  if (ring == nullptr) {
    if (tls_ring_failed) return;
    ring = tls_ring = make_thread_ring();
    if (ring == nullptr) {
      tls_ring_failed = true;
      return;
    }
  }
  ring->push(now_ticks(), site, event, arg);
}

void flight_register_site(unsigned id, const char* name) {
  if (id >= kMaxSites) return;
  g_state.site_names[id] = name;
  // Publish up to and including `id`; ids arrive in order from the registry
  // (intern assigns them sequentially under its lock).
  unsigned cur = g_state.site_count.load(std::memory_order_relaxed);
  while (cur < id + 1 && !g_state.site_count.compare_exchange_weak(
                             cur, id + 1, std::memory_order_release)) {
  }
}

void flight_dump() {
  if (!flight_on()) return;
  if (g_dumped.exchange(true)) return;  // once: atexit after a fatal signal
  const char* path = std::getenv("PTO_FLIGHT_OUT");
  if (path == nullptr || *path == '\0') path = "pto_flight.bin";
  int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  dump_to_fd(fd);
  ::close(fd);
}

}  // namespace pto::obs
