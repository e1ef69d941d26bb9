#include "obs/flight.h"

#include <bit>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "common/env.h"
#include "obs/tsc.h"
#include "telemetry/registry.h"

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

/// Ring capacity (0 = disarmed) and dump path, resolved once at static init:
/// the signal-time dump reads neither the environment nor the heap.
std::uint32_t g_capacity = 0;
const char* g_out_path = "pto_flight.bin";

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
  const telemetry::Registry& reg = telemetry::Registry::instance();
  const unsigned nsites = reg.site_count();
  put_u32(fd, nsites);
  for (unsigned i = 0; i < nsites; ++i) {
    const std::string& name = reg.site(i).name();
    put_u32(fd, static_cast<std::uint32_t>(name.size()));
    write_all(fd, name.data(), name.size());
  }
  // Rings only ever appear (a slot's ring is never freed), so the second
  // pass finds at least the rings the first one counted.
  std::uint32_t nrings = 0;
  for (unsigned slot = 0; slot < kMaxThreads; ++slot) {
    if (telemetry::slot_flight_ring(slot).load(std::memory_order_acquire)) {
      ++nrings;
    }
  }
  put_u32(fd, nrings);
  for (unsigned slot = 0; slot < kMaxThreads && nrings > 0; ++slot) {
    const FlightRing* ring =
        telemetry::slot_flight_ring(slot).load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    --nrings;
    put_u32(fd, slot);
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

const bool g_flight_env = [] {
  g_capacity = static_cast<std::uint32_t>(
      env::u64("PTO_FLIGHT", 0, 1, std::uint32_t{1} << 31));
  if (g_capacity == 0) return false;
  if (const char* v = env::str("PTO_FLIGHT_OUT")) g_out_path = v;
  // Calibrate now: the signal-time dump must not spin for 10 ms.
  ticks_per_sec();
  std::atexit([] { flight_dump(); });
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, handle_fatal);
  }
  telemetry::set_tap(telemetry::kTapFlight, true);
  return true;
}();

}  // namespace

void flight_record(std::atomic<FlightRing*>& ring, std::uint16_t site,
                   std::uint8_t event, std::uint32_t arg) {
  FlightRing* r = ring.load(std::memory_order_relaxed);
  if (PTO_UNLIKELY(r == nullptr)) {
    r = new FlightRing(g_capacity);
    ring.store(r, std::memory_order_release);
  }
  r->push(now_ticks(), site, event, arg);
}

void flight_dump() {
  if (!flight_on()) return;
  if (g_dumped.exchange(true)) return;  // once: atexit after a fatal signal
  const int fd = ::open(g_out_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    static const char kMsg[] =
        "[pto] warning: cannot open PTO_FLIGHT_OUT; flight recording lost\n";
    write_all(2, kMsg, sizeof kMsg - 1);
    return;
  }
  dump_to_fd(fd);
  ::close(fd);
}

}  // namespace pto::obs
