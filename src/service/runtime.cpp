#include "service/runtime.h"

#include <algorithm>
#include <atomic>

#include "common/warn.h"
#include "htm/htm.h"
#include "obs/tsc.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pto::service {

void Runtime::pin_to_cpu(unsigned tid) {
#if defined(__linux__)
  // Enumerate the CPUs this process may run on (a cgroup/taskset-restricted
  // mask is common on CI runners) and pin round-robin over that set, not
  // over raw CPU numbers that may be outside it.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    warn_once("service.pin", "sched_getaffinity failed; running unpinned");
    return;
  }
  const int navail = CPU_COUNT(&allowed);
  if (navail <= 0) {
    warn_once("service.pin", "empty CPU affinity mask; running unpinned");
    return;
  }
  int want = static_cast<int>(tid) % navail;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (want-- == 0) {
      cpu = c;
      break;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0) {
    warn_once("service.pin", "pthread_setaffinity_np failed; running unpinned");
  }
#else
  (void)tid;
  warn_once("service.pin", "no CPU affinity API on this platform; unpinned");
#endif
}

unsigned Runtime::allowed_cpus() {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
      CPU_COUNT(&allowed) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&allowed));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

Runtime::Runtime(RuntimeOptions opts) : opts_(opts) {
  // Probe the HTM backend here, so the probe's cost (an environment read
  // and, on a TSX CPU, up to 16 probe transactions) lands outside the
  // sections run() measures. Racing first calls would be safe (htm.h).
  (void)htm::backend();
  workers_.reserve(opts_.threads);
  for (unsigned t = 0; t < opts_.threads; ++t) {
    workers_.emplace_back([this, t] { worker(t); });
  }
}

Runtime::~Runtime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& th : workers_) th.join();
}

void Runtime::worker(unsigned tid) {
  if (opts_.pin) pin_to_cpu(tid);
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      ++armed_;
    }
    done_cv_.notify_all();  // run() counts armed workers
    // Tight start edge: every worker leaves this spin in the same release.
    while (go_.load(std::memory_order_acquire) != seen) {
    }
    (*body)(tid);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --pending_;
    }
    done_cv_.notify_all();
  }
}

std::uint64_t Runtime::run(const std::function<void(unsigned)>& body) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    body_ = &body;
    armed_ = 0;
    pending_ = opts_.threads;
    ++generation_;
  }
  cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return armed_ == opts_.threads; });
  }
  const std::uint64_t t0 = obs::steady_ns();
  go_.store(generation_, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
  }
  return obs::steady_ns() - t0;
}

}  // namespace pto::service
