// pto::service::Runtime — the real-threads counterpart of simx's virtual
// thread pool: a persistent set of std::threads, optionally pinned
// round-robin over the CPUs the process is allowed on, launched into
// parallel sections with a spin barrier so every worker starts the measured
// region together. It is the trial executor of the native bench runner
// (benchutil/native_runner.h).
//
// The pool is deliberately thin: per-thread epoch/hazard state lives in the
// data structures' own domains (src/reclaim) via the per-shard ThreadCtx
// objects a ShardedKV client registers, so the runtime only has to hand out
// stable worker ids and a tight start edge. Workers park on a condition
// variable between sections — a Runtime can run many sections (bench trials)
// without re-spawning threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pto::service {

struct RuntimeOptions {
  unsigned threads = 4;
  bool pin = true;  ///< pin worker t to the t-th allowed CPU (round-robin)
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opts);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  unsigned threads() const { return opts_.threads; }

  /// Run body(tid) once on every worker. All workers leave a spin barrier
  /// together; returns the wall-clock makespan in nanoseconds (barrier
  /// release -> last worker done). Not reentrant.
  std::uint64_t run(const std::function<void(unsigned)>& body);

  /// Pin the calling thread to the tid-th CPU of the process affinity mask,
  /// round-robin. Warns once (pto::warn_once) and becomes a no-op when the
  /// platform has no affinity API or the syscall fails.
  static void pin_to_cpu(unsigned tid);

  /// CPUs in the process affinity mask (what `nproc` prints); the online
  /// CPU count where the platform has no affinity API.
  static unsigned allowed_cpus();

 private:
  void worker(unsigned tid);

  RuntimeOptions opts_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;       ///< workers park here between sections
  std::condition_variable done_cv_;  ///< run() waits here for completion
  const std::function<void(unsigned)>* body_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped by run() to wake workers
  unsigned armed_ = 0;            ///< workers awake and spinning on go_
  unsigned pending_ = 0;          ///< workers still executing the body
  bool stop_ = false;

  /// Spin-barrier release flag: holds the generation whose body may start.
  std::atomic<std::uint64_t> go_{0};
};

}  // namespace pto::service
