#include "benchutil/native_runner.h"

namespace pto::bench {

double native_measure_point(
    const RunnerOptions& opts, service::Runtime& rt,
    const std::function<std::function<void(unsigned, std::uint64_t)>()>&
        make_fixture,
    const std::string& bench, const std::string& series) {
  PointBracket point(bench, series, rt.threads(), PointBracket::Clock::kWall);
  const std::uint64_t ops = opts.ops_per_thread * rt.threads();
  double best = 0.0;
  for (unsigned trial = 0; trial < opts.trials; ++trial) {
    auto body = make_fixture();
    const PrefixStats start = point.trial_start();
    const std::uint64_t ns =
        rt.run([&](unsigned tid) { body(tid, opts.ops_per_thread); });
    point.add_trial(ops, start);
    const double ops_per_ms = ns == 0 ? 0.0
                                      : static_cast<double>(ops) * 1e6 /
                                            static_cast<double>(ns);
    if (ops_per_ms > best) best = ops_per_ms;
  }
  point.close(best);
  return best;
}

}  // namespace pto::bench
