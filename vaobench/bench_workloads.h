// vaobench workloads: every constant that shapes a run, as literals.
//
// A workload is a fixed standing-query set over a bond portfolio plus the
// server configuration it runs under. Only the portfolio and the rate walk
// vary, and both come from the --seed argument through the benchmark's own
// generator (not the library's), so a change to vaolib can never change
// the inputs it is measured on.

#ifndef VAOBENCH_BENCH_WORKLOADS_H_
#define VAOBENCH_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "finance/bond.h"

namespace vaobench {

/// One tenant's standing book.
struct TenantBook {
  std::string tenant;
  std::vector<std::string> sql;
  /// Per-tick reserved work units (admission reserve); 0 = best effort.
  std::uint64_t reserve_units = 0;
};

struct WorkloadSpec {
  std::string name;
  std::size_t bonds = 0;
  std::vector<TenantBook> tenants;
  /// Dispatcher tick budget in work units; 0 = run every query to
  /// convergence.
  std::uint64_t tick_budget = 0;
  /// Dispatcher shed_after_misses (the shipped server's default is 3).
  int shed_after_misses = 3;
  /// Every `churn_every` timed ticks one best-effort tenant withdraws its
  /// oldest query and registers a replacement; 0 = no churn.
  std::size_t churn_every = 0;
  /// True when every RESULT must arrive converged (unbudgeted workloads);
  /// otherwise only reserved tenants must converge.
  bool all_must_converge = true;
  /// Ticks per run whose answers are checked against the converge-all
  /// oracle (its cost grows with the bond count, not with the run).
  std::size_t oracle_ticks = 2;
  /// Separation rule of the portfolio draw, in $ of price at the opening
  /// rate: the two highest prices and the two lowest lie at least this far
  /// apart (0 = no rule).
  double price_separation = 0.0;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Names of every workload, in definition order.
std::vector<std::string> WorkloadNames();

/// SplitMix64: the benchmark's only source of randomness.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// \p count bonds drawn from \p seed (ranges of the paper-like synthetic
/// MBS book: cash flow 20-27 $/yr, maturity 4-6 years, ...); \p draw
/// selects one of the seed's independent draws.
std::vector<vaolib::finance::Bond> GenerateBonds(std::uint64_t seed,
                                                 std::size_t count,
                                                 std::uint64_t draw = 0);

/// The stream of TICK rates: a random walk in +-1 basis-point steps from
/// 5.75%, reflecting at 4.50% and 7.00%. Kept in integer basis points so
/// every rate prints and parses exactly.
class RateWalk {
 public:
  explicit RateWalk(std::uint64_t seed);
  /// Rate of the next tick (the first call returns 5.75%).
  double Next();

 private:
  SplitMix64 rng_;
  int bp_ = 575;
  bool started_ = false;
};

}  // namespace vaobench

#endif  // VAOBENCH_BENCH_WORKLOADS_H_
