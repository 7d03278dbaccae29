#include "bench_workloads.h"

#include <utility>

namespace vaobench {

namespace {

// ---- book: the desk's book. ------------------------------------------------
// 60 bonds, two tenants, converge-all (no tick budget). The PDE march of
// every refinement dominates the tick, so this is where a numeric-kernel
// gain shows.
WorkloadSpec Book() {
  WorkloadSpec spec;
  spec.name = "book";
  spec.bonds = 60;
  // A near-tie at the top (MAX) or bottom (MIN) makes the operator refine
  // both contenders to minWidth every tick, which costs 1.5-3x the whole
  // tick on about one portfolio in twelve. The draw keeps them $1 apart,
  // so the figures measure the program rather than which seed was drawn.
  spec.price_separation = 1.0;
  spec.tenants = {
      {"desk",
       {"SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
        "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.05"}},
      {"risk",
       {"SELECT MIN(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
        "SELECT * FROM bd WHERE bond_model(rate, bond_index) > 100"}},
  };
  return spec;
}

// ---- wide: a 1000-bond book decided mostly from coarse bounds. ------------
// Almost every row clears the selection threshold at its first bounds and
// the loose AVE precision needs few refinements, so the tick is spent
// above the UDF boundary: dispatch, the SumAve scan, result formatting.
WorkloadSpec Wide() {
  WorkloadSpec spec;
  spec.name = "wide";
  spec.bonds = 1000;
  spec.oracle_ticks = 1;
  spec.tenants = {
      {"desk",
       {"SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 1.0",
        "SELECT * FROM bd WHERE bond_model(rate, bond_index) > 80"}},
  };
  return spec;
}

// ---- storm: overloaded multi-tenant serving with query churn. -------------
// A reserved tenant plus four noisy tenants whose precision-0.01 books want
// far more work than the fixed tick budget grants, all in one executor
// group (every query binds bond_model(rate, bond_index)). EDF runs the
// reserved tenant first; the noisy tenants get what is left and answer
// with sound partial intervals. Shedding is off so the overload holds for
// every tick. The budget and reserve are literals (not derived from a
// probe of the program's own work), so a change to work accounting cannot
// move its own load.
constexpr std::uint64_t kStormTickBudget = 4'000'000;
constexpr std::uint64_t kStormVipReserve = 3'300'000;

WorkloadSpec Storm() {
  WorkloadSpec spec;
  spec.name = "storm";
  spec.bonds = 24;
  spec.tick_budget = kStormTickBudget;
  spec.shed_after_misses = 0;
  spec.churn_every = 10;
  spec.all_must_converge = false;
  spec.tenants.push_back(
      {"vip",
       {"SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
        "SELECT SUM(bond_model(rate, bond_index)) FROM bd PRECISION 1.0"},
       kStormVipReserve});
  for (int n = 0; n < 4; ++n) {
    spec.tenants.push_back(
        {"noisy" + std::to_string(n),
         {"SELECT MIN(bond_model(rate, bond_index)) FROM bd PRECISION 0.01",
          "SELECT TOP 3 bond_model(rate, bond_index) FROM bd PRECISION 0.01",
          "SELECT * FROM bd WHERE bond_model(rate, bond_index) > 100",
          "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.01"}});
  }
  return spec;
}

const std::vector<WorkloadSpec>& All() {
  static const std::vector<WorkloadSpec> all = {Book(), Wide(), Storm()};
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : All()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : All()) names.push_back(spec.name);
  return names;
}

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform(double lo, double hi) {
  // 53 random mantissa bits -> [0, 1).
  const double unit = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::vector<vaolib::finance::Bond> GenerateBonds(std::uint64_t seed,
                                                 std::size_t count,
                                                 std::uint64_t draw) {
  // A Latin-hypercube sample of the parameter box: each parameter's range
  // is cut into `count` equal strata, every stratum is used exactly once,
  // and the seed picks the point inside each stratum and how strata pair
  // up across parameters. Every seed thus covers each range evenly, so a
  // portfolio-wide cost (a sum over bonds) varies little from seed to
  // seed while the individual bonds still differ.
  struct Range {
    double lo, hi;
  };
  constexpr Range kRanges[] = {
      {20.0, 27.0},   // annual cash flow, $/yr per $100 face
      {4.0, 6.0},     // maturity, years
      {0.03, 0.05},   // sigma
      {0.10, 0.30},   // kappa
      {0.045, 0.075}, // mu
      {0.0, 0.05},    // q
      {0.0, 0.02},    // spread
  };
  constexpr std::size_t kParams = sizeof(kRanges) / sizeof(kRanges[0]);
  // Distinct streams for the portfolio draws and the rate walk of a seed.
  SplitMix64 rng(seed * 2 + 1 + draw * 0x632be59bd9b4e019ULL);
  std::vector<std::vector<double>> draws(kParams, std::vector<double>(count));
  for (std::size_t p = 0; p < kParams; ++p) {
    std::vector<std::size_t> strata(count);
    for (std::size_t i = 0; i < count; ++i) strata[i] = i;
    for (std::size_t i = count; i > 1; --i) {  // Fisher-Yates
      std::swap(strata[i - 1], strata[rng.Next() % i]);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const double unit = (static_cast<double>(strata[i]) +
                           rng.Uniform(0.0, 1.0)) /
                          static_cast<double>(count);
      draws[p][i] = kRanges[p].lo + (kRanges[p].hi - kRanges[p].lo) * unit;
    }
  }
  std::vector<vaolib::finance::Bond> bonds;
  bonds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    vaolib::finance::Bond bond;
    bond.id = static_cast<std::int64_t>(i);
    bond.name = "bond-" + std::to_string(i);
    bond.annual_cashflow = draws[0][i];
    bond.maturity_years = draws[1][i];
    bond.sigma = draws[2][i];
    bond.kappa = draws[3][i];
    bond.mu = draws[4][i];
    bond.q = draws[5][i];
    bond.spread = draws[6][i];
    bonds.push_back(bond);
  }
  return bonds;
}

RateWalk::RateWalk(std::uint64_t seed) : rng_(seed * 2 + 2) {}

double RateWalk::Next() {
  if (started_) {
    int step = (rng_.Next() >> 63) != 0 ? 1 : -1;
    if (bp_ + step > 700 || bp_ + step < 450) step = -step;
    bp_ += step;
  }
  started_ = true;
  return bp_ / 10000.0;
}

}  // namespace vaobench
