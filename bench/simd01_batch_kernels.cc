// simd01: batch (SoA, optionally AVX2) vs scalar numeric kernels, plus a
// fig10/fig11-style batch-greedy operator comparison.
//
// Kernel arms time K independent scalar solves against one batched call for
// each kernel family (tridiagonal, RK4 ODE march, quadrature refinement,
// 1D PDE march) across batch widths K in {1, 4, 8, 16, 32}. Each
// measurement takes the min wall time over repetitions with the inner
// repeat count autoscaled so the scalar arm resolves ~1% differences.
//
// The operator arms run a MAX aggregate (the fig11 shape) and a MIN
// aggregate over the same portfolio (a fig10-style stress that walks the
// object set from the other extreme) under kGreedy/K=1 and kBatchGreedy/K=8,
// reporting total work units and wall time: batching must not inflate total
// work by more than 10%.
//
// Gates (exit non-zero on failure):
//   * tridiagonal batch speedup >= 1.5x scalar at K >= 8 -- enforced only
//     when the AVX2 path is compiled in and active (the portable SoA
//     fallback is about scalar-speed by design; it exists for bit-identical
//     semantics, not speed) -- report-only otherwise, and for every other
//     kernel family;
//   * batch-greedy K=8 total work within 10% of K=1 on both operator arms.
// Writes BENCH_simd.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "common/work_meter.h"
#include "numeric/integration.h"
#include "numeric/ode_ivp.h"
#include "numeric/pde_solver.h"
#include "numeric/tridiagonal.h"
#include "operators/min_max.h"
#include "vao/integral_result_object.h"

namespace {

using vaolib::Stopwatch;
using vaolib::TableWriter;
using vaolib::WorkMeter;

constexpr int kReps = 5;
constexpr std::size_t kRows = 96;  // tridiagonal system size
constexpr int kOdeSteps = 64;
const vaolib::numeric::PdeGrid kPdeGrid{64, 64};
constexpr double kSpeedupGate = 1.5;
constexpr double kWorkGate = 0.10;

double Lcg01(std::uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>((*state >> 11) & 0xFFFFFFFFULL) / 4294967296.0;
}

// ---------------------------------------------------------------------------
// Kernel arms
// ---------------------------------------------------------------------------

struct KernelTimes {
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  double speedup() const { return scalar_seconds / batch_seconds; }
};

// Min-of-reps wall time of `body` run `inner` times.
template <typename Body>
double MinSeconds(int inner, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const Stopwatch wall;
    for (int i = 0; i < inner; ++i) body();
    best = std::min(best, wall.ElapsedSeconds());
  }
  return best;
}

// Autoscale the inner count so one scalar measurement takes >= ~20 ms.
template <typename Body>
int AutoInner(Body&& body) {
  const Stopwatch probe;
  body();
  const double once = std::max(probe.ElapsedSeconds(), 1e-7);
  return static_cast<int>(std::clamp(std::ceil(0.02 / once), 1.0, 20000.0));
}

KernelTimes TimeTridiagonal(std::size_t k) {
  vaolib::numeric::TridiagonalBatch batch;
  batch.Resize(k, kRows);
  std::uint64_t state = 0x51D0 + k;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t at = batch.IndexOf(i, s);
      const double lo = Lcg01(&state) - 0.5;
      const double up = Lcg01(&state) - 0.5;
      batch.lower[at] = lo;
      batch.upper[at] = up;
      batch.diag[at] = 2.0 + std::abs(lo) + std::abs(up) + Lcg01(&state);
      batch.rhs[at] = 4.0 * (Lcg01(&state) - 0.5);
    }
  }
  // AoS copies for the scalar arm.
  std::vector<vaolib::numeric::TridiagonalSystem> systems(k);
  for (std::size_t s = 0; s < k; ++s) {
    systems[s].Resize(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      const std::size_t at = batch.IndexOf(i, s);
      systems[s].lower[i] = batch.lower[at];
      systems[s].diag[i] = batch.diag[at];
      systems[s].upper[i] = batch.upper[at];
      systems[s].rhs[i] = batch.rhs[at];
    }
  }

  vaolib::numeric::TridiagonalScratch scalar_scratch;
  std::vector<double> x;
  auto scalar_body = [&] {
    for (std::size_t s = 0; s < k; ++s) {
      const auto status =
          vaolib::numeric::SolveTridiagonal(systems[s], &x, &scalar_scratch);
      if (!status.ok()) std::abort();
    }
  };
  vaolib::numeric::TridiagonalBatchScratch batch_scratch;
  std::vector<double> solutions;
  vaolib::numeric::BatchKernelReport report;
  auto batch_body = [&] {
    const auto status = vaolib::numeric::SolveTridiagonalBatch(
        batch, &solutions, &report, &batch_scratch);
    if (!status.ok()) std::abort();
  };

  const int inner = AutoInner(scalar_body);
  KernelTimes times;
  times.scalar_seconds = MinSeconds(inner, scalar_body) / inner;
  times.batch_seconds = MinSeconds(inner, batch_body) / inner;
  return times;
}

// K bond-style problems (mean-reverting short rate, coupon source) marched
// on one grid: K scalar SolvePdeProfile calls against one
// SolvePdeProfileBatch, both factoring each lane's matrix once.
KernelTimes TimePde(std::size_t k) {
  std::vector<vaolib::numeric::Pde1dProblem> problems(k);
  std::vector<const vaolib::numeric::Pde1dProblem*> ptrs;
  for (std::size_t lane = 0; lane < k; ++lane) {
    vaolib::numeric::Pde1dProblem& problem = problems[lane];
    const double coupon = 4.0 + 0.25 * static_cast<double>(lane);
    problem.diffusion = [](double) { return 2e-4; };
    problem.convection = [](double x) { return 0.2 * (0.05 - x); };
    problem.reaction = [](double x) { return x; };
    problem.source = [coupon](double) { return coupon; };
    problem.terminal = [](double) { return 100.0; };
    problem.x_max = 0.2;
    problem.t_end = 1.0 + 0.1 * static_cast<double>(lane);
    ptrs.push_back(&problem);
  }

  auto scalar_body = [&] {
    for (const auto& problem : problems) {
      const auto profile = vaolib::numeric::SolvePdeProfile(
          problem, kPdeGrid, nullptr);
      if (!profile.ok()) std::abort();
    }
  };
  std::vector<std::vector<double>> profiles;
  vaolib::numeric::BatchKernelReport report;
  auto batch_body = [&] {
    const auto status = vaolib::numeric::SolvePdeProfileBatch(
        ptrs, kPdeGrid, nullptr, &profiles, &report);
    if (!status.ok() || !report.all_ok()) std::abort();
  };

  const int inner = AutoInner(scalar_body);
  KernelTimes times;
  times.scalar_seconds = MinSeconds(inner, scalar_body) / inner;
  times.batch_seconds = MinSeconds(inner, batch_body) / inner;
  return times;
}

KernelTimes TimeRk4(std::size_t k) {
  vaolib::numeric::OdeIvpBatch batch;
  for (std::size_t lane = 0; lane < k; ++lane) {
    vaolib::numeric::OdeIvpProblem problem;
    const double a = 0.2 + 0.05 * static_cast<double>(lane);
    problem.f = [a](double t, double y) { return a * y - 0.1 * t; };
    problem.y0 = 1.0;
    problem.t1 = 1.0;
    batch.problems.push_back(problem);
  }

  auto scalar_body = [&] {
    for (const auto& problem : batch.problems) {
      const auto result =
          vaolib::numeric::SolveOdeIvpRk4(problem, kOdeSteps, nullptr);
      if (!result.ok()) std::abort();
    }
  };
  std::vector<double> results;
  vaolib::numeric::BatchKernelReport report;
  auto batch_body = [&] {
    const auto status = vaolib::numeric::SolveOdeIvpRk4Batch(
        batch, kOdeSteps, nullptr, &results, &report);
    if (!status.ok()) std::abort();
  };

  const int inner = AutoInner(scalar_body);
  KernelTimes times;
  times.scalar_seconds = MinSeconds(inner, scalar_body) / inner;
  times.batch_seconds = MinSeconds(inner, batch_body) / inner;
  return times;
}

KernelTimes TimeRefine(std::size_t k) {
  // Each measurement rebuilds the integrals (Refine mutates level state), so
  // the timed body is "create at level 0, refine 6 times" for both arms.
  vaolib::numeric::RefinableIntegral::Options options;
  options.rule = vaolib::numeric::IntegrationRule::kSimpson;
  auto make = [&](std::vector<vaolib::numeric::RefinableIntegral>* out) {
    out->clear();
    for (std::size_t lane = 0; lane < k; ++lane) {
      const double c = 1.0 + 0.25 * static_cast<double>(lane);
      auto created = vaolib::numeric::RefinableIntegral::Create(
          [c](double x) { return c * std::exp(-x * x); }, 0.0, 2.0, options,
          nullptr);
      if (!created.ok()) std::abort();
      out->push_back(std::move(created).value());
    }
  };

  std::vector<vaolib::numeric::RefinableIntegral> set;
  auto scalar_body = [&] {
    make(&set);
    for (int round = 0; round < 6; ++round) {
      for (auto& integral : set) {
        if (!integral.Refine(nullptr).ok()) std::abort();
      }
    }
  };
  auto batch_body = [&] {
    make(&set);
    std::vector<vaolib::numeric::RefinableIntegral*> ptrs;
    for (auto& integral : set) ptrs.push_back(&integral);
    for (int round = 0; round < 6; ++round) {
      if (!vaolib::numeric::RefinableIntegral::RefineBatch(ptrs, nullptr)
               .ok()) {
        std::abort();
      }
    }
  };

  const int inner = AutoInner(scalar_body);
  KernelTimes times;
  times.scalar_seconds = MinSeconds(inner, scalar_body) / inner;
  times.batch_seconds = MinSeconds(inner, batch_body) / inner;
  return times;
}

// ---------------------------------------------------------------------------
// Operator arms (fig10/fig11 shapes over integral-backed VAOs)
// ---------------------------------------------------------------------------

std::vector<vaolib::vao::ResultObjectPtr> MakeObjects(std::size_t count,
                                                      WorkMeter* meter) {
  std::vector<vaolib::vao::ResultObjectPtr> owned;
  std::uint64_t state = 0xF16;
  for (std::size_t lane = 0; lane < count; ++lane) {
    vaolib::vao::IntegralProblem problem;
    const double c = 0.5 + 2.0 * Lcg01(&state);
    const double w = 1.0 + 8.0 * Lcg01(&state);
    problem.integrand = [c, w](double x) {
      return c * std::sin(w * x) * std::sin(w * x) + 0.1 * x;
    };
    problem.a = 0.0;
    problem.b = 1.0 + Lcg01(&state);
    vaolib::vao::IntegralResultOptions options;
    auto created =
        vaolib::vao::IntegralResultObject::Create(problem, options, meter);
    if (!created.ok()) std::abort();
    owned.push_back(std::move(created).value());
  }
  return owned;
}

struct OperatorArm {
  std::uint64_t work = 0;
  double wall_seconds = 0.0;
};

// fig11 shape: MAX over `count` objects.
OperatorArm RunMaxArm(std::size_t count, int batch_k) {
  OperatorArm arm;
  double best_wall = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    WorkMeter meter;
    auto owned = MakeObjects(count, &meter);
    std::vector<vaolib::vao::ResultObject*> objects;
    for (const auto& object : owned) objects.push_back(object.get());
    vaolib::operators::MinMaxOptions options;
    options.kind = vaolib::operators::ExtremeKind::kMax;
    options.epsilon = 1e-6;
    options.meter = &meter;
    if (batch_k > 1) {
      options.strategy = vaolib::operators::StrategyKind::kBatchGreedy;
      options.batch_k = batch_k;
    }
    const std::uint64_t before = meter.Total();
    const Stopwatch wall;
    const auto outcome = vaolib::operators::MinMaxVao(options).Evaluate(objects);
    const double seconds = wall.ElapsedSeconds();
    if (!outcome.ok()) std::abort();
    arm.work = meter.Total() - before;  // deterministic across reps
    best_wall = std::min(best_wall, seconds);
  }
  arm.wall_seconds = best_wall;
  return arm;
}

// fig10-style stress: a MIN aggregate over the same portfolio, so the
// adaptive loop visits the whole object set from the other extreme.
OperatorArm RunMinArm(std::size_t count, int batch_k) {
  OperatorArm arm;
  double best_wall = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    WorkMeter meter;
    auto owned = MakeObjects(count, &meter);
    std::vector<vaolib::vao::ResultObject*> objects;
    for (const auto& object : owned) objects.push_back(object.get());
    vaolib::operators::MinMaxOptions options;
    options.kind = vaolib::operators::ExtremeKind::kMin;
    options.epsilon = 1e-6;
    options.meter = &meter;
    if (batch_k > 1) {
      options.strategy = vaolib::operators::StrategyKind::kBatchGreedy;
      options.batch_k = batch_k;
    }
    const std::uint64_t before = meter.Total();
    const Stopwatch wall;
    const auto outcome = vaolib::operators::MinMaxVao(options).Evaluate(objects);
    const double seconds = wall.ElapsedSeconds();
    if (!outcome.ok()) std::abort();
    arm.work = meter.Total() - before;
    best_wall = std::min(best_wall, seconds);
  }
  arm.wall_seconds = best_wall;
  return arm;
}

}  // namespace

int main() {
  const bool avx2 = vaolib::numeric::TridiagonalBatchUsesAvx2();
  std::printf("simd01: batch kernels vs scalar (AVX2 path: %s)\n\n",
              avx2 ? "active" : "inactive (portable SoA fallback)");

  TableWriter kernels("simd01: kernel wall time, min of reps",
                      {"kernel", "K", "scalar_us", "batch_us", "speedup",
                       "gated", "pass"});
  bool all_pass = true;
  const std::size_t widths[] = {1, 4, 8, 16, 32};
  struct Family {
    const char* name;
    KernelTimes (*run)(std::size_t);
    bool gate;  // tridiagonal carries the headline speedup gate
  };
  const Family families[] = {
      {"tridiagonal", &TimeTridiagonal, true},
      {"rk4", &TimeRk4, false},
      {"quadrature", &TimeRefine, false},
      {"pde", &TimePde, false},
  };
  for (const Family& family : families) {
    for (const std::size_t k : widths) {
      const KernelTimes times = family.run(k);
      // The 1.5x gate binds only on the AVX2 build and only at K >= 8
      // (below that there is not enough lockstep width to amortize).
      const bool gated = family.gate && avx2 && k >= 8;
      const bool pass = !gated || times.speedup() >= kSpeedupGate;
      if (!pass) all_pass = false;
      kernels.AddRow({family.name, TableWriter::Cell(static_cast<int>(k)),
                      TableWriter::Cell(times.scalar_seconds * 1e6, 2),
                      TableWriter::Cell(times.batch_seconds * 1e6, 2),
                      TableWriter::Cell(times.speedup(), 3),
                      TableWriter::Cell(gated ? 1 : 0),
                      TableWriter::Cell(pass ? 1 : 0)});
    }
  }
  kernels.RenderText(std::cout);

  std::printf("\n");
  TableWriter operators_table(
      "simd01: batch-greedy operators (fig10/fig11 shapes, 64 objects)",
      {"arm", "batch_k", "work_units", "wall_ms", "work_ratio", "pass"});
  struct OperatorCase {
    const char* name;
    OperatorArm (*run)(std::size_t, int);
  };
  const OperatorCase cases[] = {
      {"fig11_max", &RunMaxArm},
      {"fig10_min", &RunMinArm},
  };
  for (const OperatorCase& oc : cases) {
    const OperatorArm k1 = oc.run(64, 1);
    const OperatorArm k8 = oc.run(64, 8);
    const double ratio =
        static_cast<double>(k8.work) / static_cast<double>(k1.work);
    const bool pass = ratio <= 1.0 + kWorkGate;
    if (!pass) all_pass = false;
    operators_table.AddRow({std::string(oc.name) + "/greedy",
                            TableWriter::Cell(1),
                            TableWriter::Cell(k1.work),
                            TableWriter::Cell(k1.wall_seconds * 1e3, 3),
                            TableWriter::Cell(1.0, 3), TableWriter::Cell(1)});
    operators_table.AddRow({std::string(oc.name) + "/batch_greedy",
                            TableWriter::Cell(8),
                            TableWriter::Cell(k8.work),
                            TableWriter::Cell(k8.wall_seconds * 1e3, 3),
                            TableWriter::Cell(ratio, 3),
                            TableWriter::Cell(pass ? 1 : 0)});
  }
  operators_table.RenderText(std::cout);

  std::ofstream json("BENCH_simd.json");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_simd.json\n");
    return 1;
  }
  json << "{\"avx2\": " << (avx2 ? "true" : "false") << ",\n\"kernels\": ";
  kernels.RenderJson(json);
  json << ",\n\"operators\": ";
  operators_table.RenderJson(json);
  json << "}\n";
  std::printf("\nwrote BENCH_simd.json\n");

  if (!all_pass) {
    std::fprintf(stderr, "simd01 gate FAILED\n");
    return 1;
  }
  std::printf("simd01 gates passed\n");
  return 0;
}
