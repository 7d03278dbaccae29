#include "common/macros.h"
#include "numeric/pde_solver.h"

#include <cmath>
#include <utility>
#include <vector>

#include "numeric/tridiagonal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaolib::numeric {

namespace {

Status ValidateInputs(const Pde1dProblem& p, const PdeGrid& grid) {
  if (!p.diffusion || !p.convection || !p.reaction || !p.source ||
      !p.terminal) {
    return Status::InvalidArgument("PDE problem has unset coefficient(s)");
  }
  if (!(p.x_max > p.x_min)) {
    return Status::InvalidArgument("PDE domain requires x_max > x_min");
  }
  if (!(p.t_end > 0.0)) {
    return Status::InvalidArgument("PDE horizon requires t_end > 0");
  }
  if (grid.x_intervals < 2 || grid.t_steps < 1) {
    return Status::InvalidArgument(
        "PDE grid requires >= 2 x-intervals and >= 1 t-step");
  }
  // Each linear boundary folds into its neighbouring row; with two
  // intervals both folds would land on row 1.
  if (p.left_boundary == BoundaryKind::kLinear &&
      p.right_boundary == BoundaryKind::kLinear && grid.x_intervals < 3) {
    return Status::InvalidArgument(
        "PDE grid with two linear boundaries requires >= 3 x-intervals");
  }
  if (p.left_boundary == BoundaryKind::kDirichlet && !p.left_value) {
    return Status::InvalidArgument("left Dirichlet boundary has no value fn");
  }
  if (p.right_boundary == BoundaryKind::kDirichlet && !p.right_value) {
    return Status::InvalidArgument("right Dirichlet boundary has no value fn");
  }
  return Status::OK();
}

// The t-independent parts of one problem's march on one grid.
struct MarchSetup {
  TridiagonalSystem bands;        ///< (I - dt*A), boundary rows folded
  std::vector<double> terminal;   ///< U^0 = g(x_i)
  std::vector<double> dt_source;  ///< dt * c(x_i)
};

// March in tau = t_end - t; F_tau = a F_xx + b F_x - r F + c, forward
// parabolic in tau. Backward Euler: (I - dt*A) U^{m+1} = U^m + dt*c.
// Interior stencil of A at node i:
//   A U |_i = a_i (U_{i+1} - 2U_i + U_{i-1})/dx^2
//           + b_i (U_{i+1} - U_{i-1})/(2dx) - r_i U_i.
// The coefficients are pure functions of x and dt is constant, so the
// matrix is assembled once per (problem, grid) and only the right-hand
// side changes from step to step (see StepRhs).
Status AssembleMarch(const Pde1dProblem& problem, const PdeGrid& grid,
                     MarchSetup* setup) {
  const int nx = grid.x_intervals;  // nodes 0..nx
  const double dx = grid.Dx(problem);
  const double dt = grid.Dt(problem);
  TridiagonalSystem& sys = setup->bands;
  sys.Resize(nx + 1);
  setup->terminal.resize(nx + 1);
  setup->dt_source.resize(nx + 1);
  for (int i = 0; i <= nx; ++i) {
    const double x = problem.x_min + dx * i;
    const double a = problem.diffusion(x);
    const double b = problem.convection(x);
    const double r = problem.reaction(x);
    setup->dt_source[i] = dt * problem.source(x);
    if (!(a > 0.0)) {
      return Status::InvalidArgument("diffusion coefficient must be > 0 at x=" +
                                     std::to_string(x));
    }
    setup->terminal[i] = problem.terminal(x);
    if (i == 0 || i == nx) continue;
    const double diff = a / (dx * dx);
    const double conv = b / (2.0 * dx);
    sys.lower[i] = -dt * (diff - conv);
    sys.diag[i] = 1.0 + dt * (2.0 * diff + r);
    sys.upper[i] = -dt * (diff + conv);
  }

  // Boundary rows are identity rows; their right-hand side is the Dirichlet
  // value, or a placeholder 0 for a linear boundary.
  sys.diag[0] = 1.0;
  sys.diag[nx] = 1.0;
  if (problem.left_boundary == BoundaryKind::kLinear) {
    // Linearity: U_0 - 2U_1 + U_2 = 0. Fold U_0 = 2U_1 - U_2 into row 1 so
    // the matrix stays tridiagonal, then recover U_0 after each solve.
    const double l1 = sys.lower[1];
    sys.lower[1] = 0.0;
    sys.diag[1] += 2.0 * l1;
    sys.upper[1] -= l1;
  }
  if (problem.right_boundary == BoundaryKind::kLinear) {
    // Linearity: U_nx = 2U_{nx-1} - U_{nx-2}; fold into row nx-1.
    const double unm1 = sys.upper[nx - 1];
    sys.upper[nx - 1] = 0.0;
    sys.diag[nx - 1] += 2.0 * unm1;
    sys.lower[nx - 1] -= unm1;
  }
  return Status::OK();
}

// Writes the right-hand side of step m, U^m + dt*c with the boundary rows'
// values, into rhs[i * stride] for node i.
void StepRhs(const Pde1dProblem& problem, const PdeGrid& grid,
             const MarchSetup& setup, int m, const double* u,
             std::size_t stride, double* rhs) {
  const int nx = grid.x_intervals;
  const double t_next = problem.t_end - grid.Dt(problem) * (m + 1);
  rhs[0] = problem.left_boundary == BoundaryKind::kDirichlet
               ? problem.left_value(t_next)
               : 0.0;
  for (int i = 1; i < nx; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * stride;
    rhs[at] = u[at] + setup.dt_source[i];
  }
  rhs[static_cast<std::size_t>(nx) * stride] =
      problem.right_boundary == BoundaryKind::kDirichlet
          ? problem.right_value(t_next)
          : 0.0;
}

// Recovers the linear boundary nodes of a solved step and reports whether
// every node is finite.
bool FinishStep(const Pde1dProblem& problem, const PdeGrid& grid,
                std::size_t stride, double* x) {
  const std::size_t last = static_cast<std::size_t>(grid.x_intervals) * stride;
  if (problem.left_boundary == BoundaryKind::kLinear) {
    x[0] = 2.0 * x[stride] - x[2 * stride];
  }
  if (problem.right_boundary == BoundaryKind::kLinear) {
    x[last] = 2.0 * x[last - stride] - x[last - 2 * stride];
  }
  for (std::size_t at = 0; at <= last; at += stride) {
    if (!std::isfinite(x[at])) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<double>> SolvePdeProfile(const Pde1dProblem& problem,
                                            const PdeGrid& grid,
                                            WorkMeter* meter) {
  const obs::ScopedSpan span("solver", "pde", obs::TraceDetail::kFine);
  VAOLIB_RETURN_IF_ERROR(ValidateInputs(problem, grid));

  MarchSetup setup;
  VAOLIB_RETURN_IF_ERROR(AssembleMarch(problem, grid, &setup));
  TridiagonalFactor factor;
  VAOLIB_RETURN_IF_ERROR(FactorTridiagonal(setup.bands, &factor));

  // The terminal profile itself counts as the first mesh column only via
  // MeshEntries() (nx+1)*t_steps; we charge once per implicit step below.
  std::vector<double> u = std::move(setup.terminal);
  std::vector<double> next(u.size());
  for (int m = 0; m < grid.t_steps; ++m) {
    StepRhs(problem, grid, setup, m, u.data(), 1, next.data());
    VAOLIB_RETURN_IF_ERROR(SolveFactored(factor, &next));
    if (!FinishStep(problem, grid, 1, next.data())) {
      return Status::NumericError("PDE solve produced non-finite value");
    }
    u.swap(next);
  }

  if (meter != nullptr) {
    meter->Charge(WorkKind::kExec, grid.MeshEntries());
  }
  obs::CountSolverWork(obs::SolverKind::kPde, grid.MeshEntries());
  return u;
}

Status SolvePdeProfileBatch(const std::vector<const Pde1dProblem*>& problems,
                            const PdeGrid& grid, WorkMeter* meter,
                            std::vector<std::vector<double>>* profiles,
                            BatchKernelReport* report) {
  const obs::ScopedSpan span("solver", "pde_batch", obs::TraceDetail::kFine);
  const std::size_t lanes = problems.size();
  if (lanes == 0) return Status::InvalidArgument("PDE batch is empty");
  for (const Pde1dProblem* problem : problems) {
    if (problem == nullptr) {
      return Status::InvalidArgument("PDE batch contains null problem");
    }
    VAOLIB_RETURN_IF_ERROR(ValidateInputs(*problem, grid));
  }

  const int nx = grid.x_intervals;  // nodes 0..nx, shared across lanes
  const std::size_t rows = static_cast<std::size_t>(nx) + 1;

  // Each lane is assembled by the scalar solver's code and factored once,
  // so its march is bit-identical to SolvePdeProfile.
  std::vector<MarchSetup> setups(lanes);
  TridiagonalBatch bands;
  bands.Resize(lanes, rows);
  std::vector<double> u(rows * lanes);  // current profile, SoA plane
  for (std::size_t s = 0; s < lanes; ++s) {
    VAOLIB_RETURN_IF_ERROR(AssembleMarch(*problems[s], grid, &setups[s]));
    const MarchSetup& setup = setups[s];
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t at = bands.IndexOf(i, s);
      bands.lower[at] = setup.bands.lower[i];
      bands.diag[at] = setup.bands.diag[i];
      bands.upper[at] = setup.bands.upper[i];
      u[at] = setup.terminal[i];
    }
  }
  TridiagonalBatchFactor factor;
  VAOLIB_RETURN_IF_ERROR(FactorTridiagonalBatch(bands, &factor, report));

  // A failed lane is recorded with its step and frozen on identity rows, so
  // the lockstep solve stays well-conditioned without touching live lanes.
  std::vector<char> active(lanes, 1);
  std::size_t num_active = lanes;
  auto freeze = [&](std::size_t s, int step) {
    active[s] = 0;
    --num_active;
    report->failed_row[s] = step;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t at = factor.IndexOf(i, s);
      factor.lower[at] = 0.0;
      factor.pivot[at] = 1.0;
      factor.c_prime[at] = 0.0;
    }
  };
  for (std::size_t s = 0; s < lanes; ++s) {
    if (!report->ok(s)) freeze(s, 0);  // a zero pivot fails the first step
  }

  std::vector<double> next(rows * lanes);
  for (int m = 0; m < grid.t_steps && num_active > 0; ++m) {
    for (std::size_t s = 0; s < lanes; ++s) {
      if (active[s]) {
        StepRhs(*problems[s], grid, setups[s], m, &u[s], lanes, &next[s]);
      } else {
        for (std::size_t i = 0; i < rows; ++i) next[i * lanes + s] = 0.0;
      }
    }
    VAOLIB_RETURN_IF_ERROR(SolveFactoredBatch(factor, &next));
    for (std::size_t s = 0; s < lanes; ++s) {
      if (active[s] && !FinishStep(*problems[s], grid, lanes, &next[s])) {
        freeze(s, m);
      }
    }
    u.swap(next);
  }

  std::uint64_t ok_lanes = 0;
  for (std::size_t s = 0; s < lanes; ++s) {
    if (report->ok(s)) ++ok_lanes;
  }
  if (meter != nullptr && ok_lanes > 0) {
    meter->Charge(WorkKind::kExec, grid.MeshEntries() * ok_lanes);
  }
  if (ok_lanes > 0) {
    obs::CountSolverWork(obs::SolverKind::kPde, grid.MeshEntries() * ok_lanes);
  }

  profiles->assign(lanes, std::vector<double>());
  for (std::size_t s = 0; s < lanes; ++s) {
    std::vector<double>& profile = (*profiles)[s];
    profile.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) profile[i] = u[i * lanes + s];
  }
  return Status::OK();
}

Status SolvePdeBatch(const std::vector<const Pde1dProblem*>& problems,
                     const PdeGrid& grid, const std::vector<double>& query_x,
                     WorkMeter* meter, std::vector<double>* values,
                     BatchKernelReport* report) {
  if (query_x.size() != problems.size()) {
    return Status::InvalidArgument("PDE batch query count mismatch");
  }
  for (std::size_t s = 0; s < problems.size(); ++s) {
    if (problems[s] == nullptr) {
      return Status::InvalidArgument("PDE batch contains null problem");
    }
    if (query_x[s] < problems[s]->x_min || query_x[s] > problems[s]->x_max) {
      return Status::OutOfRange("query_x outside PDE domain");
    }
  }
  std::vector<std::vector<double>> profiles;
  VAOLIB_RETURN_IF_ERROR(
      SolvePdeProfileBatch(problems, grid, meter, &profiles, report));
  values->assign(problems.size(), 0.0);
  for (std::size_t s = 0; s < problems.size(); ++s) {
    if (!report->ok(s)) continue;
    const Pde1dProblem& problem = *problems[s];
    const std::vector<double>& profile = profiles[s];
    const double dx = grid.Dx(problem);
    const double pos = (query_x[s] - problem.x_min) / dx;
    auto lo = static_cast<std::size_t>(pos);
    if (lo >= profile.size() - 1) lo = profile.size() - 2;
    const double frac = pos - static_cast<double>(lo);
    (*values)[s] = profile[lo] * (1.0 - frac) + profile[lo + 1] * frac;
  }
  return Status::OK();
}

Result<double> SolvePde(const Pde1dProblem& problem, const PdeGrid& grid,
                        double query_x, WorkMeter* meter) {
  if (query_x < problem.x_min || query_x > problem.x_max) {
    return Status::OutOfRange("query_x outside PDE domain");
  }
  VAOLIB_ASSIGN_OR_RETURN(std::vector<double> profile,
                          SolvePdeProfile(problem, grid, meter));
  const double dx = grid.Dx(problem);
  const double pos = (query_x - problem.x_min) / dx;
  auto lo = static_cast<std::size_t>(pos);
  if (lo >= profile.size() - 1) lo = profile.size() - 2;
  const double frac = pos - static_cast<double>(lo);
  return profile[lo] * (1.0 - frac) + profile[lo + 1] * frac;
}

}  // namespace vaolib::numeric
