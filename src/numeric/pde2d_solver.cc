#include "numeric/pde2d_solver.h"

#include <cmath>

#include "common/macros.h"
#include "numeric/tridiagonal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaolib::numeric {

namespace {

Status ValidateInputs(const Pde2dProblem& p, const Pde2dGrid& grid) {
  if (!p.diffusion_x || !p.diffusion_y || !p.convection_x ||
      !p.convection_y || !p.reaction || !p.source || !p.terminal) {
    return Status::InvalidArgument("2D PDE problem has unset coefficient(s)");
  }
  if (!(p.x_max > p.x_min) || !(p.y_max > p.y_min)) {
    return Status::InvalidArgument("2D PDE domain is degenerate");
  }
  if (!(p.t_end > 0.0)) {
    return Status::InvalidArgument("2D PDE horizon requires t_end > 0");
  }
  if (grid.x_intervals < 2 || grid.y_intervals < 2 || grid.t_steps < 1) {
    return Status::InvalidArgument(
        "2D PDE grid requires >= 2 intervals per axis and >= 1 t-step");
  }
  // A linear boundary folds into its neighbouring row; with two intervals
  // both folds of a sweep line would land on row 1.
  if (!p.dirichlet_zero && (grid.x_intervals < 3 || grid.y_intervals < 3)) {
    return Status::InvalidArgument(
        "2D PDE grid with linear boundaries requires >= 3 intervals per axis");
  }
  return Status::OK();
}

}  // namespace

Result<double> SolvePde2d(const Pde2dProblem& problem, const Pde2dGrid& grid,
                          double query_x, double query_y, WorkMeter* meter) {
  const obs::ScopedSpan span("solver", "pde2d", obs::TraceDetail::kFine);
  VAOLIB_RETURN_IF_ERROR(ValidateInputs(problem, grid));
  if (query_x < problem.x_min || query_x > problem.x_max ||
      query_y < problem.y_min || query_y > problem.y_max) {
    return Status::OutOfRange("query point outside 2D PDE domain");
  }

  const int nx = grid.x_intervals;
  const int ny = grid.y_intervals;
  const double dx = grid.Dx(problem);
  const double dy = grid.Dy(problem);
  const double dt = grid.Dt(problem);
  const int stride = nx + 1;
  const auto nodes = static_cast<std::size_t>((nx + 1) * (ny + 1));

  auto at = [stride](int i, int j) { return j * stride + i; };

  // Node coordinates and per-node coefficients (t-independent).
  std::vector<double> ax(nodes), ay(nodes), bx(nodes), by(nodes), rr(nodes),
      cc(nodes);
  for (int j = 0; j <= ny; ++j) {
    const double y = problem.y_min + dy * j;
    for (int i = 0; i <= nx; ++i) {
      const double x = problem.x_min + dx * i;
      const auto k = static_cast<std::size_t>(at(i, j));
      ax[k] = problem.diffusion_x(x, y);
      ay[k] = problem.diffusion_y(x, y);
      bx[k] = problem.convection_x(x, y);
      by[k] = problem.convection_y(x, y);
      rr[k] = problem.reaction(x, y);
      cc[k] = problem.source(x, y);
      if (!(ax[k] > 0.0) || !(ay[k] > 0.0)) {
        return Status::InvalidArgument(
            "2D diffusion coefficients must be > 0 on the domain");
      }
    }
  }

  // Terminal condition.
  std::vector<double> u(nodes);
  for (int j = 0; j <= ny; ++j) {
    const double y = problem.y_min + dy * j;
    for (int i = 0; i <= nx; ++i) {
      u[at(i, j)] = problem.terminal(problem.x_min + dx * i, y);
    }
  }

  // The sweep-line systems do not depend on time, so each line is factored
  // during the first sweep along its axis and reused by every later one.
  std::vector<TridiagonalFactor> x_lines(ny + 1);
  std::vector<TridiagonalFactor> y_lines(nx + 1);
  TridiagonalSystem sys;
  std::vector<double> line;

  // One implicit sweep along one axis for every line across it: solves
  // (I - dt(a F_ss + b F_s - r/2)) U* = U + dt*c/2 with s the sweep axis.
  auto sweep = [&](bool along_x, bool first) -> Status {
    const int sweep_n = along_x ? nx : ny;
    const int cross_n = along_x ? ny : nx;
    const double h = along_x ? dx : dy;
    std::vector<TridiagonalFactor>& factors = along_x ? x_lines : y_lines;
    line.resize(static_cast<std::size_t>(sweep_n + 1));
    for (int cross = 0; cross <= cross_n; ++cross) {
      if (first) {
        sys.Resize(static_cast<std::size_t>(sweep_n + 1));
        for (int s = 1; s < sweep_n; ++s) {
          const int i = along_x ? s : cross;
          const int j = along_x ? cross : s;
          const auto k = static_cast<std::size_t>(at(i, j));
          const double diff = (along_x ? ax[k] : ay[k]) / (h * h);
          const double conv = (along_x ? bx[k] : by[k]) / (2.0 * h);
          sys.lower[s] = -dt * (diff - conv);
          sys.diag[s] = 1.0 + dt * (2.0 * diff + 0.5 * rr[k]);
          sys.upper[s] = -dt * (diff + conv);
        }
        // Boundary rows are identity rows with a zero right-hand side.
        sys.diag[0] = 1.0;
        sys.diag[sweep_n] = 1.0;
        if (!problem.dirichlet_zero) {
          // Linearity on the sweep axis: U_0 = 2U_1 - U_2 folded into row 1
          // (and mirrored at the top), as in the 1-factor solver.
          const double l1 = sys.lower[1];
          sys.lower[1] = 0.0;
          sys.diag[1] += 2.0 * l1;
          sys.upper[1] -= l1;
          const double un = sys.upper[sweep_n - 1];
          sys.upper[sweep_n - 1] = 0.0;
          sys.diag[sweep_n - 1] += 2.0 * un;
          sys.lower[sweep_n - 1] -= un;
        }
        VAOLIB_RETURN_IF_ERROR(FactorTridiagonal(sys, &factors[cross]));
      }

      line[0] = 0.0;
      line[sweep_n] = 0.0;
      for (int s = 1; s < sweep_n; ++s) {
        const int i = along_x ? s : cross;
        const int j = along_x ? cross : s;
        const auto k = static_cast<std::size_t>(at(i, j));
        line[s] = u[k] + 0.5 * dt * cc[k];
      }
      VAOLIB_RETURN_IF_ERROR(SolveFactored(factors[cross], &line));

      if (!problem.dirichlet_zero) {
        line[0] = 2.0 * line[1] - line[2];
        line[sweep_n] = 2.0 * line[sweep_n - 1] - line[sweep_n - 2];
      }
      for (int s = 0; s <= sweep_n; ++s) {
        const int i = along_x ? s : cross;
        const int j = along_x ? cross : s;
        if (!std::isfinite(line[s])) {
          return Status::NumericError("2D PDE solve produced non-finite value");
        }
        u[at(i, j)] = line[s];
      }
    }
    return Status::OK();
  };

  for (int m = 0; m < grid.t_steps; ++m) {
    VAOLIB_RETURN_IF_ERROR(sweep(/*along_x=*/true, /*first=*/m == 0));
    VAOLIB_RETURN_IF_ERROR(sweep(/*along_x=*/false, /*first=*/m == 0));
  }

  if (meter != nullptr) {
    meter->Charge(WorkKind::kExec, grid.MeshEntries());
  }
  obs::CountSolverWork(obs::SolverKind::kPde2d, grid.MeshEntries());

  // Bilinear interpolation at the query point.
  const double px = (query_x - problem.x_min) / dx;
  const double py = (query_y - problem.y_min) / dy;
  auto i0 = static_cast<int>(px);
  auto j0 = static_cast<int>(py);
  if (i0 >= nx) i0 = nx - 1;
  if (j0 >= ny) j0 = ny - 1;
  const double fx = px - i0;
  const double fy = py - j0;
  const double v00 = u[at(i0, j0)];
  const double v10 = u[at(i0 + 1, j0)];
  const double v01 = u[at(i0, j0 + 1)];
  const double v11 = u[at(i0 + 1, j0 + 1)];
  return (1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10 +
         (1 - fx) * fy * v01 + fx * fy * v11;
}

}  // namespace vaolib::numeric
