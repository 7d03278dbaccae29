// Copyright 2026 The vaolib Authors.
// Two-factor parabolic PDE solver (ADI / operator splitting): the solver
// class behind two-factor valuation models such as Downing, Stanton &
// Wallace's two-factor mortgage model, which the paper cites as [11]:
//
//   a_x(x,y) F_xx + a_y(x,y) F_yy + b_x(x,y) F_x + b_y(x,y) F_y
//     + F_t - r(x,y) F + c(x,y) = 0,       F(x, y, t_end) = g(x, y)
//
// (no cross-derivative term; the correlation of the real model is dropped,
// a documented simplification). Marched backward with Lie operator
// splitting: each time step is one implicit sweep along x (a tridiagonal
// solve per y-row) followed by one implicit sweep along y (per x-column).
// Unconditionally stable; error O(dt + dx^2 + dy^2), the three-term
// analogue of the paper's Section 4.1 form, so the same Richardson
// machinery applies with one extra coefficient.

#ifndef VAOLIB_NUMERIC_PDE2D_SOLVER_H_
#define VAOLIB_NUMERIC_PDE2D_SOLVER_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/work_meter.h"

namespace vaolib::numeric {

/// \brief A two-factor parabolic terminal-value problem. All coefficients
/// are pure functions of (x, y). Lateral boundaries use the financial
/// "linearity" condition (second derivative zero along the normal axis).
struct Pde2dProblem {
  std::function<double(double, double)> diffusion_x;  ///< a_x > 0
  std::function<double(double, double)> diffusion_y;  ///< a_y > 0
  std::function<double(double, double)> convection_x;  ///< b_x
  std::function<double(double, double)> convection_y;  ///< b_y
  std::function<double(double, double)> reaction;      ///< r
  std::function<double(double, double)> source;        ///< c
  std::function<double(double, double)> terminal;      ///< g

  double x_min = 0.0;
  double x_max = 1.0;
  double y_min = 0.0;
  double y_max = 1.0;
  double t_end = 1.0;

  /// When true, clamp boundary values with Dirichlet zero instead of
  /// linearity (used by validation tests with known boundary behaviour).
  bool dirichlet_zero = false;
};

/// \brief Discretization: interval counts per axis and time steps.
struct Pde2dGrid {
  int x_intervals = 8;
  int y_intervals = 8;
  int t_steps = 8;

  double Dx(const Pde2dProblem& p) const {
    return (p.x_max - p.x_min) / x_intervals;
  }
  double Dy(const Pde2dProblem& p) const {
    return (p.y_max - p.y_min) / y_intervals;
  }
  double Dt(const Pde2dProblem& p) const { return p.t_end / t_steps; }

  /// Mesh entries computed by one solve: nodes x time steps (both ADI
  /// sweeps touch every node once per step; we count node-steps).
  std::uint64_t MeshEntries() const {
    return static_cast<std::uint64_t>(x_intervals + 1) *
           static_cast<std::uint64_t>(y_intervals + 1) *
           static_cast<std::uint64_t>(t_steps);
  }
};

/// \brief Solves \p problem on \p grid and returns F(query_x, query_y, 0),
/// bilinearly interpolated between the four nearest nodes. Charges
/// grid.MeshEntries() exec units to \p meter (if non-null). Each sweep
/// line's system is factored once per solve. Linear boundaries (the default,
/// dirichlet_zero false) need >= 3 intervals per axis.
Result<double> SolvePde2d(const Pde2dProblem& problem, const Pde2dGrid& grid,
                          double query_x, double query_y, WorkMeter* meter);

}  // namespace vaolib::numeric

#endif  // VAOLIB_NUMERIC_PDE2D_SOLVER_H_
