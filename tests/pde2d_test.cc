// Tests for the two-factor (ADI) PDE solver, its result object, and the
// two-factor bond model.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "finance/two_factor_model.h"
#include "numeric/pde2d_solver.h"
#include "numeric/richardson.h"
#include "vao/black_box.h"
#include "vao/pde2d_result_object.h"

namespace vaolib {
namespace {

// Constant-reaction problem: x- and y-independent closed form
// (C/r)(1 - e^{-rT}), the same oracle family as the 1-factor tests.
numeric::Pde2dProblem Annuity2dProblem(double rbar, double c, double t_end) {
  numeric::Pde2dProblem p;
  p.diffusion_x = [](double, double) { return 1e-3; };
  p.diffusion_y = [](double, double) { return 2e-3; };
  p.convection_x = [](double x, double) { return 0.01 - 0.2 * x; };
  p.convection_y = [](double, double y) { return -0.15 * y; };
  p.reaction = [rbar](double, double) { return rbar; };
  p.source = [c](double, double) { return c; };
  p.terminal = [](double, double) { return 0.0; };
  p.x_min = 0.0;
  p.x_max = 0.12;
  p.y_min = -0.5;
  p.y_max = 0.5;
  p.t_end = t_end;
  return p;
}

TEST(Pde2dSolverTest, MatchesAnnuityClosedForm) {
  const double rbar = 0.06, c = 23.0, t_end = 5.0;
  const double expected = c / rbar * (1.0 - std::exp(-rbar * t_end));
  WorkMeter meter;
  const auto result = numeric::SolvePde2d(
      Annuity2dProblem(rbar, c, t_end), numeric::Pde2dGrid{16, 16, 512},
      0.06, 0.1, &meter);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result.value(), expected, 0.15);
  EXPECT_EQ(meter.ExecUnits(),
            (numeric::Pde2dGrid{16, 16, 512}).MeshEntries());
}

TEST(Pde2dSolverTest, HeatEquationProductSolution) {
  // F_t = a (F_xx + F_yy), terminal sin(pi x) sin(pi y), zero Dirichlet on
  // the unit square: F(x,y,0) = exp(-2 a pi^2 T) sin(pi x) sin(pi y).
  const double a = 0.05, t_end = 1.0;
  numeric::Pde2dProblem p;
  p.diffusion_x = [a](double, double) { return a; };
  p.diffusion_y = [a](double, double) { return a; };
  p.convection_x = [](double, double) { return 0.0; };
  p.convection_y = [](double, double) { return 0.0; };
  p.reaction = [](double, double) { return 0.0; };
  p.source = [](double, double) { return 0.0; };
  p.terminal = [](double x, double y) {
    return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
  };
  p.x_min = 0.0;
  p.x_max = 1.0;
  p.y_min = 0.0;
  p.y_max = 1.0;
  p.t_end = t_end;
  p.dirichlet_zero = true;

  const auto result =
      numeric::SolvePde2d(p, numeric::Pde2dGrid{32, 32, 512}, 0.5, 0.5,
                          nullptr);
  ASSERT_TRUE(result.ok());
  const double expected =
      std::exp(-2.0 * a * std::numbers::pi * std::numbers::pi * t_end);
  EXPECT_NEAR(result.value(), expected, 5e-3);
}

TEST(Pde2dSolverTest, FirstOrderConvergenceInTime) {
  const double rbar = 0.06, c = 23.0, t_end = 5.0;
  const auto problem = Annuity2dProblem(rbar, c, t_end);
  const double expected = c / rbar * (1.0 - std::exp(-rbar * t_end));
  double prev_error = 0.0;
  for (const int steps : {64, 128, 256}) {
    const auto result = numeric::SolvePde2d(
        problem, numeric::Pde2dGrid{12, 12, steps}, 0.05, 0.0, nullptr);
    ASSERT_TRUE(result.ok());
    const double error = std::abs(result.value() - expected);
    if (prev_error > 0.0) {
      EXPECT_LT(error, prev_error * 0.7);
    }
    prev_error = error;
  }
}

TEST(Pde2dSolverTest, RejectsMalformedInputs) {
  auto problem = Annuity2dProblem(0.06, 23.0, 5.0);
  EXPECT_EQ(numeric::SolvePde2d(problem, numeric::Pde2dGrid{1, 8, 8}, 0.05,
                                0.0, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(numeric::SolvePde2d(problem, numeric::Pde2dGrid{8, 8, 8}, 0.5,
                                0.0, nullptr)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  problem.diffusion_y = nullptr;
  EXPECT_EQ(numeric::SolvePde2d(problem, numeric::Pde2dGrid{8, 8, 8}, 0.05,
                                0.0, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto negative = Annuity2dProblem(0.06, 23.0, 5.0);
  negative.diffusion_x = [](double, double) { return -1.0; };
  EXPECT_EQ(numeric::SolvePde2d(negative, numeric::Pde2dGrid{8, 8, 8}, 0.05,
                                0.0, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Pde2dSolverTest, LinearBoundariesNeedThreeIntervalsPerAxis) {
  // F = 1 + x + 2y solves the pure diffusion problem and is linear at every
  // edge. With two intervals on an axis both linear folds of a sweep line
  // would land on its row 1, so such grids are rejected.
  numeric::Pde2dProblem p;
  p.diffusion_x = [](double, double) { return 1.0; };
  p.diffusion_y = [](double, double) { return 0.5; };
  p.convection_x = [](double, double) { return 0.0; };
  p.convection_y = [](double, double) { return 0.0; };
  p.reaction = [](double, double) { return 0.0; };
  p.source = [](double, double) { return 0.0; };
  p.terminal = [](double x, double y) { return 1.0 + x + 2.0 * y; };
  for (const numeric::Pde2dGrid grid :
       {numeric::Pde2dGrid{2, 8, 4}, numeric::Pde2dGrid{8, 2, 4}}) {
    EXPECT_EQ(numeric::SolvePde2d(p, grid, 0.5, 0.5, nullptr).status().code(),
              StatusCode::kInvalidArgument);
  }
  const auto exact =
      numeric::SolvePde2d(p, numeric::Pde2dGrid{3, 4, 4}, 0.5, 0.5, nullptr);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_NEAR(exact.value(), 2.5, 1e-12);

  p.dirichlet_zero = true;  // no folds: two intervals are enough
  EXPECT_TRUE(numeric::SolvePde2d(p, numeric::Pde2dGrid{2, 2, 4}, 0.5, 0.5,
                                  nullptr)
                  .ok());
}

TEST(Richardson3ModelTest, RecoversSyntheticCoefficients) {
  const double A = 100.0, K1 = 1.5, K2 = -200.0, K3 = 40.0;
  const double dt = 0.5, dx = 0.05, dy = 0.1;
  auto value = [&](double dt_, double dx_, double dy_) {
    return A + K1 * dt_ + K2 * dx_ * dx_ + K3 * dy_ * dy_;
  };
  numeric::Richardson3Model model(3.0);
  model.EstimateK1(value(dt, dx, dy), value(dt / 2, dx, dy), dt);
  model.EstimateK2(value(dt, dx, dy), value(dt, dx / 2, dy), dx);
  model.EstimateK3(value(dt, dx, dy), value(dt, dx, dy / 2), dy);
  EXPECT_NEAR(model.k1(), K1, 1e-9);
  EXPECT_NEAR(model.k2(), K2, 1e-9);
  EXPECT_NEAR(model.k3(), K3, 1e-9);

  const Bounds b = model.BoundsFor(value(dt, dx, dy), dt, dx, dy);
  EXPECT_TRUE(b.Contains(A));
  EXPECT_TRUE(b.Contains(value(dt, dx, dy)));
}

TEST(Richardson3ModelTest, PreferredAxisPicksDominantTerm) {
  numeric::Richardson3Model model(3.0);
  const double dt = 1.0, dx = 0.1, dy = 0.1;
  model.EstimateK1(10.0, 9.0, dt);       // |K1 dt| = 2
  model.EstimateK2(10.0, 10.001, dx);    // tiny
  model.EstimateK3(10.0, 10.001, dy);    // tiny
  EXPECT_EQ(model.PreferredAxis(dt, dx, dy), numeric::StepAxis3::kTime);
  model.EstimateK1(10.0, 9.99999, dt);
  model.EstimateK3(10.0, 11.0, dy);
  EXPECT_EQ(model.PreferredAxis(dt, dx, dy), numeric::StepAxis3::kSpaceY);
}

TEST(Pde2dResultObjectTest, BoundsContainClosedFormThroughout) {
  const double truth = 23.0 / 0.06 * (1.0 - std::exp(-0.06 * 5.0));
  WorkMeter meter;
  auto made = vao::Pde2dResultObject::Create(
      Annuity2dProblem(0.06, 23.0, 5.0), 0.05, 0.0, {}, &meter);
  ASSERT_TRUE(made.ok()) << made.status();
  vao::ResultObject* object = made->get();
  for (int i = 0; i < 8 && !object->AtStoppingCondition(); ++i) {
    EXPECT_TRUE(object->bounds().Contains(truth))
        << "iteration " << i << " bounds " << object->bounds();
    ASSERT_TRUE(object->Iterate().ok());
  }
}

TEST(Pde2dResultObjectTest, EstCostMatchesActual) {
  WorkMeter meter;
  auto made = vao::Pde2dResultObject::Create(
      Annuity2dProblem(0.06, 23.0, 5.0), 0.05, 0.0, {}, &meter);
  ASSERT_TRUE(made.ok());
  vao::ResultObject* object = made->get();
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t predicted = object->est_cost();
    const std::uint64_t before = meter.ExecUnits();
    ASSERT_TRUE(object->Iterate().ok());
    EXPECT_EQ(meter.ExecUnits() - before, predicted) << "iteration " << i;
  }
}

TEST(TwoFactorModelTest, PriceSensitivities) {
  finance::Bond bond;
  finance::TwoFactorModelConfig config;
  // Coarser minWidth keeps this test fast; sensitivities are way above it.
  config.pde.min_width = 0.25;
  const finance::TwoFactorBondPricingFunction fn({bond}, config);

  auto price = [&](double rate, double level) {
    WorkMeter meter;
    auto object = fn.Invoke(fn.ArgsFor(rate, level, 0), &meter);
    EXPECT_TRUE(object.ok()) << object.status();
    EXPECT_TRUE(vao::ConvergeToMinWidth(object->get()).ok());
    return (*object)->bounds().Mid();
  };

  const double base = price(0.0575, 0.0);
  EXPECT_GT(base, 60.0);
  EXPECT_LT(base, 160.0);
  // Decreasing in the rate.
  EXPECT_GT(price(0.045, 0.0), base);
  EXPECT_LT(price(0.07, 0.0), base);
  // Increasing in the prepayment index (cashflow rises with it).
  EXPECT_GT(price(0.0575, 0.3), base);
  EXPECT_LT(price(0.0575, -0.3), base);
}

TEST(TwoFactorModelTest, ValidatesArguments) {
  finance::Bond bond;
  const finance::TwoFactorBondPricingFunction fn(
      {bond}, finance::TwoFactorModelConfig{});
  WorkMeter meter;
  EXPECT_FALSE(fn.Invoke({0.05, 0.0}, &meter).ok());          // arity
  EXPECT_FALSE(fn.Invoke({0.5, 0.0, 0.0}, &meter).ok());      // rate range
  EXPECT_FALSE(fn.Invoke({0.05, 3.0, 0.0}, &meter).ok());     // level range
  EXPECT_FALSE(fn.Invoke({0.05, 0.0, 9.0}, &meter).ok());     // index range
  EXPECT_EQ(fn.arity(), 3);
}

}  // namespace
}  // namespace vaolib
