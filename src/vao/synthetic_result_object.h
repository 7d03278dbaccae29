// Copyright 2026 The vaolib Authors.
// SyntheticResultObject: a deterministic, cheap ResultObject whose bounds
// shrink geometrically around a hidden true value. Useful for unit-testing
// operators, for microbenchmarking iteration strategies at scale without
// paying solver costs, and as a template for users wrapping their own
// functions into the VAO interface.

#ifndef VAOLIB_VAO_SYNTHETIC_RESULT_OBJECT_H_
#define VAOLIB_VAO_SYNTHETIC_RESULT_OBJECT_H_

#include <algorithm>
#include <cstdint>

#include "vao/result_object.h"

namespace vaolib::vao {

/// \brief Configurable synthetic refinable result.
class SyntheticResultObject : public ResultObject {
 public:
  struct Config {
    double true_value = 0.0;
    double initial_half_width = 10.0;
    /// Width multiplier per iteration (0 < shrink < 1).
    double shrink = 0.5;
    /// Fraction of the interval the true value sits at (0 = at the lower
    /// end, 0.5 = centred, 1 = at the upper end); bounds stay sound for any
    /// value in [0, 1].
    double skew = 0.5;
    double min_width = 0.01;
    std::uint64_t cost_per_iteration = 1;
    /// Work multiplier per iteration (2.0 models PDE-style doubling).
    double cost_growth = 1.0;
    /// When false, est_bounds() deliberately predicts no progress, to
    /// exercise operators' fallback paths.
    bool honest_estimates = true;
    WorkMeter* meter = nullptr;
  };

  explicit SyntheticResultObject(const Config& config)
      : config_(config),
        half_width_(config.initial_half_width),
        est_cost_now_(std::max<std::uint64_t>(config.cost_per_iteration, 1)) {}

  Bounds bounds() const override { return BoundsAt(half_width_); }
  double min_width() const override { return config_.min_width; }

  Status Iterate() override {
    ++iterations_;
    if (config_.meter != nullptr) {
      config_.meter->Charge(WorkKind::kExec, est_cost_now_);
    }
    est_cost_now_ = static_cast<std::uint64_t>(
        static_cast<double>(est_cost_now_) * config_.cost_growth);
    if (est_cost_now_ == 0) est_cost_now_ = 1;
    half_width_ *= config_.shrink;
    return Status::OK();
  }

  std::uint64_t est_cost() const override { return est_cost_now_; }

  Bounds est_bounds() const override {
    if (!config_.honest_estimates) return bounds();
    return BoundsAt(half_width_ * config_.shrink);
  }

  int iterations() const override { return iterations_; }

  std::uint64_t traditional_cost() const override { return est_cost_now_; }

  double true_value() const { return config_.true_value; }

 private:
  Bounds BoundsAt(double half_width) const {
    // Interval of width 2*half_width positioned so the true value sits at
    // `skew` of the way up; always contains the true value.
    const double width = 2.0 * half_width;
    const double lo = config_.true_value - config_.skew * width;
    return Bounds(lo, lo + width);
  }

  Config config_;
  double half_width_;
  std::uint64_t est_cost_now_;
  int iterations_ = 0;
};

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_SYNTHETIC_RESULT_OBJECT_H_
