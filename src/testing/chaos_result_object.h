// Copyright 2026 The vaolib Authors.
// Deterministic fault injection for the VAO interface.
//
// ChaosResultObject decorates any ResultObject and injects one planned fault:
// lying estimates, stalled convergence, NaN/Inf bounds, inverted bounds
// (L > H), or Iterate() failures. The fault is described by a FaultPlan drawn
// from the common Rng, so an entire chaos run replays bit-for-bit from a
// single seed. ChaosFunction lifts the decorator to a whole
// VariableAccuracyFunction: each argument vector gets a plan derived from
// hash(args) ^ seed -- never from invocation order -- so the set of poisoned
// rows is identical no matter how many threads race through Invoke().

#ifndef VAOLIB_TESTING_CHAOS_RESULT_OBJECT_H_
#define VAOLIB_TESTING_CHAOS_RESULT_OBJECT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "vao/result_object.h"

namespace vaolib::testing {

/// \brief The fault categories a ChaosResultObject can inject.
enum class FaultKind {
  kNone,               ///< transparent pass-through
  kLyingEstimates,     ///< est_cost/est_bounds off by configured factors
  kStalledConvergence, ///< Iterate() succeeds but bounds freeze above minWidth
  kNanBounds,          ///< bounds() returns [NaN, NaN]
  kInfBounds,          ///< bounds() returns [-inf, +inf]
  kInvertedBounds,     ///< bounds() returns [hi, lo] with hi > lo (L > H)
  kIterateFailure,     ///< Iterate() returns NumericError
};

/// \brief Source-level name of \p kind (for repro lines and diagnostics).
const char* FaultKindName(FaultKind kind);

/// \brief One planned fault: what goes wrong, when, and by how much.
///
/// All faults except kLyingEstimates arm after `trigger_iteration` Iterate()
/// calls on the decorator (0 = faulty from birth); lying estimates are
/// always on. The plan is plain data so it can be logged and replayed.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Iterate() calls on the wrapper before the fault arms.
  int trigger_iteration = 0;
  /// kLyingEstimates: est_cost() multiplier (>= 0; result clamped to >= 1).
  double cost_factor = 1.0;
  /// kLyingEstimates: est_bounds() width multiplier.
  double width_factor = 1.0;

  /// Draws a plan of the given \p kind from \p rng: trigger in [0, 6],
  /// estimate factors log-uniform in [1/16, 16].
  static FaultPlan Draw(FaultKind kind, Rng* rng);

  /// Human-readable summary, e.g. "stalled-convergence@3".
  std::string ToString() const;
};

/// \brief Decorator injecting the fault described by a FaultPlan into an
/// otherwise-honest ResultObject.
///
/// Soundness caveat by design: once a bounds fault (NaN/Inf/inverted) or a
/// stall arms, bounds() no longer tracks the inner object -- that is the
/// point. Operators are expected to catch the malformed cases via
/// ValidateObjectBounds and the frozen case via their stall guards.
class ChaosResultObject : public vao::ResultObject {
 public:
  ChaosResultObject(vao::ResultObjectPtr inner, const FaultPlan& plan)
      : inner_(std::move(inner)), plan_(plan) {}

  Bounds bounds() const override;
  double min_width() const override { return inner_->min_width(); }
  Status Iterate() override;
  std::uint64_t est_cost() const override;
  Bounds est_bounds() const override;
  int iterations() const override { return iterations_; }
  std::uint64_t traditional_cost() const override {
    return inner_->traditional_cost();
  }
  // Identity passes through untouched: a chaos object lies about estimates
  // and bounds, never about which solver family / correlation group it
  // belongs to (that is exactly the situation the calibrated strategies
  // must correct).
  int calibration_kind() const override {
    return inner_->calibration_kind();
  }
  std::string correlation_key() const override {
    return inner_->correlation_key();
  }

  const FaultPlan& plan() const { return plan_; }
  const vao::ResultObject& inner() const { return *inner_; }

 private:
  /// True once iterations_ has reached the plan's trigger.
  bool Armed() const { return iterations_ >= plan_.trigger_iteration; }

  vao::ResultObjectPtr inner_;
  FaultPlan plan_;
  int iterations_ = 0;
  /// kStalledConvergence: bounds at the moment the stall armed.
  mutable bool froze_ = false;
  mutable Bounds frozen_bounds_;
};

/// \brief Configuration of a ChaosFunction.
struct ChaosOptions {
  /// Root seed; combined with hash(args) to derive each plan.
  std::uint64_t seed = 1;
  /// Probability that a given argument vector is poisoned at all.
  double fault_probability = 0.25;
  /// Kinds to draw from (uniformly) for poisoned vectors; empty disables
  /// injection entirely.
  std::vector<FaultKind> kinds = {
      FaultKind::kLyingEstimates,  FaultKind::kStalledConvergence,
      FaultKind::kNanBounds,       FaultKind::kInfBounds,
      FaultKind::kInvertedBounds,  FaultKind::kIterateFailure,
  };
  /// When true, each poisoned argument vector faults only on its FIRST
  /// Invoke() and behaves honestly afterwards -- a transient solver
  /// breakdown. Lets tests exercise the engine's black-box fallback, whose
  /// calibration pass re-invokes the same arguments.
  bool transient = false;
};

/// \brief Fault-injecting decorator over a VariableAccuracyFunction.
///
/// Thread-safe: the plan for an argument vector depends only on
/// (args, options.seed), so concurrent Invoke() calls -- InvokeAll, batch
/// operator paths -- poison exactly the same rows in every run and at every
/// thread count. In transient mode a per-args invocation counter (mutex
/// guarded) downgrades the plan to kNone after the first call.
class ChaosFunction : public vao::VariableAccuracyFunction {
 public:
  /// Wraps \p inner (borrowed; must outlive this object).
  ChaosFunction(const vao::VariableAccuracyFunction* inner,
                const ChaosOptions& options);

  const std::string& name() const override { return name_; }
  int arity() const override { return inner_->arity(); }
  Result<vao::ResultObjectPtr> Invoke(const std::vector<double>& args,
                                      WorkMeter* meter) const override;
  double min_width() const override { return inner_->min_width(); }

  /// The plan Invoke() would apply to \p args on its first call.
  FaultPlan PlanFor(const std::vector<double>& args) const;

  const ChaosOptions& options() const { return options_; }

 private:
  const vao::VariableAccuracyFunction* inner_;
  ChaosOptions options_;
  std::string name_;
  mutable std::mutex mutex_;
  mutable std::map<std::vector<double>, std::uint64_t> invocations_;
};

/// \brief FNV-1a hash of an argument vector's bit patterns; the keying
/// function ChaosFunction uses to make plans order- and thread-independent.
std::uint64_t HashArgs(const std::vector<double>& args);

}  // namespace vaolib::testing

#endif  // VAOLIB_TESTING_CHAOS_RESULT_OBJECT_H_
