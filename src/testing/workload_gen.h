// Copyright 2026 The vaolib Authors.
// Seeded workload synthesis for the differential harness: a relation of
// rows, a synthetic variable-accuracy function with *known* true values per
// row, and random queries of every kind over them. Reuses the src/workload/
// generators (hot-cold weights, selectivity-targeted constants) so the
// distributions match the paper's experiments.

#ifndef VAOLIB_TESTING_WORKLOAD_GEN_H_
#define VAOLIB_TESTING_WORKLOAD_GEN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/query.h"
#include "engine/relation.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::testing {

/// \brief A VariableAccuracyFunction backed by a table of per-row
/// SyntheticResultObject configs: arity 1, argument = row id. Every Invoke()
/// for the same row replays the identical refinement trajectory, and the
/// hidden true value of each row is exposed for oracle checks.
class SyntheticTableFunction : public vao::VariableAccuracyFunction {
 public:
  explicit SyntheticTableFunction(
      std::vector<vao::SyntheticResultObject::Config> configs)
      : configs_(std::move(configs)) {}

  const std::string& name() const override { return name_; }
  int arity() const override { return 1; }

  /// \return InvalidArgument when args[0] is not an integral row id in range.
  Result<vao::ResultObjectPtr> Invoke(const std::vector<double>& args,
                                      WorkMeter* meter) const override;
  double min_width() const override {
    double widest = 0.0;
    for (const auto& config : configs_) {
      widest = std::max(widest, config.min_width);
    }
    return widest;
  }

  std::size_t rows() const { return configs_.size(); }
  double true_value(std::size_t row) const {
    return configs_[row].true_value;
  }
  double min_width(std::size_t row) const { return configs_[row].min_width; }

 private:
  std::string name_ = "synth";
  std::vector<vao::SyntheticResultObject::Config> configs_;
};

/// \brief Knobs for MakeWorkload. Defaults give rows whose values, widths,
/// shrink rates, and costs all differ, so greedy choice orders are
/// non-trivial.
struct WorkloadSpec {
  std::size_t rows = 16;
  double value_lo = -100.0;
  double value_hi = 100.0;
  double min_width = 0.01;
  double initial_half_width_lo = 2.0;
  double initial_half_width_hi = 50.0;
  double shrink_lo = 0.30;
  double shrink_hi = 0.75;
  /// Hot-cold SUM weights (Section 6.3 shape).
  double hot_fraction = 0.25;
  double hot_weight_share = 0.7;
};

/// \brief One generated workload: relation (columns `id`, `weight`), the
/// function over it, and the ground truth the oracle checks against.
struct Workload {
  std::unique_ptr<SyntheticTableFunction> function;
  engine::Relation relation{engine::Schema{}};
  std::vector<double> true_values;
  std::vector<double> weights;
  double min_width = 0.01;  ///< shared by every row's result object
};

/// \brief Deterministically generates a workload from \p seed.
Workload MakeWorkload(const WorkloadSpec& spec, std::uint64_t seed);

/// \brief Draws a random query of the given \p kind over \p workload from
/// \p rng: comparator, selectivity-targeted constant (biased toward the
/// minWidth equal-rule boundary once in a while), epsilon, k, and (for SUM)
/// the weight column. The query's function is left pointing at the
/// workload's own function; callers may re-point it at a caching or chaos
/// wrapper.
engine::Query MakeQuery(const Workload& workload, engine::QueryKind kind,
                        std::size_t k, Rng* rng);

}  // namespace vaolib::testing

#endif  // VAOLIB_TESTING_WORKLOAD_GEN_H_
