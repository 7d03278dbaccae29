// Copyright 2026 The vaolib Authors.
// ScoreCorrector: the predictive-planning engine shared by the aggregate
// IterationTasks.
//
// It does three jobs on the serial adaptive loop:
//
//   * Correct: rescales a candidate's raw estCPU/estL/estH before the
//     greedy comparison. Precedence per candidate: (1) the per-(object,
//     kind) CostFeedback history, (2) the sentinel fit of the object's
//     correlation group. A candidate matching neither scores on its raw
//     estimates bit-exactly. Corrections come only from the task's own
//     inputs, never from process-wide state, so a query spends the same
//     work whatever ran before it in the process.
//   * Probe: under kSentinelGreedy, overrides the strategy's pick until
//     each correlation group's probe quota (the cheapest members by raw
//     estCPU) has been observed; the observed-vs-predicted ratios fitted
//     from those probes become correction source (2) for the rest of the
//     group.
//   * Record: after each serial iterate, feeds the actual-vs-estimated
//     cost and shrink into the CostFeedback store and accumulates the
//     raw/corrected MAE audit into OperatorStats. Recording happens only
//     on paths whose iterate sequence is thread-count invariant, so the
//     history an operator run leaves behind is too.
//
// Everything is inert (no allocation) unless the options enable feedback
// or a corrected strategy.

#ifndef VAOLIB_OPERATORS_SCORE_CORRECTOR_H_
#define VAOLIB_OPERATORS_SCORE_CORRECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bounds.h"
#include "common/work_meter.h"
#include "operators/operator_base.h"
#include "vao/result_object.h"

namespace vaolib::operators {

class ScoreCorrector {
 public:
  /// \p objects must outlive the corrector (the owning task guarantees
  /// this).
  ScoreCorrector(const OperatorOptions& options,
                 const std::vector<vao::ResultObject*>& objects);

  /// True when observations should be recorded (a feedback store is
  /// attached).
  bool recording() const { return feedback_ != nullptr; }
  /// True when candidate estimates should be corrected before scoring.
  bool correcting() const { return correcting_; }
  /// True when sentinel probing should override picks.
  bool probing() const { return probing_; }

  /// A candidate's corrected estimates. When `changed` is false the values
  /// are the raw inputs, bit-exactly.
  struct Corrected {
    double cost = 1.0;
    Bounds est = Bounds(0.0, 0.0);
    bool changed = false;
  };

  /// Corrects object \p i's raw estimates: \p cur its current bounds,
  /// \p est its raw est_bounds(), \p raw_cost its raw est cost (>= 1).
  Corrected Correct(std::size_t i, const Bounds& cur, const Bounds& est,
                    double raw_cost) const;

  /// Sentinel pick override: when a correlation-group probe is still
  /// pending among \p iterable (ascending object indices), sets \p probe
  /// and returns true. Pending probes that are no longer iterable
  /// (converged, pruned, stalled) are retired without an observation so
  /// the queue cannot wedge.
  bool NextProbe(const std::vector<std::size_t>& iterable,
                 std::size_t* probe);

  /// Pre-iterate capture for one object; inert unless recording().
  struct Observation {
    bool active = false;
    std::size_t index = 0;
    Bounds before = Bounds(0.0, 0.0);
    Bounds est_before = Bounds(0.0, 0.0);
    double raw_cost = 1.0;
    std::uint64_t work_before = 0;
    const WorkMeter* meter = nullptr;
  };

  /// Captures object \p i's pre-iterate state. \p meter (nullable) is used
  /// by the meter-delta Commit overload.
  Observation BeginObserve(std::size_t i, const WorkMeter* meter) const;

  /// Commits \p observation with the actual cost taken from the meter
  /// delta (unknown when the meter is null), then updates the sentinel
  /// fit, the feedback store, and the \p stats audit.
  void CommitObserve(const Observation& observation, OperatorStats* stats);

  /// Commit with an explicitly attributed actual cost (batch paths pass
  /// the per-object spend; pass a negative value for "unknown").
  void CommitObserveCost(const Observation& observation, double actual_cost,
                         OperatorStats* stats);

 private:
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::size_t> probes;  ///< pending, cheapest-first
    std::size_t probes_retired = 0;
    double cost_ratio_sum = 0.0;
    double shrink_ratio_sum = 0.0;
    int cost_samples = 0;
    int shrink_samples = 0;
    bool fitted = false;
    double cost_ratio = 1.0;
    double shrink_ratio = 1.0;
  };

  std::uint64_t IdOf(std::size_t i) const;
  void EnsureGroups();
  void RecordProbe(std::size_t i, double cost_ratio_sample, bool has_cost,
                   double shrink_ratio_sample, bool has_shrink);
  Corrected ApplyRatios(const Bounds& cur, const Bounds& est,
                        double raw_cost, double cost_ratio,
                        double shrink_ratio) const;

  const std::vector<vao::ResultObject*>* objects_;
  CostFeedback* feedback_ = nullptr;
  const std::vector<std::uint64_t>* object_ids_ = nullptr;
  bool correcting_ = false;
  bool probing_ = false;
  bool flip_ = false;
  int sentinel_probes_ = 0;

  bool groups_built_ = false;
  std::map<std::string, Group> groups_;
  /// Per object: group pointer (stable: std::map nodes) or null.
  std::vector<Group*> group_of_;
  /// Per object: 1 = pending probe, 2 = observed/retired probe, 0 = not a
  /// probe.
  std::vector<int> probe_state_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_SCORE_CORRECTOR_H_
