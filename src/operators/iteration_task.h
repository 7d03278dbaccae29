// Copyright 2026 The vaolib Authors.
// IterationTask: resumable operator work units.
//
// Historically each operator ran a closed convergence loop inside
// Evaluate(). This module turns those loops into explicit state machines
// that expose one loop body at a time through Step(), so a caller -- the
// operator's own Evaluate(), or the engine's cross-query WorkScheduler --
// decides when and how much to refine. A task is always sound to abandon:
// Snapshot() returns the best currently-provable answer with
// `converged = false`, which is how budgeted execution degrades gracefully
// instead of blocking.
//
// Behaviour contract: driving a task with Step() until Done() performs the
// exact same Iterate()/chooseIter sequence (and therefore the same work
// charges, stats, and answers) as the pre-task closed loops did.

#ifndef VAOLIB_OPERATORS_ITERATION_TASK_H_
#define VAOLIB_OPERATORS_ITERATION_TASK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/stall_guard.h"
#include "common/work_meter.h"
#include "operators/iteration_strategy.h"
#include "operators/min_max.h"
#include "operators/operator_base.h"
#include "operators/score_heap.h"
#include "operators/sum_ave.h"
#include "operators/top_k.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief A resumable unit of operator work. Step() performs one loop body
/// of the underlying operator (at most one Iterate(), except batched
/// multi-row steps); Done() reports completion; the benefit/cost estimates
/// let a scheduler rank tasks globally.
///
/// Estimates are self-calibrating: benefit is the uncertainty reduction the
/// previous Step() achieved (the task's full remaining uncertainty before
/// the first step), cost is the work-unit delta that step charged. Tasks
/// over shared result objects may see their uncertainty shrink between
/// steps when other tasks tighten the same objects; estimates are therefore
/// hints, never soundness-bearing.
class IterationTask {
 public:
  virtual ~IterationTask() = default;

  virtual const char* name() const = 0;

  /// Predicted accuracy gain of the next Step() (>= 0; 0 once Done).
  double EstimatedBenefit() const;
  /// Predicted work units of the next Step() (>= 1).
  double EstimatedCost() const;

  /// Performs one unit of work, charging bookkeeping to \p meter (nullable;
  /// object Iterate() calls charge whatever meter the objects were created
  /// against). An error completes the task unconverged and is sticky:
  /// stepping a Done() task is FailedPrecondition.
  Status Step(WorkMeter* meter);

  /// True once the task finished (converged, exhausted its inputs, or
  /// errored). Done tasks never need another Step().
  bool Done() const { return done_; }

  /// True when Done() and the task completed its work (as opposed to
  /// erroring); budget-abandoned tasks are simply never Done.
  bool Converged() const { return done_ && converged_; }

  /// Owner label for spend attribution (the tenant id in multi-tenant
  /// serving; empty outside it). Purely descriptive: scheduling never
  /// reads it.
  const std::string& owner() const { return owner_; }
  void set_owner(std::string owner) { owner_ = std::move(owner); }

 protected:
  /// One loop body of the operator. Must call MarkDone() when the machine
  /// reaches its terminal state.
  virtual Status StepImpl(WorkMeter* meter) = 0;

  /// Called at the start of every Step(), before the step is measured: a
  /// task that caches a view of result objects shared with other tasks
  /// catches up here with what they changed since its previous step.
  virtual void CatchUp(WorkMeter* /*meter*/) {}

  /// False when \p meter has not moved since this task's previous step
  /// ended: no other work, so no other task's iterates, happened between.
  bool MeterMovedSinceLastStep(const WorkMeter* meter) const {
    return meter == nullptr || meter->Total() != total_after_step_;
  }

  /// Current remaining-uncertainty measure (operator-specific, >= 0,
  /// trending to 0 as the task converges). Feeds the benefit estimate.
  virtual double CurrentUncertainty() const = 0;

  void MarkDone(bool converged) {
    done_ = true;
    converged_ = converged;
  }

 private:
  bool done_ = false;
  bool converged_ = false;
  bool calibrated_ = false;
  double est_benefit_ = 0.0;
  double est_cost_ = 1.0;
  std::uint64_t total_after_step_ = 0;
  std::string owner_;
};

/// \brief Drives \p task to completion, honouring \p options.budget when
/// \p options.meter is present: once the meter delta since the call began
/// reaches the budget, driving stops early.
///
/// \return true when the task completed, false when the budget ran out
/// first (callers then read a partial answer via the task's Snapshot()).
Result<bool> DriveTask(IterationTask* task, const OperatorOptions& options);

/// \brief The blocking Evaluate() of every aggregate operator: creates a
/// \p Task over \p inputs, drives it to completion (or to options.budget)
/// and returns its Snapshot(), which reports convergence itself.
template <typename Task, typename Options, typename... Inputs>
auto EvaluateTask(const Options& options, const Inputs&... inputs)
    -> Result<decltype(std::declval<const Task&>().Snapshot())> {
  VAOLIB_ASSIGN_OR_RETURN(auto task, Task::Create(options, inputs...));
  VAOLIB_RETURN_IF_ERROR(DriveTask(task.get(), options).status());
  return task->Snapshot();
}

/// \brief The SUM/AVE greedy score of Section 5.2: the weighted predicted
/// error reduction w * [(estL - L) + (H - estH)] of one Iterate() of
/// \p object, per estimated CPU cycle.
double SumGreedyScore(const vao::ResultObject& object, double weight);

/// \brief The core every aggregate task shares: its objects and strategy,
/// stall guards and touched flags, one refine path and one choose step (the
/// paper's chooseIter). The aggregates differ only in what
/// refining a candidate is worth -- overlap reduction for MIN/MAX and
/// TOP-K, weighted error reduction for SUM/AVE -- and in their own
/// termination rules, which each subclass keeps.
class AggregateTask : public IterationTask {
 protected:
  /// \p label names the operator in errors ("MIN/MAX", "SUM/AVE", ...).
  AggregateTask(const OperatorOptions& options,
                const std::vector<vao::ResultObject*>& objects,
                std::unique_ptr<IterationStrategy> strategy,
                const char* label);

  /// True when object \p i can no longer tighten: it reached its stopping
  /// condition or was quarantined after a refinement stall.
  bool EffectivelyConverged(std::size_t i) const;

  /// The optional parallel pre-phase: bulk-converges every object to
  /// \p options' coarse width on the pool; the adaptive loop starts from
  /// those states.
  Status CoarsePhase(const OperatorOptions& options);

  /// One chooseIter cycle over \p iterable (ascending object indices,
  /// non-empty), charging \p choose_work chooseIter units. Every candidate
  /// i is scored benefit(i, est_bounds()) per estimated CPU cycle, with
  /// width(i) as the fallback when nothing predicts progress, and the
  /// strategy's pick is refined: one object, or a batch cycle under
  /// kBatchGreedy. Defined in iteration_task.cc, where its only
  /// callers live.
  template <typename Benefit, typename Width>
  Status ChooseAndRefine(const std::vector<std::size_t>& iterable,
                         std::uint64_t choose_work, const char* phase,
                         const Benefit& benefit, const Width& width,
                         WorkMeter* meter);

  /// Iterates object \p i once, traced, then records the refinement
  /// against \p phase_counter.
  Status Refine(std::size_t i, const char* phase, double score,
                std::uint64_t* phase_counter, WorkMeter* meter);

  /// Refines \p picks together through the batch tier (lockstep kernels
  /// for compatible objects); \p scores are in pick order.
  Status RefineBatch(const std::vector<std::size_t>& picks,
                     const std::vector<double>& scores, const char* phase,
                     WorkMeter* meter);

  /// NotConverged once more than max_total_iterations were issued.
  Status CheckIterationCap() const;

  /// The accumulated stats, with the object counts filled in.
  OperatorStats Stats() const;

  /// Called after each validated refinement of object \p i.
  virtual void OnRefined(std::size_t /*i*/) {}

  std::vector<vao::ResultObject*> objects_;
  OperatorStats stats_;
  /// Objects refined per cycle: batch_k under kBatchGreedy, else 1.
  const std::size_t batch_k_;

 private:
  /// Validates and records one refinement of object \p i.
  Status Observe(std::size_t i, std::uint64_t* phase_counter);

  const char* label_;
  const std::uint64_t max_iterations_;
  std::unique_ptr<IterationStrategy> strategy_;
  std::vector<StallGuard> stall_;
  std::vector<bool> touched_;
};

/// \brief Resumable MIN/MAX aggregate (the Section 5.1 loop as a state
/// machine): coarse pre-phase, prune/guess/choose search rounds, winner
/// finalization.
class MinMaxIterationTask : public AggregateTask {
 public:
  /// Validates inputs exactly as MinMaxVao::Evaluate() always has.
  /// \p objects must outlive the task.
  static Result<std::unique_ptr<MinMaxIterationTask>> Create(
      const MinMaxOptions& options,
      const std::vector<vao::ResultObject*>& objects);

  const char* name() const override { return "min_max"; }

  /// The final outcome once Done(); before that, a sound partial answer --
  /// the current best guess and an envelope interval guaranteed to contain
  /// the true extreme -- with `converged = false`.
  MinMaxOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  enum class Phase { kCoarse, kSearch, kFinalize };

  MinMaxIterationTask(const MinMaxOptions& options,
                      const std::vector<vao::ResultObject*>& objects,
                      std::unique_ptr<IterationStrategy> strategy);

  Bounds ViewOf(std::size_t i) const;
  /// Max-space [best lower, highest upper] bound over the candidates still
  /// able to be the extreme; \p guess receives the highest-upper one.
  Bounds Envelope(std::size_t* guess) const;
  void Finish();

  MinMaxOptions options_;
  std::vector<std::size_t> alive_;
  Phase phase_ = Phase::kCoarse;
  MinMaxOutcome outcome_;
};

/// \brief Resumable SUM/AVE aggregate (the Section 5.2 loop as a state
/// machine), covering both the O(N)-scan and the lazy-heap greedy paths.
class SumAveIterationTask : public AggregateTask {
 public:
  static Result<std::unique_ptr<SumAveIterationTask>> Create(
      const SumAveOptions& options,
      const std::vector<vao::ResultObject*>& objects,
      std::vector<double> weights);

  const char* name() const override { return "sum_ave"; }

  /// The final outcome once Done(); before that, the current weighted-sum
  /// interval (always sound) with `converged = false`.
  SumOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  enum class Phase { kCoarse, kScan, kHeapScan };

  SumAveIterationTask(const SumAveOptions& options,
                      const std::vector<vao::ResultObject*>& objects,
                      std::vector<double> weights,
                      std::unique_ptr<IterationStrategy> strategy);

  void CatchUp(WorkMeter* meter) override;
  /// Folds the refined object into the running interval.
  void OnRefined(std::size_t i) override { Fold(i); }
  Status StepScan(WorkMeter* meter);
  Status StepHeap(WorkMeter* meter);
  /// Folds object \p i's bounds change since it was last seen into sum_.
  void Fold(std::size_t i);
  Bounds ExactSum() const;
  void Finish();

  SumAveOptions options_;
  std::vector<double> weights_;
  /// Incrementally maintained output interval, and the bounds and
  /// iteration count of every object as last folded into it.
  Bounds sum_;
  std::vector<Bounds> seen_bounds_;
  std::vector<int> seen_iterations_;
  ScoreHeap heap_;
  Phase phase_ = Phase::kCoarse;
  SumOutcome outcome_;
};

/// \brief Resumable TOP-K aggregate: boundary-separation rounds, then
/// member finalization.
class TopKIterationTask : public AggregateTask {
 public:
  static Result<std::unique_ptr<TopKIterationTask>> Create(
      const TopKOptions& options,
      const std::vector<vao::ResultObject*>& objects);

  const char* name() const override { return "top_k"; }

  /// The final outcome once Done(); before that, the current guessed
  /// member set with each member's (sound) bounds and `converged = false`.
  TopKOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  enum class Phase { kCoarse, kBoundary, kFinalize };

  TopKIterationTask(const TopKOptions& options,
                    const std::vector<vao::ResultObject*>& objects,
                    std::unique_ptr<IterationStrategy> strategy);

  Bounds ViewOf(std::size_t i) const;
  /// Object indices with the top k by upper bound first (in max space).
  std::vector<std::size_t> ByUpperBound() const;
  /// Fills \p outcome's member list (most extreme first), their bounds and
  /// the stats for the member set \p members.
  void Describe(std::vector<std::size_t> members, TopKOutcome* outcome) const;
  void Finish();

  TopKOptions options_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> members_;
  std::size_t finalize_cursor_ = 0;
  Phase phase_ = Phase::kCoarse;
  TopKOutcome outcome_;
};

/// \brief How a MultiRowDecisionTask treats a row whose refinement fails.
enum class RowFaultPolicy {
  /// Any row failure -- malformed bounds, a failed Iterate(), a stalled
  /// refinement -- fails the task (blocking selection semantics).
  kFailTask,
  /// A stalled row is settled with its frozen, still sound bounds and
  /// counted in stats; other row failures fail the task.
  kSettleStalls,
  /// Every failing row (null object included) is settled with its Status
  /// (RowStatus()); the task itself never fails on a row.
  kQuarantine,
};

/// \brief Resumable multi-row predicate refinement: one task drives a whole
/// selection -- or a group of point selections decided jointly -- over
/// per-row result objects. Each Step() gives every still-undecided row
/// exactly one Iterate() -- batched on the shared thread pool when `threads
/// > 1` (the per-row Iterate() sequences, and thus all bounds and work
/// totals, are independent of the thread count and equal to driving each
/// row to its decision on its own).
class MultiRowDecisionTask : public IterationTask {
 public:
  using UndecidedFn = std::function<bool(const Bounds&)>;

  static Result<std::unique_ptr<MultiRowDecisionTask>> Create(
      std::vector<vao::ResultObject*> objects, const char* who,
      UndecidedFn undecided, int threads,
      RowFaultPolicy faults = RowFaultPolicy::kSettleStalls);

  const char* name() const override { return "selection_rows"; }

  /// True when row \p i no longer needs refinement (predicate decidable
  /// from bounds, object converged, or quarantined after a failure).
  bool RowSettled(std::size_t i) const { return settled_[i]; }
  /// True when row \p i settled before its object reached the stopping
  /// condition: the predicate was decided from bounds alone.
  bool RowSettledEarly(std::size_t i) const { return settled_early_[i]; }
  /// kQuarantine: the failure that settled row \p i (OK for healthy rows).
  const Status& RowStatus(std::size_t i) const { return row_status_[i]; }

  const OperatorStats& stats() const { return stats_; }

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  MultiRowDecisionTask(std::vector<vao::ResultObject*> objects,
                       const char* who, UndecidedFn undecided, int threads,
                       RowFaultPolicy faults);

  void Resettle(std::size_t i);
  /// Applies the fault policy to row \p i's failure: settles the row, or
  /// returns the failure to fail the task.
  Status RowFailed(std::size_t i, Status failure, bool stalled);

  std::vector<vao::ResultObject*> objects_;
  const char* who_;
  UndecidedFn undecided_;
  int threads_;
  RowFaultPolicy faults_;
  std::vector<StallGuard> stall_;
  std::vector<bool> settled_;
  std::vector<bool> settled_early_;
  std::vector<bool> touched_;
  std::vector<Status> row_status_;
  OperatorStats stats_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_ITERATION_TASK_H_
