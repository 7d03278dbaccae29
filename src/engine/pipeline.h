// Copyright 2026 The vaolib Authors.
// TickPipeline: the one way a stream tick runs, for a single standing query
// (CqExecutor) and for a group of queries over the same UDF
// (MultiQueryExecutor) alike. A tick is the paper's VAO loop in three steps:
//
//   plan   bind the arguments for this tick, create the per-row result
//          objects every exact query shares (or the sampled objects of an
//          approximate query, or the black-box calls of traditional mode),
//          and build one resumable IterationTask per query. Under
//          SchedulerPolicy::kSequential a group's point selections become
//          one joint decision task: each object is refined until every
//          selection constant is decided, so m alerts cost about as much as
//          the hardest one.
//   drive  a WorkScheduler steps the tasks. kSequential runs each task to
//          completion in plan order (unscheduled execution); the budgeted
//          policies interleave them under a work budget.
//   emit   one site turns every task's state into the query's TickResult,
//          its ExecutionReport, its progress sample and the tick metrics. A
//          query whose plan or drive failed gets its own error; the other
//          queries still answer.

#ifndef VAOLIB_ENGINE_PIPELINE_H_
#define VAOLIB_ENGINE_PIPELINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/work_meter.h"
#include "engine/query.h"
#include "engine/relation.h"
#include "engine/scheduler.h"
#include "engine/schema.h"
#include "obs/execution_report.h"
#include "operators/operator_base.h"
#include "vao/answer.h"
#include "vao/black_box.h"

namespace vaolib::engine {

/// \brief Whether a query runs with VAOs or with traditional black-box
/// operators (the Section 6 baseline).
enum class ExecutionMode { kVao, kTraditional };

/// \brief How a VAO-mode tick reacts to result-object failures (NaN/Inf or
/// inverted bounds, Iterate() errors, refinement stalls, iteration budgets).
enum class ResiliencePolicy {
  /// Any failing row/object fails the whole tick with its Status (default;
  /// matches the pre-resilience behaviour exactly).
  kStrict,
  /// Selections quarantine failing rows (excluded from passing_rows,
  /// reported in TickResult::quarantined_rows) and still answer; aggregates
  /// whose VAO evaluation fails with a degradable code (NumericError,
  /// ResourceExhausted, NotConverged) fall back to the calibrated black-box
  /// path and mark the result degraded. Crashes and hangs become answers
  /// with an attached cause, never silent wrong results.
  kDegrade,
};

/// \brief Output of one stream tick.
struct TickResult {
  QueryKind kind = QueryKind::kSelect;

  /// kSelect: indices of relation rows whose predicate passed.
  std::vector<std::size_t> passing_rows;

  /// kMax/kMin: the winning relation row.
  std::optional<std::size_t> winner_row;

  /// kTopK: selected rows (most extreme first) and their bounds.
  std::vector<std::size_t> top_rows;
  std::vector<Bounds> top_bounds;
  /// True when the winner is only determined up to minWidth ties.
  bool tie = false;

  /// Aggregate output: hard bounds in exact mode (degenerate [v, v] in
  /// traditional mode), a probabilistic combined interval with provenance
  /// when the query requested approximate execution. Assigning a plain
  /// Bounds keeps the exact semantics (mode = kExact, confidence 1).
  vao::Answer aggregate_bounds;

  operators::OperatorStats stats;
  /// Work units charged during this tick (all WorkKinds).
  std::uint64_t work_units = 0;

  /// False when a scheduled tick's work budget ran out before this query
  /// finished: the answer above is then a sound partial result (aggregate
  /// bounds are an envelope containing the true value; undecided selection
  /// rows resolve by their current bounds). Always true for unscheduled
  /// execution, which drives every query to convergence.
  bool converged = true;

  /// \name Resilience accounting. Row quarantine and black-box fallback
  /// happen only under ResiliencePolicy::kDegrade; the degraded flag is
  /// also set (in any policy) when an aggregate quarantined stalled
  /// objects, since the answer is then sound but coarser than requested.
  /// @{
  /// True when any quarantine or black-box fallback happened this tick.
  bool degraded = false;
  /// The first failure that triggered degradation (OK when !degraded).
  Status degradation_cause;
  /// kSelect/kSelectRange: rows whose evaluation failed; they are excluded
  /// from passing_rows (ascending order).
  std::vector<std::size_t> quarantined_rows;
  /// @}

  /// Structured observability account of this tick; report.work.Total()
  /// always equals work_units.
  obs::ExecutionReport report;
};

/// \brief Fills \p report's convergence-progress section (obs/health.h feeds
/// these into per-query ProgressRings) from one query's finished tick.
/// Interval-valued kinds (extremes, aggregates, TOP-K) report the answer
/// interval's width and relative width; selections report 0.
/// limited_by_min_width marks a tick that finished (not cut off by a
/// scheduler budget) yet could not reach the requested precision: an
/// aggregate still wider than epsilon, or an extreme/TOP-K decided only up
/// to minWidth ties. More budget cannot tighten such an answer.
inline void FillProgressSection(const TickResult& result, double epsilon,
                                obs::ExecutionReport* report) {
  const bool interval_kind = result.kind != QueryKind::kSelect &&
                             result.kind != QueryKind::kSelectRange;
  double width = 0.0;
  double rel = 0.0;
  if (interval_kind) {
    width = result.aggregate_bounds.Width();
    const double scale = std::max(std::fabs(result.aggregate_bounds.lo),
                                  std::fabs(result.aggregate_bounds.hi));
    if (!std::isfinite(width)) width = 0.0;  // unbounded: no useful sample
    if (scale > 0.0 && std::isfinite(scale)) rel = width / scale;
  }
  report->answer_width = width;
  report->answer_rel_width = rel;
  const bool epsilon_kind =
      result.kind == QueryKind::kSum || result.kind == QueryKind::kAve;
  report->limited_by_min_width =
      result.converged &&
      ((epsilon_kind && width > epsilon) || (interval_kind && result.tie));
}

/// \brief How a query group runs its ticks.
struct MultiQueryOptions {
  /// > 1 creates the per-tick shared objects through InvokeAll and runs
  /// row-parallel phases on the shared pool.
  int threads = 1;

  /// How the tick's tasks are driven. kSequential (default) converges the
  /// queries one after another in plan order, point selections first;
  /// every other policy is budget-aware scheduled execution: the policy
  /// decides who gets each work grant, and when `scheduler.budget` runs out
  /// every unfinished query still reports a sound partial answer with
  /// TickResult::converged = false. kSequential ignores `scheduler.budget`
  /// (Create() clears it): unscheduled queries always run to convergence.
  SchedulerOptions scheduler{.policy = SchedulerPolicy::kSequential};
  /// Per-query scheduling parameters, parallel to the query list; empty
  /// means defaults (priority 1, no deadline, no reserve) for every query.
  std::vector<QuerySchedule> schedules;

  /// Per-query owner labels (tenant ids in multi-tenant serving), parallel
  /// to the query list or empty. Each owner's exact per-tick spend is
  /// attributed on the query's ExecutionReport (`tenant`) and on its
  /// IterationTask, and accumulated into the
  /// vaolib_owner_work_units_total{owner=...} counter.
  std::vector<std::string> owners;

  /// Iteration strategy for every aggregate operator the executor runs
  /// (see operators/operator_base.h).
  operators::StrategyKind strategy = operators::StrategyKind::kGreedy;
};

/// \brief The plan -> drive -> emit tick loop over a fixed query list.
class TickPipeline {
 public:
  /// Validates the query list and resolves every column reference. All
  /// queries must bind the same function with the same arguments -- that is
  /// what makes sharing the per-row objects sound. Work is charged to
  /// \p meter (borrowed, must outlive the pipeline). Traditional mode
  /// answers through a calibrated black box and rejects APPROX queries.
  static Result<std::unique_ptr<TickPipeline>> Create(
      const Relation* relation, Schema stream_schema,
      std::vector<Query> queries, MultiQueryOptions options, WorkMeter* meter,
      ExecutionMode mode = ExecutionMode::kVao,
      ResiliencePolicy resilience = ResiliencePolicy::kStrict);

  /// The planning checks a standing query must pass before it may join a
  /// group: Create()'s validation, plus the precision constraint against
  /// the function's minWidth floor (an extreme or TOP-K query tighter than
  /// the function can ever converge would fail every tick it plans).
  static Status Validate(const Relation* relation, const Schema& stream_schema,
                         const Query& query);

  /// Runs one tick. The outer Result fails only for tick-wide problems (a
  /// stream tuple not matching the schema, an empty relation); otherwise
  /// each entry, parallel to the query list, is that query's answer or its
  /// own planning/driving failure.
  Result<std::vector<Result<TickResult>>> Run(const Tuple& stream_tuple);

  /// Tick-wide observability account of the most recent Run(): query_kind
  /// "multi", work/solver/cache/pool sections covering the whole tick
  /// (shared object creation included), operator section summed over the
  /// per-query reports.
  const obs::ExecutionReport& last_tick_report() const {
    return last_tick_report_;
  }

  /// Per query, parallel to the query list: the work units the most recent
  /// Run()'s scheduler granted the query's task. It equals an answered
  /// query's report.scheduler_spent and is also kept for a query whose
  /// drive failed, so its owner can be charged; 0 when the plan failed and
  /// under kSequential.
  const std::vector<std::uint64_t>& last_scheduler_spent() const {
    return last_scheduler_spent_;
  }

  const std::vector<Query>& queries() const { return queries_; }
  const MultiQueryOptions& options() const { return options_; }

 private:
  struct Tick;
  struct QueryPlan;

  TickPipeline(const Relation* relation, Schema stream_schema,
               std::vector<Query> queries, MultiQueryOptions options,
               WorkMeter* meter, ExecutionMode mode,
               ResiliencePolicy resilience);

  bool Sequential() const {
    return options_.scheduler.policy == SchedulerPolicy::kSequential;
  }

  /// Pre-resolved argument binding: (source, column index or constant).
  struct BoundArg {
    ArgRef::Source source;
    std::size_t index = 0;
    double constant = 0.0;
  };
  static Result<std::vector<BoundArg>> Bind(const Relation& relation,
                                            const Schema& stream_schema,
                                            const Query& query);
  /// Create()'s per-query checks.
  static Status CheckQuery(const Relation& relation,
                           const Schema& stream_schema, const Query& query,
                           ExecutionMode mode);

  /// Resolves ArgRefs into row \p row's argument vector for this tick.
  Result<std::vector<double>> BuildArgs(const Tuple& stream_tuple,
                                        std::size_t row) const;
  Result<std::vector<std::vector<double>>> BuildRows(
      const Tuple& stream_tuple, const std::vector<std::size_t>* rows) const;
  Result<std::vector<double>> Weights(const Query& query) const;

  /// \name Plan: shared objects, then one task per query (a joint task for
  /// sequential point selections).
  /// @{
  void Plan(Tick* tick);
  void CreateSharedObjects(Tick* tick);
  /// One decision task for the selections \p members (several point
  /// selections decide jointly under kSequential).
  void PlanSelections(const std::vector<std::size_t>& members, Tick* tick);
  /// Every other exact or approximate query.
  Status PlanQuery(std::size_t q, Tick* tick);
  Status PlanTraditional(std::size_t q, Tick* tick);
  /// @}

  /// Emit: the one site that fills TickResult, report, progress, metrics.
  std::vector<Result<TickResult>> Emit(
      const Tick& tick, const std::vector<TaskScheduleStats>& stats,
      const std::vector<Status>& task_errors);

  const Relation* relation_;
  Schema stream_schema_;
  std::vector<Query> queries_;
  MultiQueryOptions options_;
  WorkMeter* meter_;
  ExecutionMode mode_;
  ResiliencePolicy resilience_;
  obs::ExecutionReport last_tick_report_;
  std::vector<std::uint64_t> last_scheduler_spent_;

  std::vector<BoundArg> bound_args_;  ///< shared bindings (validated equal)
  /// Traditional mode's baseline (lazy per-args calibration cache inside).
  std::unique_ptr<vao::CalibratedBlackBox> black_box_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_PIPELINE_H_
