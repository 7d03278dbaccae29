// Copyright 2026 The vaolib Authors.
// MultiQueryExecutor: shared execution of many standing queries over the
// same UDF -- the continuous-query deployment the paper's introduction
// motivates (many traders' queries over the same bond models).
//
// All registered queries must bind the SAME function with the SAME argument
// references; that is exactly what makes sharing sound: per stream tick one
// result object is created per relation row, every query's operator works
// over those shared objects, and since bounds only tighten, work done for
// one query is free for the next. Unscheduled, point-selection predicates
// are decided jointly so each object is iterated once for ALL selection
// constants (cost tracks the hardest predicate, not the query count). The
// tick itself is the pipeline of engine/pipeline.h.

#ifndef VAOLIB_ENGINE_MULTI_QUERY_H_
#define VAOLIB_ENGINE_MULTI_QUERY_H_

#include <memory>
#include <vector>

#include "common/work_meter.h"
#include "engine/executor.h"
#include "engine/pipeline.h"
#include "engine/query.h"
#include "engine/relation.h"
#include "engine/schema.h"

namespace vaolib::engine {

/// \brief Shared-execution runner for a set of standing queries.
class MultiQueryExecutor {
 public:
  /// Builds the executor; every query must have the same `function` and
  /// `args` bindings (InvalidArgument otherwise). Traditional mode is not
  /// supported here -- use one CqExecutor per query for baselines.
  /// With options.threads > 1 the per-tick shared objects are created
  /// through InvokeAll and the selection predicates resolve row-parallel on
  /// the shared pool; aggregate operators then run serially over the
  /// tightened objects with a parallel coarse phase (see
  /// MinMaxOptions/SumAveOptions). options.scheduler.policy other than
  /// kSequential switches ticks to budget-aware scheduled execution (see
  /// MultiQueryOptions).
  static Result<std::unique_ptr<MultiQueryExecutor>> Create(
      const Relation* relation, Schema stream_schema,
      std::vector<Query> queries, const MultiQueryOptions& options);

  /// Pre-scheduler signature, kept so existing call sites compile
  /// unchanged; equivalent to passing MultiQueryOptions{.threads = threads}.
  static Result<std::unique_ptr<MultiQueryExecutor>> Create(
      const Relation* relation, Schema stream_schema,
      std::vector<Query> queries, int threads = 1);

  /// Re-evaluates every query for \p stream_tuple over shared result
  /// objects. Results are parallel to the constructor's query list; the
  /// tick fails with the first failing query's Status.
  ///
  /// Unscheduled, each TickResult's work_units reports the work
  /// attributable to that query's operator phase (object creation is
  /// charged to the point selections, or to a sampled query's own draw).
  /// Scheduled, work_units is instead the exact work-unit spend the
  /// scheduler granted that query (the spends sum to the scheduler run's
  /// meter delta; object creation is accounted in the tick-wide report),
  /// and converged reflects whether the query finished within the budget.
  Result<std::vector<TickResult>> ProcessTick(const Tuple& stream_tuple);

  /// ProcessTick() with per-query failure isolation: a query whose plan or
  /// drive failed gets its own error entry, and every other query still
  /// answers.
  Result<std::vector<Result<TickResult>>> ProcessTickIsolated(
      const Tuple& stream_tuple) {
    return pipeline_->Run(stream_tuple);
  }

  /// Cumulative work across all ticks and queries.
  const WorkMeter& meter() const { return meter_; }
  void ResetMeter() { meter_.Reset(); }

  /// Tick-wide observability account of the most recent ProcessTick():
  /// query_kind "multi", work/cache/pool sections covering the whole tick
  /// (shared object creation included), operator section summed over the
  /// per-query reports. Each TickResult additionally carries its own report
  /// whose work section is that query's exact work_units split by kind.
  const obs::ExecutionReport& last_tick_report() const {
    return pipeline_->last_tick_report();
  }

  /// Per query: the scheduler's grant to its task in the most recent tick,
  /// kept for failed queries too (TickPipeline::last_scheduler_spent()).
  const std::vector<std::uint64_t>& last_scheduler_spent() const {
    return pipeline_->last_scheduler_spent();
  }

  std::size_t query_count() const { return pipeline_->queries().size(); }
  int threads() const { return pipeline_->options().threads; }
  const MultiQueryOptions& options() const { return pipeline_->options(); }

 private:
  MultiQueryExecutor() = default;

  WorkMeter meter_;
  std::unique_ptr<TickPipeline> pipeline_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_MULTI_QUERY_H_
