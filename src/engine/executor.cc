#include "engine/executor.h"

#include <utility>

#include "common/macros.h"
#include "engine/report_capture.h"

namespace vaolib::engine {

namespace {

// VAO failures the kDegrade policy may answer through the black-box
// fallback: numeric breakdowns, exhausted iteration budgets, refinement
// stalls. Anything else (bad bindings, empty inputs, ...) stays fatal --
// the traditional path would fail the same way.
bool IsDegradableFailure(const Status& status) {
  return status.Is(StatusCode::kNumericError) ||
         status.Is(StatusCode::kResourceExhausted) ||
         status.Is(StatusCode::kNotConverged);
}

}  // namespace

CqExecutor::CqExecutor(const Relation* relation, Schema stream_schema,
                       Query query, ExecutionMode mode, int threads,
                       ResiliencePolicy resilience)
    : relation_(relation),
      stream_schema_(std::move(stream_schema)),
      query_(std::move(query)),
      mode_(mode),
      threads_(std::max(threads, 1)),
      resilience_(resilience) {}

Result<std::unique_ptr<CqExecutor>> CqExecutor::Create(
    const Relation* relation, Schema stream_schema, Query query,
    ExecutionMode mode, int threads, ResiliencePolicy resilience) {
  auto executor = std::unique_ptr<CqExecutor>(new CqExecutor(
      relation, std::move(stream_schema), std::move(query), mode, threads,
      resilience));
  MultiQueryOptions options;
  options.threads = executor->threads_;
  VAOLIB_ASSIGN_OR_RETURN(
      executor->pipeline_,
      TickPipeline::Create(relation, executor->stream_schema_,
                           {executor->query_}, options, &executor->meter_,
                           mode, resilience));
  return executor;
}

Result<TickResult> CqExecutor::RunOne(TickPipeline* pipeline,
                                      const WorkMeter& meter,
                                      const Tuple& stream_tuple) {
  // A lone query owns the whole tick: its work and the tick-wide sections
  // (solver, calibration, cache, pool) are the tick's.
  const ReportCapture capture(
      meter, ReportCapture::CacheOf(pipeline->queries().front().function));
  VAOLIB_ASSIGN_OR_RETURN(auto results, pipeline->Run(stream_tuple));
  Result<TickResult> result = std::move(results.front());
  if (result.ok()) {
    capture.Finish(meter, &result->report);
    result->work_units = result->report.work.Total();
  }
  return result;
}

Result<TickResult> CqExecutor::ProcessTick(const Tuple& stream_tuple) {
  auto result = RunOne(pipeline_.get(), meter_, stream_tuple);
  if (result.ok() || mode_ == ExecutionMode::kTraditional) return result;
  return FallbackOrError(stream_tuple, result.status());
}

Result<TickResult> CqExecutor::FallbackOrError(const Tuple& stream_tuple,
                                               const Status& cause) {
  if (resilience_ != ResiliencePolicy::kDegrade ||
      !IsDegradableFailure(cause)) {
    return cause;
  }
  if (fallback_ == nullptr) {
    Query exact = query_;
    exact.approx.reset();
    VAOLIB_ASSIGN_OR_RETURN(
        fallback_,
        TickPipeline::Create(relation_, stream_schema_, {std::move(exact)},
                             MultiQueryOptions{}, &meter_,
                             ExecutionMode::kTraditional));
  }
  auto fallback = RunOne(fallback_.get(), meter_, stream_tuple);
  if (!fallback.ok()) {
    // Even the black box could not answer (e.g. its calibration pass hit the
    // same stall); surface the original VAO failure, which names the root
    // cause, with the fallback's failure appended.
    return cause.WithContext("black-box fallback also failed (" +
                             fallback.status().ToString() + ")");
  }
  TickResult result = std::move(fallback).value();
  result.degraded = true;
  result.degradation_cause = cause;
  return result;
}

}  // namespace vaolib::engine
