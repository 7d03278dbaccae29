#include "engine/multi_query.h"

#include <utility>

#include "common/macros.h"

namespace vaolib::engine {

Result<std::unique_ptr<MultiQueryExecutor>> MultiQueryExecutor::Create(
    const Relation* relation, Schema stream_schema,
    std::vector<Query> queries, int threads) {
  MultiQueryOptions options;
  options.threads = threads;
  return Create(relation, std::move(stream_schema), std::move(queries),
                options);
}

Result<std::unique_ptr<MultiQueryExecutor>> MultiQueryExecutor::Create(
    const Relation* relation, Schema stream_schema,
    std::vector<Query> queries, const MultiQueryOptions& options) {
  auto executor = std::unique_ptr<MultiQueryExecutor>(new MultiQueryExecutor());
  VAOLIB_ASSIGN_OR_RETURN(
      executor->pipeline_,
      TickPipeline::Create(relation, std::move(stream_schema),
                           std::move(queries), options, &executor->meter_));
  return executor;
}

Result<std::vector<TickResult>> MultiQueryExecutor::ProcessTick(
    const Tuple& stream_tuple) {
  VAOLIB_ASSIGN_OR_RETURN(auto answers, pipeline_->Run(stream_tuple));
  std::vector<TickResult> results;
  results.reserve(answers.size());
  for (Result<TickResult>& answer : answers) {
    VAOLIB_RETURN_IF_ERROR(answer.status());
    results.push_back(std::move(answer).value());
  }
  return results;
}

}  // namespace vaolib::engine
