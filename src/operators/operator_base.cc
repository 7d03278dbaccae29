#include "operators/operator_base.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace vaolib::operators {

Status ParallelCoarseConverge(const std::vector<vao::ResultObject*>& objects,
                              int threads, double coarse_width,
                              std::uint64_t max_steps_per_object,
                              std::vector<std::uint64_t>* iterations_out) {
  const std::size_t n = objects.size();
  if (iterations_out != nullptr) {
    iterations_out->assign(n, 0);
  }
  if (n == 0 || threads < 2 || !std::isfinite(coarse_width)) {
    return Status::OK();
  }

  auto body = [&](std::size_t begin, std::size_t end,
                  WorkMeter* /*chunk_meter*/) {
    Status first_error;
    for (std::size_t i = begin; i < end; ++i) {
      vao::ResultObject* object = objects[i];
      const double target = std::max(coarse_width, object->min_width());
      std::uint64_t steps = 0;
      // The coarse phase is opportunistic, so a stalled object just exits
      // early (no error); the serial loop that follows handles it.
      StallGuard guard;
      while (object->bounds().Width() > target &&
             !object->AtStoppingCondition() && !guard.stalled() &&
             (max_steps_per_object == 0 || steps < max_steps_per_object)) {
        const Status status = object->Iterate();
        if (!status.ok()) {
          if (first_error.ok()) first_error = status;
          break;
        }
        ++steps;
        guard.Observe(object->bounds().Width());
      }
      // Distinct indices per worker: no synchronization needed.
      if (iterations_out != nullptr) (*iterations_out)[i] = steps;
    }
    return first_error;
  };

  ThreadPool::ForOptions options;
  options.max_parallelism = threads;
  return ThreadPool::Shared().ParallelFor(n, options, /*meter=*/nullptr,
                                          body);
}

Status ValidateObjectBounds(const vao::ResultObject& object, const char* who) {
  const Bounds b = object.bounds();
  if (!std::isfinite(b.lo) || !std::isfinite(b.hi)) {
    return Status::NumericError(std::string(who) +
                                ": result object produced non-finite bounds");
  }
  if (b.lo > b.hi) {
    return Status::NumericError(std::string(who) +
                                ": result object produced inverted bounds "
                                "(L > H)");
  }
  return Status::OK();
}

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kGreedy:
      return "greedy";
    case StrategyKind::kRoundRobin:
      return "round_robin";
    case StrategyKind::kRandom:
      return "random";
    case StrategyKind::kBatchGreedy:
      return "batch_greedy";
  }
  return "?";
}

const char* ComparatorToString(Comparator cmp) {
  switch (cmp) {
    case Comparator::kGreaterThan:
      return ">";
    case Comparator::kGreaterEqual:
      return ">=";
    case Comparator::kLessThan:
      return "<";
    case Comparator::kLessEqual:
      return "<=";
  }
  return "?";
}

bool CompareExact(double value, Comparator cmp, double constant) {
  switch (cmp) {
    case Comparator::kGreaterThan:
      return value > constant;
    case Comparator::kGreaterEqual:
      return value >= constant;
    case Comparator::kLessThan:
      return value < constant;
    case Comparator::kLessEqual:
      return value <= constant;
  }
  return false;
}

}  // namespace vaolib::operators
