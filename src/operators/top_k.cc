#include "operators/top_k.h"

#include <algorithm>

#include "common/macros.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

Status ValidateTopKInputs(const std::vector<vao::ResultObject*>& objects,
                          std::size_t k, double epsilon) {
  const std::size_t n = objects.size();
  if (n == 0) {
    return Status::InvalidArgument("TOP-K over an empty object set");
  }
  if (k < 1 || k > n) {
    return Status::InvalidArgument("TOP-K k must lie in [1, n]");
  }
  double max_min_width = 0.0;
  for (const auto* object : objects) {
    if (object == nullptr) {
      return Status::InvalidArgument("TOP-K over a null result object");
    }
    VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(*object, "TOP-K"));
    max_min_width = std::max(max_min_width, object->min_width());
  }
  if (epsilon < max_min_width) {
    return Status::InvalidArgument(
        "precision constraint below the largest input minWidth");
  }
  return Status::OK();
}

Result<TopKOutcome> TopKVao::Evaluate(
    const std::vector<vao::ResultObject*>& objects) const {
  return EvaluateTask<TopKIterationTask>(options_, objects);
}

}  // namespace vaolib::operators
