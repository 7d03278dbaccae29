#include "operators/min_max.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

namespace {

// The oracle works in "max space": for kMin every interval is negated
// ([-H, -L]) so the minimum becomes the maximum.
Bounds View(const Bounds& b, ExtremeKind kind) {
  return kind == ExtremeKind::kMax ? b : Bounds(-b.hi, -b.lo);
}

}  // namespace

Status ValidateMinMaxInputs(const std::vector<vao::ResultObject*>& objects,
                            double epsilon) {
  if (objects.empty()) {
    return Status::InvalidArgument("MIN/MAX over an empty object set");
  }
  double max_min_width = 0.0;
  for (const auto* object : objects) {
    if (object == nullptr) {
      return Status::InvalidArgument("MIN/MAX over a null result object");
    }
    VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(*object, "MIN/MAX"));
    max_min_width = std::max(max_min_width, object->min_width());
  }
  // Footnote 10: bounds within epsilon cannot be guaranteed when epsilon is
  // tighter than an input's convergence floor.
  if (epsilon < max_min_width) {
    return Status::InvalidArgument(
        "precision constraint " + std::to_string(epsilon) +
        " is below the largest input minWidth " +
        std::to_string(max_min_width));
  }
  return Status::OK();
}

Result<MinMaxOutcome> MinMaxVao::Evaluate(
    const std::vector<vao::ResultObject*>& objects) const {
  return EvaluateTask<MinMaxIterationTask>(options_, objects);
}

Result<MinMaxOutcome> OptimalExtremeOracle(
    const std::vector<vao::ResultObject*>& objects, std::size_t winner_index,
    ExtremeKind kind, double epsilon) {
  VAOLIB_RETURN_IF_ERROR(ValidateMinMaxInputs(objects, epsilon));
  if (winner_index >= objects.size()) {
    return Status::InvalidArgument("oracle winner_index out of range");
  }

  MinMaxOutcome outcome;
  outcome.winner_index = winner_index;
  vao::ResultObject* winner = objects[winner_index];

  // Converge the known winner to the output precision first; running it any
  // tighter would be wasted work (Section 6.2).
  while (winner->bounds().Width() > epsilon &&
         !winner->AtStoppingCondition()) {
    VAOLIB_RETURN_IF_ERROR(winner->Iterate());
    ++outcome.stats.iterations;
  }

  // Then push every rival just past the winner's bounds.
  const Bounds winner_view = View(winner->bounds(), kind);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i == winner_index) continue;
    bool iterated = false;
    while (View(objects[i]->bounds(), kind).hi >= winner_view.lo &&
           !objects[i]->AtStoppingCondition()) {
      VAOLIB_RETURN_IF_ERROR(objects[i]->Iterate());
      ++outcome.stats.iterations;
      iterated = true;
    }
    if (View(objects[i]->bounds(), kind).hi >= winner_view.lo) {
      outcome.tie = true;
      outcome.tied_indices.push_back(i);
    }
    if (iterated) ++outcome.stats.objects_touched;
  }
  if (outcome.stats.iterations > 0) ++outcome.stats.objects_touched;

  outcome.winner_bounds = winner->bounds();
  return outcome;
}

}  // namespace vaolib::operators
