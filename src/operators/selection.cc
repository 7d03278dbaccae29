#include "operators/selection.h"

#include <string>

#include "common/macros.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

namespace {

// Drives `object` while `undecided(bounds)` holds and the stopping condition
// has not been reached, then fills the decision-independent part of
// `outcome`. The loop itself is a one-row MultiRowDecisionTask
// (operators/iteration_task.h) that fails on any fault; this helper drives
// it to completion for the blocking evaluation path.
template <typename Outcome, typename Undecided>
Status Decide(vao::ResultObject* object, const char* who,
              const Undecided& undecided, Outcome* outcome) {
  if (object == nullptr) {
    return Status::InvalidArgument(std::string(who) +
                                   " over null result object");
  }
  VAOLIB_ASSIGN_OR_RETURN(
      auto task,
      MultiRowDecisionTask::Create({object}, who, undecided, /*threads=*/1,
                                   RowFaultPolicy::kFailTask));
  while (!task->Done()) {
    VAOLIB_RETURN_IF_ERROR(task->Step(/*meter=*/nullptr));
  }
  outcome->stats = task->stats();
  outcome->short_circuited = !object->AtStoppingCondition();
  outcome->final_bounds = object->bounds();
  return Status::OK();
}

}  // namespace

Result<SelectionOutcome> SelectionVao::Evaluate(
    vao::ResultObject* object) const {
  SelectionOutcome outcome;
  // Iterate while the bounds still straddle the constant and the stopping
  // condition has not been reached (Section 3.2).
  VAOLIB_RETURN_IF_ERROR(Decide(
      object, "selection",
      [this](const Bounds& b) { return Undecided(b); }, &outcome));
  // Converged while still straddling: the value is treated as equal to the
  // constant (Section 3.2).
  outcome.resolved_as_equal = Undecided(outcome.final_bounds);
  outcome.passes = Passes(outcome.final_bounds);
  return outcome;
}

bool SelectionVao::Passes(const Bounds& b) const {
  return CompareExact(Undecided(b) ? constant_ : b.Mid(), cmp_, constant_);
}

Result<SelectionOutcome> SelectionVao::Evaluate(
    const vao::VariableAccuracyFunction& function,
    const std::vector<double>& args, WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object,
                          function.Invoke(args, meter));
  return Evaluate(object.get());
}

Result<SelectionOutcome> RangeSelectionVao::Evaluate(
    vao::ResultObject* object) const {
  if (object != nullptr && !range_.IsValid()) {
    return Status::InvalidArgument("range selection needs lo <= hi");
  }

  SelectionOutcome outcome;
  // Iterate until both endpoints are cleared or the object converges.
  VAOLIB_RETURN_IF_ERROR(Decide(
      object, "range selection",
      [this](const Bounds& b) { return Undecided(b); }, &outcome));
  outcome.resolved_as_equal = Undecided(outcome.final_bounds);
  outcome.passes = Passes(outcome.final_bounds);
  return outcome;
}

Result<SelectionOutcome> RangeSelectionVao::Evaluate(
    const vao::VariableAccuracyFunction& function,
    const std::vector<double>& args, WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object,
                          function.Invoke(args, meter));
  return Evaluate(object.get());
}

Result<MultiSelectionVao::MultiOutcome> MultiSelectionVao::Evaluate(
    vao::ResultObject* object) const {
  if (object != nullptr && predicates_.empty()) {
    return Status::InvalidArgument("multi-selection with no predicates");
  }

  MultiOutcome outcome;
  // Iterate while ANY constant is still inside the bounds; the nearest
  // constant to the true value dictates the total work.
  VAOLIB_RETURN_IF_ERROR(Decide(
      object, "multi-selection",
      [&](const Bounds& b) {
        for (const Predicate& p : predicates_) {
          if (b.Contains(p.constant)) return true;
        }
        return false;
      },
      &outcome));

  outcome.passes.reserve(predicates_.size());
  outcome.resolved_as_equal.reserve(predicates_.size());
  for (const Predicate& p : predicates_) {
    const SelectionVao single(p.cmp, p.constant);
    outcome.passes.push_back(single.Passes(outcome.final_bounds));
    outcome.resolved_as_equal.push_back(single.Undecided(outcome.final_bounds));
  }
  return outcome;
}

Result<MultiSelectionVao::MultiOutcome> MultiSelectionVao::Evaluate(
    const vao::VariableAccuracyFunction& function,
    const std::vector<double>& args, WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object,
                          function.Invoke(args, meter));
  return Evaluate(object.get());
}

Result<bool> TraditionalSelection::Evaluate(
    const vao::BlackBoxFunction& function, const std::vector<double>& args,
    WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(const double value, function.Call(args, meter));
  return CompareExact(value, cmp_, constant_);
}

}  // namespace vaolib::operators
