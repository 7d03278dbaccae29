// Copyright 2026 The vaolib Authors.
// IterationStrategy: the pluggable iteration-choice policy extracted out of
// the aggregate operators (Section 5's chooseIter, as an interface).
//
// Each adaptive loop round, an operator builds the list of candidates it
// could iterate -- with an operator-specific predicted benefit (MIN/MAX:
// overlap reduction with the guessed extreme; SUM/AVE: weighted error
// reduction; TOP-K: cross-boundary overlap reduction) -- and asks the
// strategy which one to refine. Extracting the choice from the loops gives
// every operator family the same ablation axis and gives the engine's
// WorkScheduler one seam to reason about benefit/cost at.

#ifndef VAOLIB_OPERATORS_ITERATION_STRATEGY_H_
#define VAOLIB_OPERATORS_ITERATION_STRATEGY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "operators/operator_base.h"

namespace vaolib::operators {

/// \brief One object the operator could iterate next.
struct IterationCandidate {
  /// Index of the object in the operator's input vector.
  std::size_t index = 0;
  /// Operator-specific predicted accuracy gain of one Iterate() call.
  /// Only meaningful when the strategy WantsScores().
  double benefit = 0.0;
  /// Estimated CPU cycles of that call (>= 1); see ResultObject::est_cost().
  double cost = 1.0;
  /// Fallback priority when every predicted benefit is zero: an actual
  /// (not estimated) width measure, so refinement keeps making real
  /// progress even when estimates lie. Only meaningful with WantsScores().
  double width = 0.0;
};

/// \brief Picks which candidate to iterate next. Implementations are
/// stateful (round-robin keeps a cursor) and not thread-safe; operators own
/// one strategy per evaluation.
class IterationStrategy {
 public:
  virtual ~IterationStrategy() = default;

  /// Source-level name, StrategyKindName() of its kind: "greedy",
  /// "round_robin", "random" or "batch_greedy".
  virtual const char* name() const = 0;

  /// True when Choose() reads benefit/cost/width. Operators skip computing
  /// scores -- which calls est_bounds()/est_cost() -- for strategies that
  /// never look at them.
  virtual bool WantsScores() const = 0;

  /// Returns the position in \p candidates of the chosen candidate (its
  /// object is `candidates[position].index`). \p candidates is non-empty,
  /// ordered as the operator enumerates its iterable set (the greedy
  /// first-maximum tie-break depends on that order).
  virtual std::size_t Choose(
      const std::vector<IterationCandidate>& candidates) = 0;

  /// Fills \p chosen with up to \p max_batch candidate *positions* for
  /// one cycle, best first, never empty for non-empty \p candidates. The
  /// base implementation picks exactly Choose() -- one object per cycle;
  /// the greedy strategy ranks the top \p max_batch (the aggregates ask for
  /// more than one only under kBatchGreedy). With max_batch <= 1 every
  /// implementation must reproduce Choose() exactly.
  virtual void ChooseBatch(const std::vector<IterationCandidate>& candidates,
                           std::size_t max_batch,
                           std::vector<std::size_t>* chosen) {
    (void)max_batch;
    chosen->assign(1, Choose(candidates));
  }
};

/// \brief Builds the strategy for \p kind. \p rng is required for
/// StrategyKind::kRandom (InvalidArgument otherwise) and ignored by the
/// deterministic strategies; it must outlive the returned strategy.
Result<std::unique_ptr<IterationStrategy>> MakeStrategy(StrategyKind kind,
                                                        Rng* rng);

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_ITERATION_STRATEGY_H_
