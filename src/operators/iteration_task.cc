#include "operators/iteration_task.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "vao/batch_iterate.h"
#include "vao/parallel.h"

namespace vaolib::operators {

namespace {

// Work in "max space": for kMin every interval is negated ([-H, -L]) so the
// minimum becomes the maximum, and results are negated back at the end.
Bounds View(const Bounds& b, ExtremeKind kind) {
  return kind == ExtremeKind::kMax ? b : Bounds(-b.hi, -b.lo);
}

Bounds Unview(const Bounds& b, ExtremeKind kind) {
  return kind == ExtremeKind::kMax ? b : Bounds(-b.hi, -b.lo);
}

// Weighted predicted error reduction of Section 5.2 for an object at \p cur
// predicted to tighten to \p est.
double SumReduction(const Bounds& cur, const Bounds& est, double weight) {
  return std::max(0.0, weight * ((est.lo - cur.lo) + (cur.hi - est.hi)));
}

double EstCostOf(const vao::ResultObject& object) {
  return static_cast<double>(
      std::max<std::uint64_t>(object.est_cost(), 1));
}

std::uint64_t Log2Ceil(std::size_t n) {
  std::uint64_t bits = 1;
  while (n > 1) {
    ++bits;
    n >>= 1;
  }
  return bits;
}

// Decision-trace capture: arm immediately before the chosen object's
// Iterate(), commit immediately after. Reads only the free accessors
// (bounds(), est_bounds(), est_cost(), WorkMeter::Total()), so arming a
// capture never changes work totals or iterate sequences -- the determinism
// contract of obs/trace.h.
struct DecisionCapture {
  bool active = false;
  obs::Decision decision;
  const vao::ResultObject* object = nullptr;
  const WorkMeter* meter = nullptr;
  std::uint64_t work_before = 0;
};

DecisionCapture BeginDecision(const char* op, const char* phase,
                              std::size_t index,
                              const vao::ResultObject& object,
                              const WorkMeter* meter, double score) {
  DecisionCapture capture;
  capture.active = obs::DecisionTraceActive();
  if (!capture.active) return capture;
  capture.object = &object;
  capture.meter = meter;
  capture.decision.op = op;
  capture.decision.phase = phase;
  capture.decision.object_index = static_cast<std::uint64_t>(index);
  const Bounds before = object.bounds();
  capture.decision.lo_before = before.lo;
  capture.decision.hi_before = before.hi;
  const Bounds est = object.est_bounds();
  capture.decision.est_lo = est.lo;
  capture.decision.est_hi = est.hi;
  capture.decision.est_cost = static_cast<double>(object.est_cost());
  capture.decision.score = score;
  capture.work_before = meter != nullptr ? meter->Total() : 0;
  return capture;
}

// Without a meter the actual cost is whatever the caller attributed.
void CommitDecision(DecisionCapture* capture) {
  if (!capture->active) return;
  const Bounds after = capture->object->bounds();
  capture->decision.lo_after = after.lo;
  capture->decision.hi_after = after.hi;
  if (capture->meter != nullptr) {
    capture->decision.actual_cost = static_cast<double>(
        capture->meter->Total() - capture->work_before);
  }
  obs::RecordDecision(capture->decision);
}

// The greedy benefit/cost score a scored candidate records in the decision
// trace (zero for a strategy that does not score).
double TracedScore(const IterationCandidate& candidate) {
  return candidate.benefit / std::max(candidate.cost, 1.0);
}

}  // namespace

double SumGreedyScore(const vao::ResultObject& object, double weight) {
  return SumReduction(object.bounds(), object.est_bounds(), weight) /
         EstCostOf(object);
}

// ---------------------------------------------------------------------------
// IterationTask base
// ---------------------------------------------------------------------------

Status IterationTask::Step(WorkMeter* meter) {
  if (done_) {
    return Status::FailedPrecondition(std::string(name()) +
                                      " task stepped after completion");
  }
  CatchUp(meter);
  const std::uint64_t cost_before = meter != nullptr ? meter->Total() : 0;
  const double uncertainty_before = CurrentUncertainty();
  const Status status = StepImpl(meter);
  if (!status.ok()) {
    done_ = true;
    converged_ = false;
    return status;
  }
  const double uncertainty_after = done_ ? 0.0 : CurrentUncertainty();
  est_benefit_ = std::max(0.0, uncertainty_before - uncertainty_after);
  if (meter != nullptr) {
    total_after_step_ = meter->Total();
    est_cost_ = std::max<double>(
        1.0, static_cast<double>(total_after_step_ - cost_before));
  }
  calibrated_ = true;
  return Status::OK();
}

double IterationTask::EstimatedBenefit() const {
  if (done_) return 0.0;
  return calibrated_ ? est_benefit_ : CurrentUncertainty();
}

double IterationTask::EstimatedCost() const { return est_cost_; }

Result<bool> DriveTask(IterationTask* task, const OperatorOptions& options) {
  WorkMeter* meter = options.meter;
  const std::uint64_t base = meter != nullptr ? meter->Total() : 0;
  while (!task->Done()) {
    if (options.budget > 0 && meter != nullptr &&
        meter->Total() - base >= options.budget) {
      return false;
    }
    VAOLIB_RETURN_IF_ERROR(task->Step(meter));
  }
  return true;
}

// ---------------------------------------------------------------------------
// AggregateTask: the shared choose-and-refine core
// ---------------------------------------------------------------------------

AggregateTask::AggregateTask(const OperatorOptions& options,
                             const std::vector<vao::ResultObject*>& objects,
                             std::unique_ptr<IterationStrategy> strategy,
                             const char* label)
    : objects_(objects),
      // Only the batch-aware strategy reads batch_k; everything else stays
      // at the paper's one object per cycle.
      batch_k_(options.strategy == StrategyKind::kBatchGreedy
                   ? static_cast<std::size_t>(std::max(options.batch_k, 1))
                   : 1),
      label_(label),
      max_iterations_(options.max_total_iterations),
      strategy_(std::move(strategy)),
      stall_(objects.size()),
      touched_(objects.size(), false) {}

bool AggregateTask::EffectivelyConverged(std::size_t i) const {
  return objects_[i]->AtStoppingCondition() || stall_[i].stalled();
}

Status AggregateTask::CoarsePhase(const OperatorOptions& options) {
  std::vector<std::uint64_t> coarse_iterations;
  VAOLIB_RETURN_IF_ERROR(ParallelCoarseConverge(
      objects_, options.threads, options.coarse_width,
      options.coarse_max_steps, &coarse_iterations));
  for (std::size_t i = 0; i < coarse_iterations.size(); ++i) {
    stats_.iterations += coarse_iterations[i];
    stats_.coarse_iterations += coarse_iterations[i];
    if (coarse_iterations[i] > 0) touched_[i] = true;
  }
  return Status::OK();
}

template <typename Benefit, typename Width>
Status AggregateTask::ChooseAndRefine(const std::vector<std::size_t>& iterable,
                                      std::uint64_t choose_work,
                                      const char* phase,
                                      const Benefit& benefit,
                                      const Width& width, WorkMeter* meter) {
  ++stats_.choose_steps;
  if (meter != nullptr) meter->Charge(WorkKind::kChooseIter, choose_work);

  // Every candidate is scored on its own raw estimates -- the paper's
  // estCPU/estL/estH -- unless the strategy never reads scores.
  std::vector<IterationCandidate> candidates;
  candidates.reserve(iterable.size());
  if (!strategy_->WantsScores()) {
    for (const std::size_t i : iterable) {
      candidates.push_back(IterationCandidate{i, 0.0, 1.0, 0.0});
    }
  } else {
    for (const std::size_t i : iterable) {
      const vao::ResultObject& object = *objects_[i];
      candidates.push_back(IterationCandidate{
          i, benefit(i, object.est_bounds()), EstCostOf(object), width(i)});
    }
  }
  std::vector<std::size_t> positions;
  strategy_->ChooseBatch(candidates, batch_k_, &positions);

  if (positions.size() == 1) {
    const std::size_t p = positions.front();
    return Refine(candidates[p].index, phase, TracedScore(candidates[p]),
                  &stats_.greedy_iterations, meter);
  }
  std::vector<std::size_t> picks;
  std::vector<double> scores;
  for (const std::size_t p : positions) {
    picks.push_back(candidates[p].index);
    scores.push_back(TracedScore(candidates[p]));
  }
  return RefineBatch(picks, scores, phase, meter);
}

Status AggregateTask::Refine(std::size_t i, const char* phase, double score,
                             std::uint64_t* phase_counter, WorkMeter* meter) {
  DecisionCapture trace =
      BeginDecision(name(), phase, i, *objects_[i], meter, score);
  VAOLIB_RETURN_IF_ERROR(objects_[i]->Iterate());
  CommitDecision(&trace);
  VAOLIB_RETURN_IF_ERROR(Observe(i, phase_counter));
  return CheckIterationCap();
}

Status AggregateTask::RefineBatch(const std::vector<std::size_t>& picks,
                                  const std::vector<double>& scores,
                                  const char* phase, WorkMeter* meter) {
  // Capture every pick's before-state up front, hand the whole set to
  // vao::IterateBatch (which routes compatible objects through the lockstep
  // kernels), then record decisions and refinements in pick order with the
  // per-object spend the batch tier attributes -- those spends sum exactly
  // to the meter's delta, so traces and accounting match the scalar path.
  std::vector<DecisionCapture> traces;
  std::vector<vao::ResultObject*> batch;
  for (std::size_t j = 0; j < picks.size(); ++j) {
    const std::size_t i = picks[j];
    traces.push_back(BeginDecision(name(), phase, i, *objects_[i], nullptr,
                                   scores[j]));
    batch.push_back(objects_[i]);
  }
  const vao::BatchIterateOutcome outcome = vao::IterateBatch(batch, meter);
  Status first_error;
  for (std::size_t j = 0; j < picks.size(); ++j) {
    traces[j].decision.actual_cost = static_cast<double>(outcome.spent[j]);
    CommitDecision(&traces[j]);
    if (first_error.ok()) first_error = outcome.statuses[j];
  }
  VAOLIB_RETURN_IF_ERROR(first_error);
  for (const std::size_t i : picks) {
    VAOLIB_RETURN_IF_ERROR(Observe(i, &stats_.greedy_iterations));
  }
  return CheckIterationCap();
}

Status AggregateTask::Observe(std::size_t i, std::uint64_t* phase_counter) {
  VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(*objects_[i], label_));
  OnRefined(i);
  stall_[i].Observe(objects_[i]->bounds().Width());
  touched_[i] = true;
  ++*phase_counter;
  ++stats_.iterations;
  return Status::OK();
}

Status AggregateTask::CheckIterationCap() const {
  if (stats_.iterations > max_iterations_) {
    return Status::NotConverged(std::string(label_) +
                                " exceeded max_total_iterations");
  }
  return Status::OK();
}

OperatorStats AggregateTask::Stats() const {
  OperatorStats stats = stats_;
  stats.objects_touched = static_cast<std::uint64_t>(
      std::count(touched_.begin(), touched_.end(), true));
  stats.stalled_objects = static_cast<std::uint64_t>(
      std::count_if(stall_.begin(), stall_.end(),
                    [](const StallGuard& guard) { return guard.stalled(); }));
  return stats;
}

// ---------------------------------------------------------------------------
// MinMaxIterationTask
// ---------------------------------------------------------------------------

MinMaxIterationTask::MinMaxIterationTask(
    const MinMaxOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::unique_ptr<IterationStrategy> strategy)
    : AggregateTask(options, objects, std::move(strategy), "MIN/MAX"),
      options_(options) {}

Result<std::unique_ptr<MinMaxIterationTask>> MinMaxIterationTask::Create(
    const MinMaxOptions& options,
    const std::vector<vao::ResultObject*>& objects) {
  VAOLIB_RETURN_IF_ERROR(ValidateMinMaxInputs(objects, options.epsilon));
  VAOLIB_ASSIGN_OR_RETURN(auto strategy,
                          MakeStrategy(options.strategy, options.rng));
  return std::unique_ptr<MinMaxIterationTask>(
      new MinMaxIterationTask(options, objects, std::move(strategy)));
}

Bounds MinMaxIterationTask::ViewOf(std::size_t i) const {
  return View(objects_[i]->bounds(), options_.kind);
}

Status MinMaxIterationTask::StepImpl(WorkMeter* meter) {
  switch (phase_) {
    case Phase::kCoarse: {
      VAOLIB_RETURN_IF_ERROR(CoarsePhase(options_));
      VAOLIB_RETURN_IF_ERROR(CheckIterationCap());
      // Candidate indices still able to be the maximum; pruned candidates
      // are never reconsidered (bounds only tighten).
      alive_.resize(objects_.size());
      std::iota(alive_.begin(), alive_.end(), std::size_t{0});
      phase_ = Phase::kSearch;
      return Status::OK();
    }

    case Phase::kSearch: {
      // Prune dominated candidates.
      double best_lo = -std::numeric_limits<double>::infinity();
      for (const std::size_t i : alive_) {
        best_lo = std::max(best_lo, ViewOf(i).lo);
      }
      std::erase_if(alive_,
                    [&](std::size_t i) { return ViewOf(i).hi < best_lo; });

      // Guess o'_max: the candidate with the highest upper bound.
      std::size_t guess = alive_.front();
      for (const std::size_t i : alive_) {
        if (ViewOf(i).hi > ViewOf(guess).hi) guess = i;
      }

      // Termination case (1): every rival eliminated.
      if (alive_.size() == 1) {
        outcome_.winner_index = guess;
        phase_ = Phase::kFinalize;
        return Status::OK();
      }
      // Termination case (2): guess and all (overlapping) rivals converged.
      const bool all_converged = std::all_of(
          alive_.begin(), alive_.end(),
          [&](std::size_t i) { return EffectivelyConverged(i); });
      if (all_converged) {
        outcome_.winner_index = guess;
        outcome_.tie = true;
        for (const std::size_t i : alive_) {
          if (i != guess) outcome_.tied_indices.push_back(i);
        }
        phase_ = Phase::kFinalize;
        return Status::OK();
      }

      // Choose the next iteration among live, non-converged candidates
      // (all_converged was false, so the set is non-empty), charging O(N)
      // per choice without indexing (Section 5.1). The benefit is the
      // estimated total-overlap reduction with the guess.
      std::vector<std::size_t> iterable;
      for (const std::size_t i : alive_) {
        if (!EffectivelyConverged(i)) iterable.push_back(i);
      }
      const Bounds guess_bounds = ViewOf(guess);
      const auto reduction = [&](std::size_t i, const Bounds& estimate) {
        const Bounds est = View(estimate, options_.kind);
        if (i != guess) {
          // Iterating rival i shrinks only the (guess, i) overlap. With
          // est inside the current bounds this equals the paper's
          // min(o_i.H - o'max.L, o_i.H - o_i.estH).
          return std::max(0.0, guess_bounds.OverlapWidth(ViewOf(i)) -
                                   guess_bounds.OverlapWidth(est));
        }
        // Iterating the guess shrinks its overlap with every rival.
        double total = 0.0;
        for (const std::size_t j : alive_) {
          if (j == guess) continue;
          const Bounds other = ViewOf(j);
          total += std::max(0.0, guess_bounds.OverlapWidth(other) -
                                     est.OverlapWidth(other));
        }
        return total;
      };
      return ChooseAndRefine(
          iterable, alive_.size(), "search", reduction,
          [&](std::size_t i) { return ViewOf(i).Width(); }, meter);
    }

    case Phase::kFinalize: {
      // Refine the winner to the precision constraint. Its stopping
      // condition implies width < minWidth <= epsilon, so this always
      // terminates (a stalled winner is quarantined with sound-but-wider
      // bounds instead).
      vao::ResultObject* winner = objects_[outcome_.winner_index];
      if (winner->bounds().Width() > options_.epsilon &&
          !EffectivelyConverged(outcome_.winner_index)) {
        return Refine(outcome_.winner_index, "finalize", 0.0,
                      &stats_.finalize_iterations, meter);
      }
      Finish();
      return Status::OK();
    }
  }
  return Status::Internal("MIN/MAX task in unknown phase");
}

void MinMaxIterationTask::Finish() {
  outcome_.winner_bounds = objects_[outcome_.winner_index]->bounds();
  outcome_.stats = Stats();
  outcome_.precision_degraded = outcome_.stats.stalled_objects > 0;
  outcome_.converged = true;
  MarkDone(true);
}

Bounds MinMaxIterationTask::Envelope(std::size_t* guess) const {
  // In max space: the best proven lower bound and the highest upper bound
  // over the surviving candidates (all objects before the search starts).
  // The true extreme lies in between -- the guess's own bounds could
  // exclude it, the envelope cannot.
  std::vector<std::size_t> all;
  const std::vector<std::size_t>* candidates = &alive_;
  if (alive_.empty()) {
    all.resize(objects_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    candidates = &all;
  }
  *guess = candidates->front();
  double lo = -std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::size_t i : *candidates) {
    const Bounds b = ViewOf(i);
    if (b.hi > ViewOf(*guess).hi) *guess = i;
    lo = std::max(lo, b.lo);
    hi = std::max(hi, b.hi);
  }
  return Bounds(lo, hi);
}

double MinMaxIterationTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  if (phase_ == Phase::kFinalize) {
    return objects_[outcome_.winner_index]->bounds().Width();
  }
  // How much higher than the best proven lower bound the extreme could be.
  std::size_t guess = 0;
  const Bounds envelope = Envelope(&guess);
  return std::max(0.0, envelope.hi - envelope.lo);
}

MinMaxOutcome MinMaxIterationTask::Snapshot() const {
  if (Done()) return outcome_;

  MinMaxOutcome partial = outcome_;
  partial.converged = false;
  partial.stats = Stats();
  partial.precision_degraded = partial.stats.stalled_objects > 0;

  if (phase_ == Phase::kFinalize) {
    // Membership is settled; only the winner's width is still open.
    partial.winner_bounds = objects_[partial.winner_index]->bounds();
    return partial;
  }
  // Best current guess plus the sound envelope.
  partial.winner_bounds =
      Unview(Envelope(&partial.winner_index), options_.kind);
  return partial;
}

// ---------------------------------------------------------------------------
// SumAveIterationTask
// ---------------------------------------------------------------------------

SumAveIterationTask::SumAveIterationTask(
    const SumAveOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::vector<double> weights,
    std::unique_ptr<IterationStrategy> strategy)
    : AggregateTask(options, objects, std::move(strategy), "SUM/AVE"),
      options_(options),
      weights_(std::move(weights)) {}

Result<std::unique_ptr<SumAveIterationTask>> SumAveIterationTask::Create(
    const SumAveOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::vector<double> weights) {
  VAOLIB_RETURN_IF_ERROR(
      ValidateSumAveInputs(objects, weights, options.epsilon));
  VAOLIB_ASSIGN_OR_RETURN(auto strategy,
                          MakeStrategy(options.strategy, options.rng));
  return std::unique_ptr<SumAveIterationTask>(new SumAveIterationTask(
      options, objects, std::move(weights), std::move(strategy)));
}

Bounds SumAveIterationTask::ExactSum() const {
  // Compensated summation: the incremental sum_ updates drift by one
  // rounding error per applied iterate, and this full re-walk is what
  // re-anchors them, so it must not itself lose low-order bits (large-mean /
  // tiny-variance populations cancel catastrophically under naive +=).
  NeumaierSum lo;
  NeumaierSum hi;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const Bounds b = objects_[i]->bounds();
    lo.Add(weights_[i] * b.lo);
    hi.Add(weights_[i] * b.hi);
  }
  return Bounds(lo.Sum(), hi.Sum());
}

void SumAveIterationTask::Fold(std::size_t i) {
  // Subtract the object's old weighted contribution and add the new one, so
  // each round is O(1) on the interval itself.
  const Bounds now = objects_[i]->bounds();
  sum_.lo += weights_[i] * (now.lo - seen_bounds_[i].lo);
  sum_.hi += weights_[i] * (now.hi - seen_bounds_[i].hi);
  seen_bounds_[i] = now;
  seen_iterations_[i] = objects_[i]->iterations();
}

void SumAveIterationTask::CatchUp(WorkMeter* meter) {
  // Other tasks over the same objects (a scheduled query group) may have
  // iterated some of them since our last step; their tightening counts
  // toward our stop test too. A quiet meter means nobody did. Under the
  // heap chooser their cached scores are stale as well: re-score them, or
  // drop the ones the sibling brought to their stopping condition.
  if (phase_ == Phase::kCoarse || !MeterMovedSinceLastStep(meter)) return;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (objects_[i]->iterations() == seen_iterations_[i]) continue;
    Fold(i);
    if (phase_ != Phase::kHeapScan || !(weights_[i] > 0.0)) continue;
    if (EffectivelyConverged(i)) {
      heap_.Remove(i);
    } else {
      heap_.Update(i, SumGreedyScore(*objects_[i], weights_[i]));
    }
  }
}

Status SumAveIterationTask::StepImpl(WorkMeter* meter) {
  switch (phase_) {
    case Phase::kCoarse: {
      VAOLIB_RETURN_IF_ERROR(CoarsePhase(options_));
      sum_ = ExactSum();
      seen_bounds_.clear();
      seen_iterations_.clear();
      for (const vao::ResultObject* object : objects_) {
        seen_bounds_.push_back(object->bounds());
        seen_iterations_.push_back(object->iterations());
      }
      // The lazy heap caches each object's greedy score at push time; the
      // strategies that do not score take the O(N) scan path.
      if (options_.use_heap_index &&
          (options_.strategy == StrategyKind::kGreedy ||
           options_.strategy == StrategyKind::kBatchGreedy)) {
        heap_.Reset(objects_.size());
        for (std::size_t i = 0; i < objects_.size(); ++i) {
          if (weights_[i] > 0.0 && !EffectivelyConverged(i)) {
            heap_.Update(i, SumGreedyScore(*objects_[i], weights_[i]));
          }
        }
        phase_ = Phase::kHeapScan;
      } else {
        phase_ = Phase::kScan;
      }
      return Status::OK();
    }

    case Phase::kScan:
      return StepScan(meter);
    case Phase::kHeapScan:
      return StepHeap(meter);
  }
  return Status::Internal("SUM/AVE task in unknown phase");
}

Status SumAveIterationTask::StepScan(WorkMeter* meter) {
  if (!(sum_.Width() > options_.epsilon)) {
    Finish();
    return Status::OK();
  }

  // Candidates: objects that may still tighten. Stalled objects are
  // quarantined from the set; their frozen (still sound) contribution
  // remains in the sum.
  std::vector<std::size_t> iterable;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (!EffectivelyConverged(i) && weights_[i] > 0.0) iterable.push_back(i);
  }
  if (iterable.empty()) {
    outcome_.limited_by_min_width = true;
    Finish();
    return Status::OK();
  }

  // The paper's heuristic: estimated weighted error reduction per
  // estimated CPU cycle; the widest actual weighted width is the
  // no-predicted-progress fallback.
  return ChooseAndRefine(
      iterable, iterable.size(), "scan",
      [&](std::size_t i, const Bounds& est) {
        return SumReduction(objects_[i]->bounds(), est, weights_[i]);
      },
      [&](std::size_t i) {
        return weights_[i] * objects_[i]->bounds().Width();
      },
      meter);
}

Status SumAveIterationTask::StepHeap(WorkMeter* meter) {
  if (!(sum_.Width() > options_.epsilon)) {
    Finish();
    return Status::OK();
  }

  // Pop up to batch_k best-scored objects for this cycle (one for the
  // scalar strategies). Each pop-plus-push is O(log N) chooseIter work.
  std::vector<std::size_t> picks;
  std::vector<double> scores;
  std::size_t chosen = 0;
  double score = 0.0;
  while (picks.size() < batch_k_ && heap_.PopBest(&chosen, &score)) {
    picks.push_back(chosen);
    scores.push_back(score);
    ++stats_.choose_steps;
    if (meter != nullptr) {
      meter->Charge(WorkKind::kChooseIter, 2 * Log2Ceil(objects_.size()));
    }
  }
  if (picks.empty()) {
    outcome_.limited_by_min_width = true;
    Finish();
    return Status::OK();
  }

  VAOLIB_RETURN_IF_ERROR(
      picks.size() == 1
          ? Refine(picks.front(), "heap", scores.front(),
                   &stats_.greedy_iterations, meter)
          : RefineBatch(picks, scores, "heap", meter));
  // Stalled objects simply stop being re-pushed, so their (sound, frozen)
  // contribution stays in the sum.
  for (const std::size_t i : picks) {
    if (!EffectivelyConverged(i)) {
      heap_.Update(i, SumGreedyScore(*objects_[i], weights_[i]));
    }
  }
  return Status::OK();
}

void SumAveIterationTask::Finish() {
  // Recompute exactly to shed accumulated floating-point drift.
  outcome_.sum_bounds = ExactSum();
  outcome_.stats = Stats();
  outcome_.converged = true;
  MarkDone(true);
}

double SumAveIterationTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  if (phase_ == Phase::kCoarse) return ExactSum().Width();
  return sum_.Width();
}

SumOutcome SumAveIterationTask::Snapshot() const {
  if (Done()) return outcome_;

  SumOutcome partial = outcome_;
  partial.converged = false;
  partial.sum_bounds = ExactSum();
  partial.stats = Stats();
  return partial;
}

// ---------------------------------------------------------------------------
// TopKIterationTask
// ---------------------------------------------------------------------------

TopKIterationTask::TopKIterationTask(
    const TopKOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::unique_ptr<IterationStrategy> strategy)
    : AggregateTask(options, objects, std::move(strategy), "TOP-K"),
      options_(options),
      order_(objects.size()) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
}

Result<std::unique_ptr<TopKIterationTask>> TopKIterationTask::Create(
    const TopKOptions& options,
    const std::vector<vao::ResultObject*>& objects) {
  VAOLIB_RETURN_IF_ERROR(
      ValidateTopKInputs(objects, options.k, options.epsilon));
  VAOLIB_ASSIGN_OR_RETURN(auto strategy,
                          MakeStrategy(options.strategy, options.rng));
  return std::unique_ptr<TopKIterationTask>(
      new TopKIterationTask(options, objects, std::move(strategy)));
}

Bounds TopKIterationTask::ViewOf(std::size_t i) const {
  return View(objects_[i]->bounds(), options_.kind);
}

Status TopKIterationTask::StepImpl(WorkMeter* meter) {
  const std::size_t n = objects_.size();
  const std::size_t k = options_.k;

  switch (phase_) {
    case Phase::kCoarse: {
      VAOLIB_RETURN_IF_ERROR(CoarsePhase(options_));
      VAOLIB_RETURN_IF_ERROR(CheckIterationCap());
      phase_ = Phase::kBoundary;
      return Status::OK();
    }

    case Phase::kBoundary: {
      // Guess the top-k set: the k candidates with the highest upper bounds.
      const auto member_end = order_.begin() + static_cast<std::ptrdiff_t>(k);
      std::partial_sort(order_.begin(), member_end, order_.end(),
                        [&](std::size_t a, std::size_t b) {
                          return ViewOf(a).hi > ViewOf(b).hi;
                        });
      members_.assign(order_.begin(), member_end);

      if (k == n) {  // everything is selected; only refinement remains
        phase_ = Phase::kFinalize;
        return Status::OK();
      }

      // Selection boundary: members must end strictly above all outsiders.
      double boundary_lo = std::numeric_limits<double>::infinity();
      for (const std::size_t i : members_) {
        boundary_lo = std::min(boundary_lo, ViewOf(i).lo);
      }
      double boundary_hi = -std::numeric_limits<double>::infinity();
      for (std::size_t idx = k; idx < n; ++idx) {
        boundary_hi = std::max(boundary_hi, ViewOf(order_[idx]).hi);
      }
      if (boundary_lo > boundary_hi) {  // fully separated
        phase_ = Phase::kFinalize;
        return Status::OK();
      }

      // Conflicted objects: members reachable from below, outsiders
      // reaching into the member zone.
      std::vector<std::size_t> conflicted;
      for (const std::size_t i : members_) {
        if (ViewOf(i).lo <= boundary_hi) conflicted.push_back(i);
      }
      for (std::size_t idx = k; idx < n; ++idx) {
        if (ViewOf(order_[idx]).hi >= boundary_lo) {
          conflicted.push_back(order_[idx]);
        }
      }

      std::vector<std::size_t> iterable;
      for (const std::size_t i : conflicted) {
        if (!EffectivelyConverged(i)) iterable.push_back(i);
      }
      if (iterable.empty()) {
        // Everything straddling the boundary is converged: membership of
        // the last slots is tie-determined (termination case 2 of
        // Section 5.1).
        outcome_.tie = true;
        phase_ = Phase::kFinalize;
        return Status::OK();
      }

      // Greedy: the largest predicted cross-boundary overlap reduction per
      // estimated CPU cycle.
      const auto gain = [&](std::size_t i, const Bounds& estimate) {
        const Bounds cur = ViewOf(i);
        const Bounds est = View(estimate, options_.kind);
        const double g =
            std::find(order_.begin(), member_end, i) != member_end
                // Raising a member's lower bound toward the outsiders'
                // ceiling.
                ? std::min(boundary_hi - cur.lo, est.lo - cur.lo)
                // Lowering an outsider's upper bound toward the members'
                // floor.
                : std::min(cur.hi - boundary_lo, cur.hi - est.hi);
        return std::max(g, 0.0);
      };
      return ChooseAndRefine(
          iterable, conflicted.size(), "boundary", gain,
          [&](std::size_t i) { return ViewOf(i).Width(); }, meter);
    }

    case Phase::kFinalize: {
      // Refine every selected member to the precision constraint.
      while (finalize_cursor_ < members_.size()) {
        const std::size_t i = members_[finalize_cursor_];
        if (objects_[i]->bounds().Width() > options_.epsilon &&
            !EffectivelyConverged(i)) {
          return Refine(i, "finalize", 0.0, &stats_.finalize_iterations,
                        meter);
        }
        ++finalize_cursor_;
      }
      Finish();
      return Status::OK();
    }
  }
  return Status::Internal("TOP-K task in unknown phase");
}

void TopKIterationTask::Describe(std::vector<std::size_t> members,
                                 TopKOutcome* outcome) const {
  // Order winners by extremity (descending midpoint in max space).
  std::sort(members.begin(), members.end(),
            [&](std::size_t a, std::size_t b) {
              return ViewOf(a).Mid() > ViewOf(b).Mid();
            });
  outcome->winners.clear();
  outcome->winner_bounds.clear();
  for (const std::size_t i : members) {
    outcome->winners.push_back(i);
    outcome->winner_bounds.push_back(objects_[i]->bounds());
  }
  outcome->stats = Stats();
  outcome->precision_degraded = outcome->stats.stalled_objects > 0;
}

std::vector<std::size_t> TopKIterationTask::ByUpperBound() const {
  std::vector<std::size_t> order(objects_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(options_.k),
      order.end(), [&](std::size_t a, std::size_t b) {
        return ViewOf(a).hi > ViewOf(b).hi;
      });
  return order;
}

void TopKIterationTask::Finish() {
  Describe(members_, &outcome_);
  outcome_.converged = true;
  MarkDone(true);
}

double TopKIterationTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  const std::size_t n = objects_.size();
  const std::size_t k = options_.k;
  // Current top-k guess by upper bound (order_ untouched: this is const).
  const std::vector<std::size_t> order = ByUpperBound();

  // Cross-boundary overlap still to resolve, plus member widths still above
  // the precision constraint.
  double uncertainty = 0.0;
  if (k < n) {
    double boundary_lo = std::numeric_limits<double>::infinity();
    for (std::size_t idx = 0; idx < k; ++idx) {
      boundary_lo = std::min(boundary_lo, ViewOf(order[idx]).lo);
    }
    double boundary_hi = -std::numeric_limits<double>::infinity();
    for (std::size_t idx = k; idx < n; ++idx) {
      boundary_hi = std::max(boundary_hi, ViewOf(order[idx]).hi);
    }
    uncertainty += std::max(0.0, boundary_hi - boundary_lo);
  }
  for (std::size_t idx = 0; idx < k; ++idx) {
    uncertainty += std::max(
        0.0, objects_[order[idx]]->bounds().Width() - options_.epsilon);
  }
  return uncertainty;
}

TopKOutcome TopKIterationTask::Snapshot() const {
  if (Done()) return outcome_;

  TopKOutcome partial = outcome_;
  partial.converged = false;
  // Best current guess at the member set: the settled members_ when the
  // boundary phase has produced one, else the current top-k by upper bound.
  std::vector<std::size_t> guess = members_;
  if (guess.empty()) {
    const std::vector<std::size_t> order = ByUpperBound();
    guess.assign(order.begin(),
                 order.begin() + static_cast<std::ptrdiff_t>(options_.k));
  }
  Describe(std::move(guess), &partial);
  return partial;
}

// ---------------------------------------------------------------------------
// MultiRowDecisionTask
// ---------------------------------------------------------------------------

MultiRowDecisionTask::MultiRowDecisionTask(
    std::vector<vao::ResultObject*> objects, const char* who,
    UndecidedFn undecided, int threads, RowFaultPolicy faults)
    : objects_(std::move(objects)),
      who_(who),
      undecided_(std::move(undecided)),
      threads_(threads),
      faults_(faults),
      stall_(objects_.size()),
      settled_(objects_.size(), false),
      settled_early_(objects_.size(), false),
      touched_(objects_.size(), false),
      row_status_(objects_.size()) {}

Result<std::unique_ptr<MultiRowDecisionTask>> MultiRowDecisionTask::Create(
    std::vector<vao::ResultObject*> objects, const char* who,
    UndecidedFn undecided, int threads, RowFaultPolicy faults) {
  auto task = std::unique_ptr<MultiRowDecisionTask>(new MultiRowDecisionTask(
      std::move(objects), who, std::move(undecided), threads, faults));
  bool all_settled = true;
  for (std::size_t i = 0; i < task->objects_.size(); ++i) {
    const vao::ResultObject* object = task->objects_[i];
    const Status valid =
        object == nullptr
            ? Status::InvalidArgument(std::string(who) +
                                      " over a null result object")
            : ValidateObjectBounds(*object, who);
    if (!valid.ok()) {
      VAOLIB_RETURN_IF_ERROR(task->RowFailed(i, valid, /*stalled=*/false));
    } else {
      task->Resettle(i);
    }
    all_settled = all_settled && task->settled_[i];
  }
  if (all_settled) {
    task->stats_.objects_touched = 0;
    task->MarkDone(true);
  }
  return task;
}

void MultiRowDecisionTask::Resettle(std::size_t i) {
  const bool stopped = objects_[i]->AtStoppingCondition();
  settled_[i] =
      !undecided_(objects_[i]->bounds()) || stopped || stall_[i].stalled();
  settled_early_[i] = settled_[i] && !stopped;
}

Status MultiRowDecisionTask::RowFailed(std::size_t i, Status failure,
                                       bool stalled) {
  if (stalled) {
    if (faults_ != RowFaultPolicy::kSettleStalls) {
      obs::RecordInstant("stall", name(), obs::TraceDetail::kCoarse);
      obs::FlightRecorder::Global().DumpIfArmed("predicate-stall");
    }
    ++stats_.stalled_objects;
  }
  const bool settle = faults_ == RowFaultPolicy::kQuarantine ||
                      (stalled && faults_ == RowFaultPolicy::kSettleStalls);
  if (!settle) return failure;
  if (faults_ == RowFaultPolicy::kQuarantine) row_status_[i] = failure;
  settled_[i] = true;
  settled_early_[i] = false;
  return Status::OK();
}

Status MultiRowDecisionTask::StepImpl(WorkMeter* meter) {
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    // Re-settle before collecting: under a scheduler, other queries' tasks
    // tighten the same shared objects between our steps, so a row may have
    // become decidable (or converged) since we last looked at it.
    if (!settled_[i]) Resettle(i);
    if (!settled_[i]) pending.push_back(i);
  }
  if (pending.empty()) {
    MarkDone(true);
    return Status::OK();
  }

  // One refinement notch for every undecided row, fanned out over the pool.
  // Decision tracing captures the pre-iterate state up front and records
  // after the batch, on this (driving) thread in pending order, so the
  // event sequence is deterministic regardless of how the pool interleaves.
  const bool tracing = obs::DecisionTraceActive();
  struct RowBefore {
    Bounds bounds;
    Bounds est;
    double est_cost;
  };
  std::vector<RowBefore> before;
  if (tracing) {
    before.reserve(pending.size());
    for (const std::size_t i : pending) {
      before.push_back(RowBefore{
          objects_[i]->bounds(), objects_[i]->est_bounds(),
          static_cast<double>(objects_[i]->est_cost())});
    }
  }
  std::vector<vao::ResultObject*> batch;
  batch.reserve(pending.size());
  for (const std::size_t i : pending) batch.push_back(objects_[i]);
  std::vector<Status> statuses;
  if (threads_ < 2) {
    // Single-threaded: route the notch through the batch execution tier so
    // rows backed by compatible solvers share one lockstep kernel call.
    // Results and work totals are bit-identical to iterating each row, so
    // the thread-count determinism contract is unaffected.
    statuses = vao::IterateBatch(batch, meter).statuses;
  } else {
    (void)vao::StepAll(batch, threads_, &statuses);
  }

  for (std::size_t p = 0; p < pending.size(); ++p) {
    const std::size_t i = pending[p];
    if (!statuses[p].ok()) {
      VAOLIB_RETURN_IF_ERROR(RowFailed(i, statuses[p], /*stalled=*/false));
      continue;
    }
    if (tracing) {
      obs::Decision decision;
      decision.op = name();
      decision.phase = "batch";
      decision.object_index = static_cast<std::uint64_t>(i);
      decision.lo_before = before[p].bounds.lo;
      decision.hi_before = before[p].bounds.hi;
      decision.est_lo = before[p].est.lo;
      decision.est_hi = before[p].est.hi;
      decision.est_cost = before[p].est_cost;
      const Bounds after = objects_[i]->bounds();
      decision.lo_after = after.lo;
      decision.hi_after = after.hi;
      obs::RecordDecision(decision);
    }
    if (!touched_[i]) {
      touched_[i] = true;
      ++stats_.objects_touched;
    }
    ++stats_.iterations;
    ++stats_.greedy_iterations;
    const Status valid = ValidateObjectBounds(*objects_[i], who_);
    if (!valid.ok()) {
      VAOLIB_RETURN_IF_ERROR(RowFailed(i, valid, /*stalled=*/false));
      continue;
    }
    if (stall_[i].Observe(objects_[i]->bounds().Width())) {
      VAOLIB_RETURN_IF_ERROR(RowFailed(
          i,
          Status::ResourceExhausted(
              std::string(who_) +
              ": refinement stalled before deciding the predicate (bounds "
              "stopped tightening above minWidth)"),
          /*stalled=*/true));
      continue;
    }
    Resettle(i);
  }

  bool all_settled = true;
  for (const bool s : settled_) all_settled = all_settled && s;
  if (all_settled) MarkDone(true);
  return Status::OK();
}

double MultiRowDecisionTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  double unsettled = 0.0;
  for (const bool s : settled_) {
    if (!s) unsettled += 1.0;
  }
  return unsettled;
}

}  // namespace vaolib::operators
