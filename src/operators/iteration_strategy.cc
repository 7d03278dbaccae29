#include "operators/iteration_strategy.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/trace.h"

namespace vaolib::operators {

namespace {

// The paper's chooseIter: highest predicted benefit per estimated CPU
// cycle, first maximum winning ties; when no candidate predicts progress
// (estimates can be wrong), the one with the largest actual width measure,
// so the real bounds keep tightening and termination conditions eventually
// fire. ChooseBatch is the batch tier's form (kBatchGreedy): the K best
// candidates per cycle, ranked by score descending with enumeration order
// breaking ties (by actual width when nothing predicts progress), so its
// top-1 is exactly Choose().
class GreedyStrategy : public IterationStrategy {
 public:
  // Both greedy kinds are this class, named after their kind: the
  // aggregates ask for more than one pick only under kBatchGreedy.
  explicit GreedyStrategy(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  bool WantsScores() const override { return true; }

  std::size_t Choose(
      const std::vector<IterationCandidate>& candidates) override {
    const obs::ScopedSpan span("strategy", "greedy_choose",
                               obs::TraceDetail::kFine);
    std::size_t chosen = 0;
    double best_score = -1.0;
    for (std::size_t p = 0; p < candidates.size(); ++p) {
      const double score = candidates[p].benefit / candidates[p].cost;
      if (score > best_score) {
        best_score = score;
        chosen = p;
      }
    }
    if (best_score <= 0.0) {
      double widest = -1.0;
      for (std::size_t p = 0; p < candidates.size(); ++p) {
        if (candidates[p].width > widest) {
          widest = candidates[p].width;
          chosen = p;
        }
      }
    }
    return chosen;
  }

  void ChooseBatch(const std::vector<IterationCandidate>& candidates,
                   std::size_t max_batch,
                   std::vector<std::size_t>* chosen) override {
    if (max_batch <= 1) {
      chosen->assign(1, Choose(candidates));
      return;
    }
    const obs::ScopedSpan span("strategy", "batch_greedy_choose",
                               obs::TraceDetail::kFine);
    const std::size_t take = std::min(max_batch, candidates.size());
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    double best_score = -1.0;
    for (const IterationCandidate& c : candidates) {
      best_score = std::max(best_score, c.benefit / c.cost);
    }
    if (best_score > 0.0) {
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return candidates[a].benefit / candidates[a].cost >
                                candidates[b].benefit / candidates[b].cost;
                       });
    } else {
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return candidates[a].width > candidates[b].width;
                       });
    }
    order.resize(take);
    *chosen = std::move(order);
  }

 private:
  const char* name_;
};

class RoundRobinStrategy : public IterationStrategy {
 public:
  const char* name() const override { return "round_robin"; }
  bool WantsScores() const override { return false; }

  std::size_t Choose(
      const std::vector<IterationCandidate>& candidates) override {
    return cursor_++ % candidates.size();
  }

 private:
  std::size_t cursor_ = 0;
};

class RandomStrategy : public IterationStrategy {
 public:
  explicit RandomStrategy(Rng* rng) : rng_(rng) {}

  const char* name() const override { return "random"; }
  bool WantsScores() const override { return false; }

  std::size_t Choose(
      const std::vector<IterationCandidate>& candidates) override {
    return static_cast<std::size_t>(rng_->UniformInt(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
  }

 private:
  Rng* rng_;
};

}  // namespace

Result<std::unique_ptr<IterationStrategy>> MakeStrategy(StrategyKind kind,
                                                        Rng* rng) {
  switch (kind) {
    case StrategyKind::kGreedy:
    case StrategyKind::kBatchGreedy:
      return std::unique_ptr<IterationStrategy>(
          new GreedyStrategy(StrategyKindName(kind)));
    case StrategyKind::kRoundRobin:
      return std::unique_ptr<IterationStrategy>(new RoundRobinStrategy());
    case StrategyKind::kRandom:
      if (rng == nullptr) {
        return Status::InvalidArgument("random strategy requires an Rng");
      }
      return std::unique_ptr<IterationStrategy>(new RandomStrategy(rng));
  }
  return Status::InvalidArgument("unknown strategy kind");
}

}  // namespace vaolib::operators
