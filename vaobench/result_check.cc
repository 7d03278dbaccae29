#include "result_check.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>

#include "engine/report_capture.h"
#include "vao/black_box.h"

namespace vaobench {

namespace {

using vaolib::Bounds;
using vaolib::engine::QueryKind;

bool ParseUnsigned(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

bool ParseRowList(const std::string& text, std::vector<std::size_t>* rows) {
  rows->clear();
  if (text.empty()) return true;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    std::uint64_t row = 0;
    if (!ParseUnsigned(text.substr(start, comma - start), &row)) return false;
    rows->push_back(static_cast<std::size_t>(row));
    start = comma + 1;
  }
  return true;
}

/// Slack for comparing bounds computed along the same refinement sequence.
double Slack(double a, double b) {
  return 1e-9 * (1.0 + std::abs(a) + std::abs(b));
}

bool ContainsWithSlack(const Bounds& outer, const Bounds& inner) {
  const double slack = Slack(outer.lo, outer.hi);
  return inner.lo >= outer.lo - slack && inner.hi <= outer.hi + slack;
}

bool OverlapsWithSlack(const Bounds& a, const Bounds& b) {
  const double slack = Slack(a.lo, a.hi);
  return a.lo <= b.hi + slack && b.lo <= a.hi + slack;
}

/// Per-row Iterate() cap of the converge-all pass (OracleExecutor's own
/// default budget).
constexpr std::uint64_t kOracleIterationBudget = 1'000'000;

/// A result object pinned at converged bounds.
class ConvergedResultObject : public vaolib::vao::ResultObject {
 public:
  ConvergedResultObject(Bounds bounds, double min_width, vaolib::Status status)
      : bounds_(bounds), min_width_(min_width), status_(std::move(status)) {}

  Bounds bounds() const override { return bounds_; }
  double min_width() const override { return min_width_; }
  /// Only reached when the pristine convergence failed: replays its error.
  vaolib::Status Iterate() override {
    return status_.ok() ? vaolib::Status::ResourceExhausted(
                              "converged object cannot refine further")
                        : status_;
  }
  std::uint64_t est_cost() const override { return 1; }
  Bounds est_bounds() const override { return bounds_; }
  int iterations() const override { return 0; }
  std::uint64_t traditional_cost() const override { return 0; }

 private:
  Bounds bounds_;
  double min_width_;
  vaolib::Status status_;
};

}  // namespace

ConvergedMemo::Entry ConvergedMemo::Converge(
    const std::vector<double>& args) const {
  Entry entry;
  vaolib::WorkMeter scratch;
  auto object = pristine_->Invoke(args, &scratch);
  if (!object.ok()) {
    entry.status = object.status();
    return entry;
  }
  const auto steps =
      vaolib::vao::ConvergeToMinWidth(object->get(), kOracleIterationBudget);
  if (!steps.ok()) entry.status = steps.status();
  entry.bounds = (*object)->bounds();
  entry.min_width = (*object)->min_width();
  return entry;
}

vaolib::Result<vaolib::vao::ResultObjectPtr> ConvergedMemo::Invoke(
    const std::vector<double>& args, vaolib::WorkMeter* /*meter*/) const {
  std::optional<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memo_.find(args);
    if (it != memo_.end()) entry = it->second;
  }
  if (!entry.has_value()) {
    entry = Converge(args);
    const std::lock_guard<std::mutex> lock(mutex_);
    memo_.emplace(args, *entry);
  }
  return vaolib::vao::ResultObjectPtr(std::make_unique<ConvergedResultObject>(
      entry->bounds, entry->min_width, entry->status));
}

void ConvergedMemo::Warm(const std::vector<std::vector<double>>& rows,
                         int threads) const {
  const auto work = [&](std::size_t first) {
    for (std::size_t i = first; i < rows.size();
         i += static_cast<std::size_t>(threads)) {
      Entry entry = Converge(rows[i]);
      const std::lock_guard<std::mutex> lock(mutex_);
      memo_.emplace(rows[i], std::move(entry));
    }
  };
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) {
    workers.emplace_back(work, static_cast<std::size_t>(t));
  }
  work(0);
  for (std::thread& worker : workers) worker.join();
}

std::optional<ResultFrame> ParseResultFrame(const std::string& payload,
                                            std::string* error) {
  std::istringstream in(payload);
  std::string token;
  ResultFrame frame;
  if (!(in >> token) || token != "RESULT" || !(in >> frame.query_id)) {
    *error = "not a RESULT frame";
    return std::nullopt;
  }
  bool have_seq = false, have_kind = false, have_converged = false;
  bool have_lo = false, have_hi = false, have_work = false;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      *error = "token without '=': " + token;
      return std::nullopt;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = true;
    if (key == "seq") {
      ok = have_seq = ParseUnsigned(value, &frame.seq);
    } else if (key == "kind") {
      frame.kind = value;
      ok = have_kind = !value.empty();
    } else if (key == "converged") {
      ok = have_converged = value == "0" || value == "1";
      frame.converged = value == "1";
    } else if (key == "lo") {
      ok = have_lo = ParseDouble(value, &frame.lo);
    } else if (key == "hi") {
      ok = have_hi = ParseDouble(value, &frame.hi);
    } else if (key == "winner") {
      std::uint64_t winner = 0;
      ok = ParseUnsigned(value, &winner);
      frame.winner = static_cast<std::size_t>(winner);
    } else if (key == "rows") {
      ok = frame.has_rows = ParseRowList(value, &frame.rows);
    } else if (key == "top") {
      ok = frame.has_top = ParseRowList(value, &frame.top);
    } else if (key == "work") {
      ok = have_work = ParseUnsigned(value, &frame.work);
    }
    if (!ok) {
      *error = "malformed token: " + token;
      return std::nullopt;
    }
  }
  if (!have_seq || !have_kind || !have_converged || !have_lo || !have_hi ||
      !have_work) {
    *error = "RESULT frame is missing a field";
    return std::nullopt;
  }
  return frame;
}

std::optional<std::string> CheckStructure(const ResultFrame& frame,
                                          const vaolib::engine::Query& query,
                                          std::uint64_t expected_seq,
                                          std::size_t relation_rows,
                                          double min_width) {
  if (frame.seq != expected_seq) {
    return "seq=" + std::to_string(frame.seq) + ", expected " +
           std::to_string(expected_seq);
  }
  if (frame.kind != vaolib::engine::QueryKindName(query.kind)) {
    return "kind=" + frame.kind + " for a " +
           vaolib::engine::QueryKindName(query.kind) + " query";
  }
  if (!std::isfinite(frame.lo) || !std::isfinite(frame.hi) ||
      frame.lo > frame.hi) {
    return "bounds are not a finite lo <= hi interval";
  }
  const auto in_range = [&](const std::vector<std::size_t>& rows) {
    return std::all_of(rows.begin(), rows.end(), [&](std::size_t row) {
      return row < relation_rows;
    });
  };
  const auto distinct = [](std::vector<std::size_t> rows) {
    std::sort(rows.begin(), rows.end());
    return std::adjacent_find(rows.begin(), rows.end()) == rows.end();
  };
  switch (query.kind) {
    case QueryKind::kSelect:
    case QueryKind::kSelectRange:
      if (!frame.has_rows) return "selection answer without rows=";
      if (!in_range(frame.rows)) return "row id outside the relation";
      if (!distinct(frame.rows)) return "duplicate row id";
      return std::nullopt;
    case QueryKind::kMax:
    case QueryKind::kMin:
      if (!frame.winner.has_value()) return "extreme answer without winner=";
      if (*frame.winner >= relation_rows) return "winner outside the relation";
      break;
    case QueryKind::kTopK:
      if (!frame.has_top) return "top-k answer without top=";
      if (!in_range(frame.top)) return "top-k row outside the relation";
      if (!distinct(frame.top)) return "duplicate top-k row";
      if (frame.top.size() > query.k ||
          (frame.converged && frame.top.size() != query.k)) {
        return "top-k answer with " + std::to_string(frame.top.size()) +
               " rows for k=" + std::to_string(query.k);
      }
      return std::nullopt;
    case QueryKind::kSum:
    case QueryKind::kAve:
      break;
  }
  // A converged extreme or average meets its precision, or is pinned at the
  // function's width floor (minWidth ties).
  if (frame.converged &&
      frame.hi - frame.lo >
          std::max(query.epsilon, min_width) + Slack(frame.lo, frame.hi)) {
    return "converged answer wider than max(epsilon, minWidth)";
  }
  return std::nullopt;
}

std::optional<std::string> CheckAgainstOracle(
    const ResultFrame& frame, const vaolib::engine::Query& query,
    const vaolib::testing::OracleAnswer& oracle) {
  const Bounds reported(frame.lo, frame.hi);
  switch (query.kind) {
    case QueryKind::kSelect:
    case QueryKind::kSelectRange: {
      // Budget-truncated selections resolve undecided rows by the sound
      // midpoint rule and carry no oracle-comparable claim.
      if (!frame.converged) return std::nullopt;
      std::vector<std::size_t> expected;
      for (std::size_t row = 0; row < oracle.passes.size(); ++row) {
        if (oracle.passes[row]) expected.push_back(row);
      }
      if (frame.rows != expected) {
        return "passing rows diverge from the oracle (" +
               std::to_string(frame.rows.size()) + " rows, oracle " +
               std::to_string(expected.size()) + ")";
      }
      return std::nullopt;
    }
    case QueryKind::kMax:
    case QueryKind::kMin: {
      const std::size_t winner = *frame.winner;
      if (frame.converged) {
        if (!oracle.IsAdmissible(winner)) {
          return "winner row " + std::to_string(winner) +
                 " is dominated under the oracle's converged bounds";
        }
        if (!ContainsWithSlack(reported, oracle.converged[winner])) {
          return "winner bounds do not contain its converged bounds";
        }
        return std::nullopt;
      }
      // Partial: the envelope bounds the true extreme, or (finalize
      // phase) the reported winner's own value.
      if (!OverlapsWithSlack(reported, oracle.converged[oracle.best_row]) &&
          !OverlapsWithSlack(reported, oracle.converged[winner])) {
        return "partial extreme bounds exclude both the extreme's and the "
               "winner's converged bounds";
      }
      return std::nullopt;
    }
    case QueryKind::kTopK: {
      if (!frame.converged) return std::nullopt;
      const std::set<std::size_t> winners(frame.top.begin(), frame.top.end());
      for (const std::size_t row : winners) {
        if (!oracle.IsAdmissible(row)) {
          return "top-k selected row " + std::to_string(row) +
                 ", dominated under the oracle's converged bounds";
        }
      }
      for (const std::size_t row : oracle.required) {
        if (winners.count(row) == 0) {
          return "top-k missed row " + std::to_string(row) +
                 ", required under the oracle's converged bounds";
        }
      }
      return std::nullopt;
    }
    case QueryKind::kSum:
    case QueryKind::kAve: {
      // A sound interval is a weighted sum of per-object bounds nested
      // outside the converged ones, so it contains the oracle's interval.
      if (!ContainsWithSlack(reported, oracle.aggregate_bounds)) {
        return "aggregate bounds do not contain the oracle's converged "
               "interval";
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace vaobench
