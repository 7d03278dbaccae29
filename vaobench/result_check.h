// vaobench answer checks.
//
// Every RESULT frame of every tick gets a structural check: it parses, its
// bounds are finite with lo <= hi, its seq is the tick's seq (so each
// query's seqs are consecutive), each standing query answers exactly once
// per tick, every row id lies inside the relation, and a converged answer
// meets its precision. On a seeded sample of ticks the answers are also
// checked against testing::OracleExecutor over the pristine bond_model,
// with the rules the differential harness applies: converged selections
// must equal the oracle's row set, extremes must pick an admissible row
// and bound its converged value, top-k sets must be admissible and hold
// every required row, and SUM/AVE intervals must contain the oracle's
// converged interval; budget-truncated answers are checked for soundness
// only.

#ifndef VAOBENCH_RESULT_CHECK_H_
#define VAOBENCH_RESULT_CHECK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/query.h"
#include "testing/oracle.h"
#include "vao/result_object.h"

namespace vaobench {

/// One decoded RESULT frame.
struct ResultFrame {
  std::string query_id;
  std::uint64_t seq = 0;
  std::string kind;
  bool converged = false;
  double lo = 0.0;
  double hi = 0.0;
  std::optional<std::size_t> winner;
  bool has_rows = false;
  std::vector<std::size_t> rows;
  bool has_top = false;
  std::vector<std::size_t> top;
  std::uint64_t work = 0;
};

/// Parses "RESULT <qid> seq=.. kind=.. converged=.. lo=.. hi=.. ... work=..";
/// nullopt (with \p error set) when the frame is malformed.
std::optional<ResultFrame> ParseResultFrame(const std::string& payload,
                                            std::string* error);

/// Structural check of one RESULT against its query. \p relation_rows
/// bounds row ids, \p min_width is the function's width floor; returns a
/// description of the first violation.
std::optional<std::string> CheckStructure(const ResultFrame& frame,
                                          const vaolib::engine::Query& query,
                                          std::uint64_t expected_seq,
                                          std::size_t relation_rows,
                                          double min_width);

/// Oracle check of one RESULT (see the header comment for the rules).
std::optional<std::string> CheckAgainstOracle(
    const ResultFrame& frame, const vaolib::engine::Query& query,
    const vaolib::testing::OracleAnswer& oracle);

/// Converge-once store in front of the oracle's pristine function. Every
/// query of one tick binds the same (rate, bond) argument vectors, and the
/// oracle converges each row of each query to minWidth; this decorator
/// converges each vector once (vao::ConvergeToMinWidth, as the oracle
/// does) and hands later Invoke() calls an object already at its stopping
/// condition with exactly those bounds, so the oracle's answers are
/// unchanged and its cost is paid once per row.
class ConvergedMemo : public vaolib::vao::VariableAccuracyFunction {
 public:
  /// \p pristine is borrowed and must outlive this object.
  explicit ConvergedMemo(const vaolib::vao::VariableAccuracyFunction* pristine)
      : pristine_(pristine) {}

  const std::string& name() const override { return pristine_->name(); }
  int arity() const override { return pristine_->arity(); }
  vaolib::Result<vaolib::vao::ResultObjectPtr> Invoke(
      const std::vector<double>& args,
      vaolib::WorkMeter* meter) const override;

  /// Converges every vector of \p rows up front, on \p threads threads.
  void Warm(const std::vector<std::vector<double>>& rows, int threads) const;

 private:
  struct Entry {
    vaolib::Bounds bounds;
    double min_width = 0.0;
    vaolib::Status status;
  };
  Entry Converge(const std::vector<double>& args) const;

  const vaolib::vao::VariableAccuracyFunction* pristine_;
  mutable std::mutex mutex_;  ///< guards memo_
  mutable std::map<std::vector<double>, Entry> memo_;
};

}  // namespace vaobench

#endif  // VAOBENCH_RESULT_CHECK_H_
