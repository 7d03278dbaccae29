// vaobench layer tracing: spans recorded from the benchmark's own code
// around its calls into each layer of the server.
//
// The driver opens spans around StandingQueryServer::HandleBytes and
// DrainOutput; TimedFunction, a decorator registered in the benchmark's own
// FunctionRegistry in place of the pristine bond_model, opens spans around
// VariableAccuracyFunction::Invoke and ResultObject::Iterate. Spans are
// kept in memory (name, start, end, parent, tick id) and written at the
// end as Chrome trace-event JSON, the format tools/trace_inspect reads.
//
// Known limit: vao::IterateBatch dynamic_casts result objects to their
// concrete types, so under the decorator multi-row refinements take the
// scalar path. Results and work units are bit-identical (the driver checks
// it); timings of those refinements are scalar timings.

#ifndef VAOBENCH_LAYER_TRACE_H_
#define VAOBENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "vao/result_object.h"

namespace vaobench {

/// Span names; each belongs to one layer (its Chrome-trace category).
enum class SpanName : std::uint8_t {
  kTick,           ///< bench: TICK frame in -> last RESULT drained
  kHandleTick,     ///< server: HandleBytes(TICK)
  kHandleRegister, ///< server: HandleBytes(REGISTER)
  kHandleWithdraw, ///< server: HandleBytes(WITHDRAW)
  kDrain,          ///< server: DrainOutput + client frame decoding
  kInvoke,         ///< vao: VariableAccuracyFunction::Invoke
  kIterate,        ///< vao: ResultObject::Iterate
};

/// One closed span. `parent` indexes the recorder's span vector (kNoParent
/// for roots); `tick` is the id of the tick (or setup step) it belongs to.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t tick = 0;
  SpanName name = SpanName::kTick;
};

/// In-memory span store for one single-threaded traced run.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span under the innermost open one; returns its index.
  std::uint32_t Open(SpanName name);
  /// Closes span \p index (must be the innermost open span).
  void Close(std::uint32_t index);

  void set_tick(std::uint32_t tick) { tick_ = tick; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Spans opened from another thread than the one that built the
  /// recorder; those are not recorded (non-zero means the split is
  /// incomplete and the run must say so).
  std::uint64_t foreign_thread_calls() const { return foreign_; }

  /// Writes the spans of ticks up to \p max_detail_tick (and the
  /// registrations between them) as Chrome trace-event "X" events; the
  /// cut bounds the file size.
  void WriteChromeTrace(std::ostream& os, std::uint32_t max_detail_tick) const;

 private:
  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool OnOwnerThread() const { return std::this_thread::get_id() == owner_; }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t tick_ = 0;
  std::uint64_t foreign_ = 0;
  std::thread::id owner_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_;
};

/// Decorator over a VariableAccuracyFunction that records an Invoke span
/// per call and wraps each result object so its Iterate() calls record
/// spans too. Every other ResultObject virtual is forwarded untouched.
class TimedFunction : public vaolib::vao::VariableAccuracyFunction {
 public:
  /// \p inner and \p recorder are borrowed and must outlive this object
  /// and every result object it returns.
  TimedFunction(const vaolib::vao::VariableAccuracyFunction* inner,
                SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  const std::string& name() const override { return inner_->name(); }
  int arity() const override { return inner_->arity(); }
  vaolib::Result<vaolib::vao::ResultObjectPtr> Invoke(
      const std::vector<double>& args,
      vaolib::WorkMeter* meter) const override;

 private:
  const vaolib::vao::VariableAccuracyFunction* inner_;
  SpanRecorder* recorder_;
};

/// Planted-fault decorator for the self-test: every result object is
/// wrapped in a vao::ShiftedResultObject, so every answer is off by
/// \p shift while staying self-consistent (only the oracle can tell).
class ShiftedFunction : public vaolib::vao::VariableAccuracyFunction {
 public:
  ShiftedFunction(const vaolib::vao::VariableAccuracyFunction* inner,
                  double shift)
      : inner_(inner), shift_(shift) {}

  const std::string& name() const override { return inner_->name(); }
  int arity() const override { return inner_->arity(); }
  vaolib::Result<vaolib::vao::ResultObjectPtr> Invoke(
      const std::vector<double>& args,
      vaolib::WorkMeter* meter) const override;

 private:
  const vaolib::vao::VariableAccuracyFunction* inner_;
  double shift_;
};

}  // namespace vaobench

#endif  // VAOBENCH_LAYER_TRACE_H_
