#include "layer_trace.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "vao/shifted_result_object.h"

namespace vaobench {

namespace {

constexpr std::uint32_t kForeign = 0xfffffffeu;

/// Forwards every ResultObject virtual to the wrapped object; Iterate()
/// additionally records a span.
class TimedResultObject : public vaolib::vao::ResultObject {
 public:
  TimedResultObject(vaolib::vao::ResultObjectPtr inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  vaolib::Bounds bounds() const override { return inner_->bounds(); }
  double min_width() const override { return inner_->min_width(); }
  vaolib::Status Iterate() override {
    ScopedSpan span(recorder_, SpanName::kIterate);
    return inner_->Iterate();
  }
  std::uint64_t est_cost() const override { return inner_->est_cost(); }
  vaolib::Bounds est_bounds() const override { return inner_->est_bounds(); }
  int iterations() const override { return inner_->iterations(); }
  std::uint64_t traditional_cost() const override {
    return inner_->traditional_cost();
  }
  std::string batch_key() const override { return inner_->batch_key(); }
  int calibration_kind() const override {
    return inner_->calibration_kind();
  }
  std::string correlation_key() const override {
    return inner_->correlation_key();
  }

 private:
  vaolib::vao::ResultObjectPtr inner_;
  SpanRecorder* recorder_;
};

const char* SpanLayer(SpanName name) {
  switch (name) {
    case SpanName::kTick:
      return "bench";
    case SpanName::kHandleTick:
    case SpanName::kHandleRegister:
    case SpanName::kHandleWithdraw:
    case SpanName::kDrain:
      return "server";
    case SpanName::kInvoke:
    case SpanName::kIterate:
      return "vao";
  }
  return "unknown";
}

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kTick:
      return "tick";
    case SpanName::kHandleTick:
      return "HandleBytes:TICK";
    case SpanName::kHandleRegister:
      return "HandleBytes:REGISTER";
    case SpanName::kHandleWithdraw:
      return "HandleBytes:WITHDRAW";
    case SpanName::kDrain:
      return "DrainOutput";
    case SpanName::kInvoke:
      return "Invoke";
    case SpanName::kIterate:
      return "Iterate";
  }
  return "unknown";
}

}  // namespace

SpanRecorder::SpanRecorder() : owner_(std::this_thread::get_id()) {
  spans_.reserve(1u << 16);
}

std::uint32_t SpanRecorder::Open(SpanName name) {
  if (!OnOwnerThread()) {
    ++foreign_;
    return kForeign;
  }
  Span span;
  span.name = name;
  span.tick = tick_;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::Close(std::uint32_t index) {
  if (index == kForeign) return;
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::WriteChromeTrace(std::ostream& os,
                                    std::uint32_t max_detail_tick) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.tick > max_detail_tick) continue;
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":1,"
        "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"tick\":%u,"
        "\"span\":%zu,\"parent\":%lld}}",
        first ? "" : ",", SpanLayer(span.name), SpanLabel(span.name),
        static_cast<double>(span.start_ns - origin) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.tick, i,
        span.parent == Span::kNoParent ? -1LL
                                       : static_cast<long long>(span.parent));
    os << buf;
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

vaolib::Result<vaolib::vao::ResultObjectPtr> TimedFunction::Invoke(
    const std::vector<double>& args, vaolib::WorkMeter* meter) const {
  ScopedSpan span(recorder_, SpanName::kInvoke);
  auto object = inner_->Invoke(args, meter);
  if (!object.ok()) return object.status();
  return vaolib::vao::ResultObjectPtr(std::make_unique<TimedResultObject>(
      std::move(object).value(), recorder_));
}

vaolib::Result<vaolib::vao::ResultObjectPtr> ShiftedFunction::Invoke(
    const std::vector<double>& args, vaolib::WorkMeter* meter) const {
  auto object = inner_->Invoke(args, meter);
  if (!object.ok()) return object.status();
  return vaolib::vao::ResultObjectPtr(
      std::make_unique<vaolib::vao::ShiftedResultObject>(
          std::move(object).value(), shift_));
}

}  // namespace vaobench
