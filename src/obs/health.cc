#include "obs/health.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"

namespace vaolib::obs {

namespace {

constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

template <typename Sample>
std::size_t FindSeries(const std::vector<Sample>& samples,
                       const std::string& name,
                       const MetricsRegistry::Labels& labels) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].name == name && samples[i].labels == labels) return i;
  }
  return kAbsent;
}

// Bucket counts of series \p i in \p epoch_counts; empty when the series
// was registered after the epoch closed.
const std::vector<std::uint64_t>& BucketsAt(
    const std::vector<std::vector<std::uint64_t>>& epoch_counts,
    std::size_t i) {
  static const std::vector<std::uint64_t> kNone;
  return i < epoch_counts.size() ? epoch_counts[i] : kNone;
}

}  // namespace

WindowedView::WindowedView(MetricsRegistry* registry)
    : WindowedView(registry, Options()) {}

WindowedView::WindowedView(MetricsRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  if (options_.window_count == 0) options_.window_count = 1;
  Push(0.0, /*has_clock=*/false);  // baseline
}

void WindowedView::Push(double now_seconds, bool has_clock) {
  newest_ = registry_->Snapshot();
  Epoch epoch;
  epoch.counters.reserve(newest_.counters.size());
  for (const auto& sample : newest_.counters) {
    epoch.counters.push_back(sample.value);
  }
  epoch.histogram_counts.reserve(newest_.histograms.size());
  epoch.histogram_sums.reserve(newest_.histograms.size());
  for (const auto& sample : newest_.histograms) {
    epoch.histogram_counts.push_back(sample.counts);
    epoch.histogram_sums.push_back(sample.sum);
  }
  epoch.at_seconds = now_seconds;
  epoch.has_clock = has_clock;
  ring_.push_back(std::move(epoch));
  while (ring_.size() > options_.window_count + 1) ring_.pop_front();
}

void WindowedView::Advance() {
  Push(0.0, /*has_clock=*/false);
  ++total_advances_;
}

void WindowedView::Advance(double now_seconds) {
  Push(now_seconds, /*has_clock=*/true);
  ++total_advances_;
}

std::pair<std::size_t, std::size_t> WindowedView::Span(std::size_t k) const {
  const std::size_t newest = ring_.size() - 1;
  if (k == 0 || k > newest) k = newest;
  return {newest - k, newest};
}

std::uint64_t WindowedView::CounterDelta(const std::string& name,
                                         const MetricsRegistry::Labels& labels,
                                         std::size_t k) const {
  if (epochs() == 0) return 0;
  const auto [older, newest] = Span(k);
  const std::size_t i = FindSeries(newest_.counters, name, labels);
  if (i == kAbsent) return 0;
  const std::uint64_t now = ring_[newest].counters[i];
  const std::vector<std::uint64_t>& then = ring_[older].counters;
  // A counter registered mid-span reads as starting from zero.
  const std::uint64_t base = i < then.size() ? then[i] : 0;
  return now >= base ? now - base : 0;
}

double WindowedView::CounterRate(const std::string& name,
                                 const MetricsRegistry::Labels& labels,
                                 std::size_t k) const {
  if (epochs() == 0) return 0.0;
  const auto [older, newest] = Span(k);
  const double delta =
      static_cast<double>(CounterDelta(name, labels, newest - older));
  if (ring_[older].has_clock && ring_[newest].has_clock) {
    const double elapsed = ring_[newest].at_seconds - ring_[older].at_seconds;
    if (elapsed > 0.0) return delta / elapsed;
  }
  return delta / static_cast<double>(newest - older);
}

std::uint64_t WindowedView::HistogramCountDelta(
    const std::string& name, const MetricsRegistry::Labels& labels,
    std::size_t k) const {
  if (epochs() == 0) return 0;
  const auto [older, newest] = Span(k);
  const std::size_t h = FindSeries(newest_.histograms, name, labels);
  if (h == kAbsent) return 0;
  const std::vector<std::uint64_t>& now = ring_[newest].histogram_counts[h];
  const std::vector<std::uint64_t>& then =
      BucketsAt(ring_[older].histogram_counts, h);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    const std::uint64_t base = i < then.size() ? then[i] : 0;
    if (now[i] > base) total += now[i] - base;
  }
  return total;
}

double WindowedView::HistogramSumDelta(const std::string& name,
                                       const MetricsRegistry::Labels& labels,
                                       std::size_t k) const {
  if (epochs() == 0) return 0.0;
  const auto [older, newest] = Span(k);
  const std::size_t h = FindSeries(newest_.histograms, name, labels);
  if (h == kAbsent) return 0.0;
  const std::vector<double>& then = ring_[older].histogram_sums;
  return ring_[newest].histogram_sums[h] - (h < then.size() ? then[h] : 0.0);
}

double WindowedView::HistogramQuantile(const std::string& name,
                                       const MetricsRegistry::Labels& labels,
                                       double q, std::size_t k) const {
  if (epochs() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto [older, newest] = Span(k);
  const std::size_t h = FindSeries(newest_.histograms, name, labels);
  if (h == kAbsent) return 0.0;
  const std::vector<std::uint64_t>& now = ring_[newest].histogram_counts[h];
  const std::vector<std::uint64_t>& then =
      BucketsAt(ring_[older].histogram_counts, h);

  std::vector<std::uint64_t> delta(now.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    const std::uint64_t base = i < then.size() ? then[i] : 0;
    if (now[i] > base) delta[i] = now[i] - base;
    total += delta[i];
  }
  if (total == 0) return 0.0;

  // Same interpolation contract as Histogram::Quantile, over the deltas.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  const auto& bounds = newest_.histograms[h].upper_bounds;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (delta[i] == 0) continue;
    cumulative += delta[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double upper = bounds[i];
      const double lower = i == 0 ? (upper > 0.0 ? 0.0 : upper)
                                  : bounds[i - 1];
      const double into_bucket =
          rank - static_cast<double>(cumulative - delta[i]);
      return lower +
             (upper - lower) * (into_bucket / static_cast<double>(delta[i]));
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

ProgressRing::ProgressRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void ProgressRing::Record(const ProgressSample& sample) {
  samples_.push_back(sample);
  while (samples_.size() > capacity_) samples_.pop_front();
  ++total_recorded_;
}

EtaEstimate ProgressRing::EstimateEta(double target_width) const {
  EtaEstimate eta;
  if (samples_.empty() || !(target_width > 0.0)) return eta;
  const ProgressSample& last = samples_.back();
  if (!std::isfinite(last.width)) return eta;
  if (last.converged || last.width <= target_width) {
    eta.known = true;
    return eta;
  }
  // At minimum object width more budget cannot tighten the interval, so
  // there is no honest ETA to the target.
  if (last.limited_by_min_width) return eta;

  // Fit the per-tick log-width shrink over the most recent samples.
  constexpr std::size_t kFitWindow = 8;
  const std::size_t n = std::min(samples_.size(), kFitWindow);
  if (n < 2) return eta;
  const ProgressSample& first = samples_[samples_.size() - n];
  if (!std::isfinite(first.width) || first.width <= 0.0 || last.width <= 0.0) {
    return eta;
  }
  const double per_tick =
      (std::log(first.width) - std::log(last.width)) /
      static_cast<double>(n - 1);
  if (!(per_tick > 1e-12)) return eta;  // flat or widening trajectory

  eta.known = true;
  eta.ticks = std::log(last.width / target_width) / per_tick;
  double work = 0.0;
  for (std::size_t i = samples_.size() - n; i < samples_.size(); ++i) {
    work += static_cast<double>(samples_[i].work_spent);
  }
  eta.work_units = eta.ticks * (work / static_cast<double>(n));
  return eta;
}

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

SloMonitor::SloMonitor(const WindowedView* view, std::vector<SloSpec> specs)
    : view_(view), specs_(std::move(specs)) {
  statuses_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    statuses_[i].name = specs_[i].name;
  }
  MetricsRegistry* registry = view_->registry();
  registry->SetHelp("vaolib_health_state",
                    "Worst SLO state: 0 healthy, 1 degraded, 2 critical.");
  registry->SetHelp("vaolib_slo_state",
                    "Per-SLO state: 0 healthy, 1 degraded, 2 critical.");
  registry->SetHelp("vaolib_slo_burn_milli",
                    "Per-SLO burn rate x1000 over the fast/slow window.");
  registry->SetHelp("vaolib_slo_critical_transitions_total",
                    "SLO transitions into the critical state.");
}

HealthState SloMonitor::Evaluate() {
  MetricsRegistry* registry = view_->registry();
  HealthState worst = HealthState::kHealthy;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SloStatus& status = statuses_[i];
    const HealthState previous = status.state;

    auto observe = [&](std::size_t window_epochs) -> double {
      if (!spec.bad_metric.empty()) {
        const std::uint64_t bad =
            view_->CounterDelta(spec.bad_metric, spec.bad_labels,
                                window_epochs);
        const std::uint64_t total = view_->CounterDelta(
            spec.total_metric, spec.total_labels, window_epochs);
        return total > 0 ? static_cast<double>(bad) /
                               static_cast<double>(total)
                         : 0.0;
      }
      return view_->HistogramQuantile(spec.histogram_metric,
                                      spec.histogram_labels, spec.quantile,
                                      window_epochs);
    };
    const double denom =
        !spec.bad_metric.empty() ? spec.budget : spec.limit;
    status.fast_value = observe(spec.fast_epochs);
    status.slow_value = observe(spec.slow_epochs);
    status.fast_burn = denom > 0.0 ? status.fast_value / denom : 0.0;
    status.slow_burn = denom > 0.0 ? status.slow_value / denom : 0.0;

    if (status.fast_burn >= spec.critical_burn &&
        status.slow_burn >= spec.critical_burn) {
      status.state = HealthState::kCritical;
    } else if (status.fast_burn >= spec.degraded_burn ||
               status.slow_burn >= spec.degraded_burn) {
      status.state = HealthState::kDegraded;
    } else {
      status.state = HealthState::kHealthy;
    }
    worst = std::max(worst, status.state);

    if (status.state == HealthState::kCritical &&
        previous != HealthState::kCritical) {
      ++critical_transitions_;
      registry->GetCounter("vaolib_slo_critical_transitions_total")
          ->Increment();
      FlightRecorder::Global().DumpIfArmed("slo-critical-" + spec.name);
    }
    registry->GetGauge("vaolib_slo_state", {{"slo", spec.name}})
        ->Set(static_cast<std::int64_t>(status.state));
    const auto milli = [](double burn) {
      // Saturate: gauges are int64 and a cold denominator can burn huge.
      return static_cast<std::int64_t>(
          std::min(burn * 1000.0, 1.0e12));
    };
    registry
        ->GetGauge("vaolib_slo_burn_milli",
                   {{"slo", spec.name}, {"window", "fast"}})
        ->Set(milli(status.fast_burn));
    registry
        ->GetGauge("vaolib_slo_burn_milli",
                   {{"slo", spec.name}, {"window", "slow"}})
        ->Set(milli(status.slow_burn));
  }
  state_ = worst;
  registry->GetGauge("vaolib_health_state")
      ->Set(static_cast<std::int64_t>(state_));
  return state_;
}

}  // namespace vaolib::obs
