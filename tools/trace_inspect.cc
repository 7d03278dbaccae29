// Copyright 2026 The vaolib Authors.
// trace_inspect: offline reader for vaolib trace artifacts (flight-recorder
// dumps and ExportChromeTrace() files) plus ExecutionReport JSON.
//
//   trace_inspect <trace.json> [--top N] [--report <report.json>]
//
// Prints three tables:
//   * top spans by self-time (span duration minus time spent in spans
//     nested inside it on the same thread) aggregated by cat:name,
//   * a decision histogram per operator/phase with mean predicted vs.
//     actual cost and mean winning score,
//   * with --report, the estimator-calibration table (per solver kind:
//     samples, cost/lo/hi bias and MAE) from an ExecutionReport JSON.
// Everything is parsed with the same obs::json reader the library uses to
// parse its own output, so a file this tool rejects is a real bug.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/execution_report.h"
#include "obs/json_util.h"
#include "obs/metrics.h"

namespace {

using vaolib::Result;
using vaolib::Status;
using vaolib::obs::ExecutionReport;
using vaolib::obs::json::Child;
using vaolib::obs::json::GetDouble;
using vaolib::obs::json::GetString;
using vaolib::obs::json::JsonValue;
using vaolib::obs::json::Parse;

struct SpanRow {
  std::uint64_t tid = 0;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
  double self = 0.0;
  std::string key;  // "cat:name"
};

struct SpanAgg {
  std::uint64_t count = 0;
  double total_dur = 0.0;
  double total_self = 0.0;
};

struct DecisionAgg {
  std::uint64_t count = 0;
  double est_cost_sum = 0.0;
  double actual_cost_sum = 0.0;
  double score_sum = 0.0;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Span self-time: walk each thread's spans in start order keeping a stack
// of open spans; a span's duration is charged against the nearest
// enclosing span still open on the same thread.
void ComputeSelfTimes(std::vector<SpanRow>* spans) {
  std::stable_sort(spans->begin(), spans->end(),
                   [](const SpanRow& a, const SpanRow& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;  // parent before child on ties
                   });
  std::vector<std::size_t> stack;
  std::uint64_t tid = 0;
  for (std::size_t i = 0; i < spans->size(); ++i) {
    SpanRow& span = (*spans)[i];
    span.self = span.dur;
    if (i == 0 || span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    while (!stack.empty()) {
      const SpanRow& open = (*spans)[stack.back()];
      if (open.ts + open.dur <= span.ts) {
        stack.pop_back();
      } else {
        break;
      }
    }
    if (!stack.empty()) (*spans)[stack.back()].self -= span.dur;
    stack.push_back(i);
  }
}

Status InspectTrace(const std::string& path, std::size_t top) {
  std::string text;
  {
    auto read = ReadFile(path);
    if (!read.ok()) return read.status();
    text = std::move(read).value();
  }
  auto parsed = Parse(text);
  if (!parsed.ok()) return parsed.status().WithContext(path);
  const JsonValue& root = *parsed.value();
  auto events = Child(root, "traceEvents");
  if (!events.ok()) return events.status();

  std::vector<SpanRow> spans;
  std::map<std::string, DecisionAgg> decisions;
  std::uint64_t instants = 0;
  for (const auto& entry : events.value()->array) {
    const JsonValue& event = *entry;
    auto ph = GetString(event, "ph");
    auto cat = GetString(event, "cat");
    auto name = GetString(event, "name");
    if (!ph.ok() || !cat.ok() || !name.ok()) {
      return Status::InvalidArgument("event missing ph/cat/name");
    }
    if (ph.value() == "X") {
      SpanRow span;
      auto tid = vaolib::obs::json::GetNumber(event, "tid");
      auto ts = GetDouble(event, "ts");
      auto dur = GetDouble(event, "dur");
      if (!tid.ok() || !ts.ok() || !dur.ok()) {
        return Status::InvalidArgument("span missing tid/ts/dur");
      }
      span.tid = tid.value();
      span.ts = ts.value();
      span.dur = dur.value();
      span.key = cat.value() + ":" + name.value();
      spans.push_back(std::move(span));
    } else if (cat.value() == "decision") {
      auto args = Child(event, "args");
      if (!args.ok()) return args.status();
      auto phase = GetString(*args.value(), "phase");
      auto est_cost = GetDouble(*args.value(), "est_cost");
      auto actual_cost = GetDouble(*args.value(), "actual_cost");
      auto score = GetDouble(*args.value(), "score");
      if (!phase.ok() || !est_cost.ok() || !actual_cost.ok() ||
          !score.ok()) {
        return Status::InvalidArgument("decision event missing payload");
      }
      DecisionAgg& agg = decisions[name.value() + "/" + phase.value()];
      agg.count += 1;
      agg.est_cost_sum += est_cost.value();
      agg.actual_cost_sum += actual_cost.value();
      agg.score_sum += score.value();
    } else {
      ++instants;
    }
  }

  // An empty traceEvents array means the trace was truncated (the process
  // died mid-dump) or recording was off -- either way there is nothing to
  // analyse, and CI scripts gating on this tool must see a failure rather
  // than three empty tables and exit 0.
  if (spans.empty() && decisions.empty() && instants == 0) {
    return Status::InvalidArgument(
        "trace has no events -- empty or truncated dump (was the recorder "
        "armed and the process shut down cleanly?)")
        .WithContext(path);
  }

  ComputeSelfTimes(&spans);
  std::map<std::string, SpanAgg> by_key;
  for (const SpanRow& span : spans) {
    SpanAgg& agg = by_key[span.key];
    agg.count += 1;
    agg.total_dur += span.dur;
    agg.total_self += span.self;
  }
  std::vector<std::pair<std::string, SpanAgg>> ranked(by_key.begin(),
                                                      by_key.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.second.total_self > b.second.total_self;
            });

  std::printf("== %s: %zu spans, %zu decision keys, %llu instants ==\n",
              path.c_str(), spans.size(), decisions.size(),
              static_cast<unsigned long long>(instants));
  std::printf("\nTop spans by self-time (us):\n");
  std::printf("%-28s %10s %14s %14s\n", "cat:name", "count", "total",
              "self");
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    std::printf("%-28s %10llu %14.3f %14.3f\n", ranked[i].first.c_str(),
                static_cast<unsigned long long>(ranked[i].second.count),
                ranked[i].second.total_dur, ranked[i].second.total_self);
  }

  std::printf("\nDecision histogram (per operator/phase):\n");
  std::printf("%-28s %10s %14s %14s %12s\n", "op/phase", "count",
              "mean est", "mean actual", "mean score");
  for (const auto& [key, agg] : decisions) {
    const double n = static_cast<double>(agg.count);
    std::printf("%-28s %10llu %14.3f %14.3f %12.4f\n", key.c_str(),
                static_cast<unsigned long long>(agg.count),
                agg.est_cost_sum / n, agg.actual_cost_sum / n,
                agg.score_sum / n);
  }
  return Status::OK();
}

Status InspectReport(const std::string& path) {
  std::string text;
  {
    auto read = ReadFile(path);
    if (!read.ok()) return read.status();
    text = std::move(read).value();
  }
  auto report = ExecutionReport::FromJson(text);
  if (!report.ok()) return report.status().WithContext(path);

  std::printf("\nEstimator calibration (%s):\n", path.c_str());
  std::printf("%-10s %8s %11s %11s %11s %11s %11s %11s\n", "solver",
              "samples", "cost bias", "cost MAE", "lo bias", "lo MAE",
              "hi bias", "hi MAE");
  for (int k = 0; k < vaolib::obs::kNumSolverKinds; ++k) {
    const auto& c = report.value().calibration[k];
    if (c.samples == 0) continue;
    std::printf("%-10s %8llu %11.4f %11.4f %11.4f %11.4f %11.4f %11.4f\n",
                vaolib::obs::SolverKindName(
                    static_cast<vaolib::obs::SolverKind>(k)),
                static_cast<unsigned long long>(c.samples), c.CostBias(),
                c.CostMae(), c.LoBias(), c.LoMae(), c.HiBias(), c.HiMae());
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string report_path;
  std::size_t top = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      top = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (top == 0) top = 10;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (trace_path.empty() && report_path.empty()) {
    std::fprintf(
        stderr,
        "usage: trace_inspect <trace.json> [--top N] [--report <r.json>]\n");
    return 2;
  }
  if (!trace_path.empty()) {
    const Status status = InspectTrace(trace_path, top);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!report_path.empty()) {
    const Status status = InspectReport(report_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
