// vaobench driver: drives server::StandingQueryServer in-process over one
// named workload and prints its metrics.
//
//   vaobench_driver --workload <book|wide|storm> --seed <n> --seconds <s>
//                   --trace <0|1> [--trace-out <file>] [--plant-fault]
//
// Load model: a closed loop with one feed session. The feed sends
// TICK <rate>, the driver drains every session's frames, and only then
// sends the next TICK, so ticks_per_s is the highest sustainable tick
// rate of the single-threaded server. Sessions are in-process objects (no
// sockets), and everything runs on one thread.
//
// Bounded timings are CPU time (see CpuSeconds) scaled to the reference
// speed: a reference chunk (reference.h) runs before every tick and every
// set-up, and each timing is multiplied by kReferenceChunkSeconds over the
// run's median chunk time. A shared host has run the same code at speeds
// 1.8x apart from one ten-minute stretch to the next; the chunk slows with
// it, and no change to the program moves it. Raw CPU and wall figures are
// printed alongside.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced for half the time and then again, with the
// same seed and tick count, under the layer tracer (layer_trace.h), and
// prints the per-layer split; the traced RESULT frames and work units
// must equal the untraced ones exactly. --plant-fault serves a bond_model
// whose answers are all shifted, to prove the checks catch wrong answers.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_workloads.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "layer_trace.h"
#include "obs/metrics.h"
#include "reference.h"
#include "result_check.h"
#include "server/frame.h"
#include "server/server.h"
#include "testing/oracle.h"

namespace vaobench {
namespace {

using namespace vaolib;

// ---- Fixed run parameters. -------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 15;
/// tick_p90_ms needs >= 10 samples beyond the 90th percentile, so an
/// untraced run measures at least 100 ticks even when --seconds runs out
/// first.
constexpr std::size_t kMinTimedTicks = 100;
/// Minimum ticks of each half of a traced run (no tail percentiles there).
constexpr std::size_t kMinTracedTicks = 20;
/// A measured loop stops after this many times --seconds of wall time even
/// when it has not yet reached --seconds at the reference speed.
constexpr double kMaxSlowdown = 4.0;
/// Threads of the oracle's converge-all pass (after the measured loop).
constexpr int kOracleThreads = 2;
/// Offset added to every answer by --plant-fault (far above any width).
constexpr double kPlantedShift = 2.0;
/// Spans written to the trace file, about at most (whole ticks only).
constexpr std::size_t kTraceDetailSpans = 150000;
/// Portfolio draws tried per run before giving up on the separation rule.
constexpr std::size_t kMaxPortfolioDraws = 64;
/// Opening rate of every walk (RateWalk's start), where the separation
/// rule is checked.
constexpr double kOpeningRate = 0.0575;
/// Bound width to which opening prices are refined for that check.
constexpr double kSeparationProbeWidth = 0.1;
/// Seeds below this bound were used while the benchmark was developed;
/// larger seeds are held out for re-checking claims.
constexpr std::uint64_t kFirstHeldOutSeed = 1000;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Shortest text that reads back as exactly \p value.
std::string ExactNumber(double value) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Factor that turns CPU time into CPU time at the reference speed, from
/// the reference chunks timed over the same stretch of the run.
double ReferenceScale(const std::vector<double>& reference_s) {
  return kReferenceChunkSeconds / Median(reference_s);
}

/// Nearest-rank percentile: with n samples, n - ceil(q n) lie beyond it.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// ---- Operation accounting. -------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t results = 0;
  std::uint64_t unconverged = 0;
  std::vector<std::string> messages;

  void Fail(const std::string& message) {
    ++failed;
    if (messages.size() < 20) messages.push_back(message);
  }
};

// ---- One deployment: portfolio, server, sessions, standing set. -----------

struct Session {
  std::uint64_t id = 0;
  server::FrameDecoder decoder;
};

struct Standing {
  std::size_t session = 0;
  std::string query_id;
  std::string sql;
  engine::Query query;
  bool must_converge = true;
  std::uint64_t order = 0;  ///< registration order, for churn
};

/// A decoded frame and the session it was drained from.
struct Frame {
  std::size_t session = 0;
  std::string payload;
};

/// FNV-1a over one tick's frames, for comparing two runs tick by tick.
std::uint64_t HashFrames(const std::vector<Frame>& frames) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Frame& frame : frames) {
    for (const unsigned char c : frame.payload) {
      hash ^= c;
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0xff;  // frame separator
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct TickOutcome {
  std::uint64_t seq = 0;
  double rate = 0.0;
  /// Wall time and CPU time from the TICK frame in to the last drain.
  double latency_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t bytes = 0;
  std::vector<Frame> frames;
  /// Per session: when its drain finished.
  std::vector<Clock::time_point> drained_at;
};

/// What the oracle needs to re-check one tick later.
struct TickRecord {
  std::uint64_t seq = 0;
  double rate = 0.0;
  std::vector<std::pair<std::string, ResultFrame>> answers;  // sql, frame
};

/// The `bd` relation of the bond workload: one row per bond.
std::unique_ptr<engine::Relation> BondRelation(std::size_t bonds) {
  auto relation = std::make_unique<engine::Relation>(engine::Schema(
      {{"bond_index", engine::ColumnType::kDouble},
       {"position", engine::ColumnType::kDouble}}));
  for (std::size_t i = 0; i < bonds; ++i) {
    (void)relation->Append({static_cast<double>(i), 1.0});
  }
  return relation;
}

/// The stream schema: each TICK carries one rate.
engine::Schema RateSchema() {
  return engine::Schema({{"rate", engine::ColumnType::kDouble}});
}

constexpr std::size_t kFeed = 0;
constexpr std::size_t kMonitor = 1;

class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, std::uint64_t seed,
             const std::vector<finance::Bond>& bonds, SpanRecorder* recorder,
             bool plant_fault)
      : spec_(spec), walk_(seed), recorder_(recorder) {
    model_ = std::make_unique<finance::BondPricingFunction>(
        bonds, finance::BondModelConfig{});
    const vao::VariableAccuracyFunction* served = model_.get();
    if (plant_fault) {
      planted_ = std::make_unique<ShiftedFunction>(served, kPlantedShift);
      served = planted_.get();
    }
    if (recorder != nullptr) {
      timed_ = std::make_unique<TimedFunction>(served, recorder);
      served = timed_.get();
    }
    relation_ = BondRelation(spec.bonds);
    if (relation_->size() != spec.bonds) error_ = "relation setup failed";
    if (!registry_.Register(served).ok()) error_ = "registry setup failed";

    // The configuration tools/vaolib_server ships: health plane on, one
    // thread, greedy strategy, deadline scheduling.
    server::ServerConfig config;
    config.dispatcher.tick_budget = spec.tick_budget;
    config.dispatcher.threads = 1;
    config.dispatcher.policy = engine::SchedulerPolicy::kDeadline;
    config.dispatcher.strategy = operators::StrategyKind::kGreedy;
    config.dispatcher.shed_after_misses = spec.shed_after_misses;
    config.dispatcher.health.enabled = true;
    server_ = std::make_unique<server::StandingQueryServer>(
        relation_.get(), RateSchema(), &registry_, config);
    for (const TenantBook& book : spec.tenants) {
      if (book.reserve_units == 0) continue;
      server::TenantQuota quota =
          server_->dispatcher().admission().QuotaFor(book.tenant);
      quota.reserve_units = book.reserve_units;
      server_->dispatcher().admission().SetQuota(book.tenant, quota);
    }
  }

  const std::string& error() const { return error_; }

  /// Opens a session and says HELLO; returns its index.
  std::size_t Open(const std::string& tenant, Tally* tally) {
    Session session;
    session.id = server_->OpenSession();
    sessions_.push_back(std::move(session));
    const std::size_t index = sessions_.size() - 1;
    const auto replies = Send(index, "HELLO " + tenant);
    if (replies.size() != 1 || replies[0] != "OK HELLO " + tenant) {
      tally->Fail("HELLO " + tenant + " was not acknowledged");
    }
    return index;
  }

  /// Sends REGISTER and records the standing query on success.
  bool Register(std::size_t session, const std::string& query_id,
                const std::string& sql, bool must_converge, Tally* tally) {
    ++tally->attempted;
    const auto replies = Send(session, "REGISTER " + query_id + " " + sql,
                              SpanName::kHandleRegister);
    if (replies.size() != 1 || replies[0] != "OK REGISTER " + query_id) {
      tally->Fail("REGISTER " + query_id + " -> " +
                  (replies.empty() ? "(no reply)" : replies[0]));
      return false;
    }
    auto query = server_->dispatcher().ParseSql(sql);
    if (!query.ok()) {
      tally->Fail("REGISTER " + query_id + ": " + query.status().ToString());
      return false;
    }
    Standing entry;
    entry.session = session;
    entry.query_id = query_id;
    entry.sql = sql;
    entry.query = std::move(query).value();
    entry.must_converge = must_converge;
    entry.order = next_order_++;
    standing_[{session, query_id}] = std::move(entry);
    return true;
  }

  bool Withdraw(std::size_t session, const std::string& query_id,
                Tally* tally) {
    ++tally->attempted;
    const auto replies =
        Send(session, "WITHDRAW " + query_id, SpanName::kHandleWithdraw);
    standing_.erase({session, query_id});
    if (replies.size() != 1 || replies[0] != "OK WITHDRAW " + query_id) {
      tally->Fail("WITHDRAW " + query_id + " -> " +
                  (replies.empty() ? "(no reply)" : replies[0]));
      return false;
    }
    return true;
  }

  /// HELLO for feed, monitor and every tenant, then REGISTER of the
  /// standing set; returns the REGISTER send time of each query.
  std::vector<std::pair<std::size_t, Clock::time_point>> OpenStandingSet(
      Tally* tally) {
    std::vector<std::pair<std::size_t, Clock::time_point>> sent;
    Open("feed", tally);
    Open("mon", tally);
    for (const TenantBook& book : spec_.tenants) {
      const std::size_t session = Open(book.tenant, tally);
      const bool must_converge =
          spec_.all_must_converge || book.reserve_units > 0;
      for (std::size_t q = 0; q < book.sql.size(); ++q) {
        sent.emplace_back(session, Clock::now());
        Register(session, book.tenant + "-q" + std::to_string(q), book.sql[q],
                 must_converge, tally);
      }
    }
    return sent;
  }

  /// One closed-loop tick: TICK in, every session drained.
  TickOutcome Tick() {
    TickOutcome outcome;
    outcome.rate = walk_.Next();
    outcome.seq = ++seq_;
    char payload[64];
    std::snprintf(payload, sizeof(payload), "TICK %.17g", outcome.rate);
    const std::string frame = server::EncodeFrame(payload);
    outcome.drained_at.resize(sessions_.size());
    if (recorder_ != nullptr) {
      recorder_->set_tick(static_cast<std::uint32_t>(seq_));
    }
    const double cpu_start = CpuSeconds();
    const auto start = Clock::now();
    {
      ScopedSpan tick_span(recorder_, SpanName::kTick);
      {
        ScopedSpan handle_span(recorder_, SpanName::kHandleTick);
        server_->HandleBytes(sessions_[kFeed].id, frame);
      }
      for (std::size_t s = 0; s < sessions_.size(); ++s) {
        ScopedSpan drain_span(recorder_, SpanName::kDrain);
        const std::string bytes = server_->DrainOutput(sessions_[s].id);
        outcome.bytes += bytes.size();
        if (!sessions_[s].decoder.Feed(bytes).ok()) {
          outcome.frames.push_back({s, "(broken framing)"});
        }
        while (auto next = sessions_[s].decoder.Next()) {
          outcome.frames.push_back({s, std::move(*next)});
        }
        outcome.drained_at[s] = Clock::now();
      }
    }
    outcome.latency_s = SecondsSince(start, Clock::now());
    outcome.cpu_s = CpuSeconds() - cpu_start;
    if (recorder_ != nullptr) recorder_->set_tick(0);
    return outcome;
  }

  /// Checks one tick's frames (outside the clock); fills \p record with
  /// the parsed answers for a later oracle check.
  void CheckTick(const TickOutcome& outcome, Tally* tally,
                 TickRecord* record) {
    record->seq = outcome.seq;
    record->rate = outcome.rate;
    const std::string where = "tick " + std::to_string(outcome.seq) + ": ";
    std::set<std::pair<std::size_t, std::string>> answered;
    bool acked = false;
    tally->attempted += standing_.size();
    for (const Frame& frame : outcome.frames) {
      const std::string& payload = frame.payload;
      if (payload.rfind("OK TICK ", 0) == 0 && frame.session == kFeed) {
        acked = true;
        continue;
      }
      if (payload.rfind("RESULT ", 0) != 0) {
        tally->Fail(where + "unexpected frame: " + payload.substr(0, 120));
        continue;
      }
      std::string error;
      const auto parsed = ParseResultFrame(payload, &error);
      if (!parsed.has_value()) {
        tally->Fail(where + error);
        continue;
      }
      const auto key = std::make_pair(frame.session, parsed->query_id);
      const auto it = standing_.find(key);
      if (it == standing_.end()) {
        tally->Fail(where + "RESULT for unknown query " + parsed->query_id);
        continue;
      }
      if (!answered.insert(key).second) {
        tally->Fail(where + "duplicate RESULT for " + parsed->query_id);
        continue;
      }
      ++tally->results;
      if (!parsed->converged) ++tally->unconverged;
      if (const auto violation =
              CheckStructure(*parsed, it->second.query, outcome.seq,
                             relation_->size(), min_width_)) {
        tally->Fail(where + parsed->query_id + ": " + *violation);
        continue;
      }
      if (!parsed->converged && it->second.must_converge) {
        tally->Fail(where + parsed->query_id + " did not converge");
        continue;
      }
      record->answers.emplace_back(it->second.sql, *parsed);
    }
    for (const auto& [key, entry] : standing_) {
      if (answered.count(key) == 0) {
        tally->Fail(where + "no RESULT for " + entry.query_id);
      }
    }
    if (!acked) tally->Fail(where + "TICK was not acknowledged");
  }

  /// Churn round \p churn_round: the next best-effort tenant withdraws its
  /// oldest query and registers a replacement with the same text. Returns
  /// the tenant's session and the REGISTER send time.
  std::pair<std::size_t, Clock::time_point> Churn(std::size_t churn_round,
                                                  Tally* tally) {
    // Best-effort tenants take turns.
    std::vector<std::size_t> best_effort;
    for (std::size_t t = 0; t < spec_.tenants.size(); ++t) {
      if (spec_.tenants[t].reserve_units == 0) best_effort.push_back(t);
    }
    const std::size_t tenant = best_effort[churn_round % best_effort.size()];
    const std::size_t session = 2 + tenant;  // after feed and monitor
    const Standing* oldest = nullptr;
    for (const auto& [key, entry] : standing_) {
      if (entry.session == session &&
          (oldest == nullptr || entry.order < oldest->order)) {
        oldest = &entry;
      }
    }
    if (oldest == nullptr) return {session, Clock::now()};
    const std::string sql = oldest->sql;
    const bool must_converge = oldest->must_converge;
    Withdraw(session, oldest->query_id, tally);
    const auto sent = Clock::now();
    Register(session,
             spec_.tenants[tenant].tenant + "-r" + std::to_string(churn_round),
             sql, must_converge, tally);
    return {session, sent};
  }

  /// Monitor-session scrapes (never timed).
  std::map<std::string, double> ScrapeMetrics() {
    std::map<std::string, double> series;
    const auto replies = Send(kMonitor, "METRICS");
    if (replies.size() != 1) return series;
    std::istringstream in(replies[0]);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      if (space == std::string::npos) continue;
      series[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                  nullptr);
    }
    return series;
  }

  std::uint64_t ScrapeWork() {
    const auto replies = Send(kMonitor, "STATS");
    if (replies.size() != 1) return 0;
    const std::size_t at = replies[0].find(" work=");
    if (at == std::string::npos) return 0;
    return std::strtoull(replies[0].c_str() + at + 6, nullptr, 10);
  }

  void ProbeMinWidth() {
    WorkMeter meter;
    auto object = model_->Invoke(model_->ArgsFor(0.0575, 0), &meter);
    min_width_ = object.ok() ? object.value()->min_width() : 0.0;
  }

 private:
  /// HandleBytes + drain of one request's replies on \p session; the
  /// HandleBytes call is traced as \p span when given.
  std::vector<std::string> Send(std::size_t session, const std::string& payload,
                                std::optional<SpanName> span = std::nullopt) {
    {
      ScopedSpan handle_span(span.has_value() ? recorder_ : nullptr,
                             span.value_or(SpanName::kHandleTick));
      server_->HandleBytes(sessions_[session].id,
                           server::EncodeFrame(payload));
    }
    std::vector<std::string> replies;
    Session& state = sessions_[session];
    if (!state.decoder.Feed(server_->DrainOutput(state.id)).ok()) {
      replies.push_back("(broken framing)");
      return replies;
    }
    while (auto next = state.decoder.Next()) replies.push_back(*next);
    return replies;
  }

  const WorkloadSpec& spec_;
  RateWalk walk_;
  SpanRecorder* recorder_;
  // Declaration order is destruction order in reverse: the server goes
  // first, then what it borrows.
  std::unique_ptr<finance::BondPricingFunction> model_;
  std::unique_ptr<ShiftedFunction> planted_;
  std::unique_ptr<TimedFunction> timed_;
  std::unique_ptr<engine::Relation> relation_;
  engine::FunctionRegistry registry_;
  std::unique_ptr<server::StandingQueryServer> server_;
  std::vector<Session> sessions_;
  std::map<std::pair<std::size_t, std::string>, Standing> standing_;
  std::uint64_t next_order_ = 0;
  std::uint64_t seq_ = 0;
  double min_width_ = 0.0;
  std::string error_;
};

// ---- Inputs. ----------------------------------------------------------------

/// The run's portfolio: the seed's first draw whose opening prices meet the
/// workload's separation rule (the first draw when there is none); empty
/// when kMaxPortfolioDraws draws all fail. \p draws reports the draws made.
std::vector<finance::Bond> DrawPortfolio(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         std::size_t* draws) {
  for (*draws = 1; *draws <= kMaxPortfolioDraws; ++*draws) {
    std::vector<finance::Bond> bonds =
        GenerateBonds(seed, spec.bonds, *draws - 1);
    if (spec.price_separation <= 0.0) return bonds;
    // Opening prices to within kSeparationProbeWidth.
    const finance::BondPricingFunction model(bonds,
                                             finance::BondModelConfig{});
    std::vector<double> prices;
    for (std::size_t i = 0; i < bonds.size(); ++i) {
      WorkMeter meter;
      auto object = model.Invoke(model.ArgsFor(kOpeningRate, i), &meter);
      if (!object.ok()) break;
      vao::ResultObject& price = **object;
      while (price.bounds().Width() > kSeparationProbeWidth &&
             !price.AtStoppingCondition() && price.Iterate().ok()) {
      }
      prices.push_back(0.5 * (price.bounds().lo + price.bounds().hi));
    }
    if (prices.size() != bonds.size() || prices.size() < 2) continue;
    std::sort(prices.begin(), prices.end());
    if (prices[1] - prices[0] >= spec.price_separation &&
        prices.back() - prices[prices.size() - 2] >= spec.price_separation) {
      return bonds;
    }
  }
  return {};
}

// ---- Set-up. ---------------------------------------------------------------

struct SetupResult {
  std::unique_ptr<Deployment> deployment;
  double cpu_s = 0.0;
  /// CPU time of the reference chunk run just before the set-up.
  double reference_s = 0.0;
  std::vector<double> first_result_ms;
};

/// Builds a deployment and runs its first (group-building) tick. Timed:
/// bond model over the portfolio, server, HELLO/REGISTER of the standing
/// set, first tick, in CPU seconds (see CpuSeconds).
SetupResult Setup(const WorkloadSpec& spec, std::uint64_t seed,
                  const std::vector<finance::Bond>& bonds,
                  SpanRecorder* recorder, bool plant_fault, Tally* tally,
                  std::vector<TickRecord>* records,
                  std::vector<std::uint64_t>* frame_hashes) {
  SetupResult result;
  result.reference_s = TimeReferenceChunk();
  const double start = CpuSeconds();
  result.deployment = std::make_unique<Deployment>(spec, seed, bonds,
                                                   recorder, plant_fault);
  Deployment& deployment = *result.deployment;
  const auto sent = deployment.OpenStandingSet(tally);
  const TickOutcome first = deployment.Tick();
  result.cpu_s = CpuSeconds() - start;
  for (const auto& [session, at] : sent) {
    result.first_result_ms.push_back(
        1e3 * SecondsSince(at, first.drained_at[session]));
  }
  if (!deployment.error().empty()) tally->Fail(deployment.error());
  deployment.ProbeMinWidth();
  TickRecord record;
  deployment.CheckTick(first, tally, &record);
  if (records != nullptr) records->push_back(std::move(record));
  if (frame_hashes != nullptr) {
    frame_hashes->push_back(HashFrames(first.frames));
  }
  return result;
}

// ---- The measured loop. ----------------------------------------------------

struct LoopResult {
  /// Per timed tick: wall time and CPU time (see TickOutcome).
  std::vector<double> latencies_s;
  std::vector<double> cpu_s;
  /// CPU time of the timed ticks and churn.
  double timed_cpu_s = 0.0;
  /// CPU time of the reference chunk run before each tick.
  std::vector<double> reference_s;
  std::vector<double> first_result_ms;
  std::uint64_t reply_bytes = 0;
  std::uint64_t result_frames = 0;
  std::uint64_t work_units = 0;
  /// METRICS series: value after the loop minus value before it.
  std::map<std::string, double> counter_deltas;
  std::vector<std::uint64_t> frame_hashes;
};

/// Runs ticks until they have taken \p seconds of CPU time at the
/// reference speed (and at least \p min_ticks ran), or exactly
/// \p exact_ticks when non-zero. Measuring to a reference-speed length
/// rather than a wall-clock one times the same ticks of the seed's rate
/// walk however fast the host runs at the moment; a wall-clock cap of
/// kMaxSlowdown times \p seconds bounds the run on a very slow host.
LoopResult RunLoop(Deployment* deployment, const WorkloadSpec& spec,
                   double seconds, std::size_t min_ticks,
                   std::size_t exact_ticks, Tally* tally,
                   std::vector<TickRecord>* records) {
  LoopResult loop;
  const std::map<std::string, double> before = deployment->ScrapeMetrics();
  const std::uint64_t work_before = deployment->ScrapeWork();
  const auto wall_cap =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kMaxSlowdown * seconds));
  double reference_sum_s = 0.0;
  for (std::size_t k = 0;; ++k) {
    const double measured_s =
        k == 0 ? 0.0
               : loop.timed_cpu_s * kReferenceChunkSeconds /
                     (reference_sum_s / static_cast<double>(k));
    if (exact_ticks > 0 ? k >= exact_ticks
                        : (k >= min_ticks && (measured_s >= seconds ||
                                              Clock::now() >= wall_cap))) {
      break;
    }
    const bool churned =
        spec.churn_every > 0 && k > 0 && k % spec.churn_every == 0;
    // Session and send time of the churn REGISTER.
    std::pair<std::size_t, Clock::time_point> registered;
    if (churned) {
      const double churn_start = CpuSeconds();
      registered = deployment->Churn(k / spec.churn_every - 1, tally);
      loop.timed_cpu_s += CpuSeconds() - churn_start;
    }
    loop.reference_s.push_back(TimeReferenceChunk());
    reference_sum_s += loop.reference_s.back();
    const TickOutcome outcome = deployment->Tick();
    loop.latencies_s.push_back(outcome.latency_s);
    loop.cpu_s.push_back(outcome.cpu_s);
    loop.timed_cpu_s += outcome.cpu_s;
    loop.reply_bytes += outcome.bytes;
    if (churned) {
      loop.first_result_ms.push_back(
          1e3 * SecondsSince(registered.second,
                             outcome.drained_at[registered.first]));
    }
    for (const Frame& frame : outcome.frames) {
      if (frame.payload.rfind("RESULT ", 0) == 0) ++loop.result_frames;
    }
    loop.frame_hashes.push_back(HashFrames(outcome.frames));
    TickRecord record;
    deployment->CheckTick(outcome, tally, &record);
    if (records != nullptr) records->push_back(std::move(record));
  }
  loop.work_units = deployment->ScrapeWork() - work_before;
  for (const auto& [series, value] : deployment->ScrapeMetrics()) {
    const auto it = before.find(series);
    loop.counter_deltas[series] = value - (it == before.end() ? 0.0 : it->second);
  }
  return loop;
}

/// Sum over every series of family \p name whose labels contain \p label
/// (empty = all series).
double SeriesSum(const std::map<std::string, double>& series,
                 const std::string& name, const std::string& label = "") {
  double sum = 0.0;
  for (const auto& [key, value] : series) {
    const std::size_t brace = key.find('{');
    if (key.compare(0, brace, name) != 0 ||
        (brace == std::string::npos ? key.size() : brace) != name.size()) {
      continue;
    }
    if (!label.empty() && key.find(label) == std::string::npos) continue;
    sum += value;
  }
  return sum;
}

double Delta(const LoopResult& loop, const std::string& name,
             const std::string& label = "") {
  return SeriesSum(loop.counter_deltas, name, label);
}

// ---- Oracle. ---------------------------------------------------------------

/// Checks the answers of a seeded sample of ticks against the converge-all
/// oracle on a pristine bond_model (never timed, never part of set-up).
void CheckOracleSample(const WorkloadSpec& spec, std::uint64_t seed,
                       const std::vector<finance::Bond>& bonds,
                       const std::vector<TickRecord>& records, Tally* tally,
                       std::size_t* ticks_checked) {
  *ticks_checked = 0;
  if (records.empty()) return;
  const finance::BondPricingFunction pristine(bonds,
                                              finance::BondModelConfig{});
  const std::unique_ptr<engine::Relation> relation = BondRelation(spec.bonds);
  const engine::Schema stream_schema = RateSchema();

  SplitMix64 rng(seed ^ 0x6f7261636c65ULL);
  std::set<std::size_t> sample;
  const std::size_t want = std::min(spec.oracle_ticks, records.size());
  while (sample.size() < want) {
    sample.insert(static_cast<std::size_t>(rng.Next() % records.size()));
  }
  for (const std::size_t index : sample) {
    const TickRecord& record = records[index];
    // One converge-all pass per sampled tick, shared by all its queries.
    const ConvergedMemo memo(&pristine);
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < spec.bonds; ++i) {
      rows.push_back(pristine.ArgsFor(record.rate, i));
    }
    memo.Warm(rows, kOracleThreads);
    engine::FunctionRegistry registry;
    if (!registry.Register(&memo).ok()) {
      tally->Fail("oracle registry setup failed");
      return;
    }
    const testing::OracleExecutor oracle(&memo);
    char rate[40];
    std::snprintf(rate, sizeof(rate), "%.17g", record.rate);
    std::map<std::string, std::pair<engine::Query, testing::OracleAnswer>>
        answers;
    for (const auto& [sql, frame] : record.answers) {
      auto it = answers.find(sql);
      if (it == answers.end()) {
        // The oracle has no stream: bind this tick's rate as a constant.
        std::string bound = sql;
        const std::size_t at = bound.find("(rate,");
        if (at != std::string::npos) {
          bound.replace(at, 6, std::string("(") + rate + ",");
        }
        auto query = engine::ParseQuery(bound, registry, stream_schema,
                                         relation->schema());
        if (!query.ok()) {
          tally->Fail("oracle: " + query.status().ToString());
          continue;
        }
        auto answer = oracle.Answer(*query, *relation);
        if (!answer.ok()) {
          tally->Fail("oracle: " + answer.status().ToString());
          continue;
        }
        it = answers
                 .emplace(sql, std::make_pair(std::move(query).value(),
                                              std::move(answer).value()))
                 .first;
      }
      if (const auto violation =
              CheckAgainstOracle(frame, it->second.first, it->second.second)) {
        tally->Fail("tick " + std::to_string(record.seq) + ": " +
                    frame.query_id + " fails the oracle: " + *violation);
      }
    }
    ++*ticks_checked;
  }
}

// ---- Traced-run analysis. --------------------------------------------------

struct LayerSplit {
  double tick_ns = 0.0;
  double handle_tick_ns = 0.0;
  double vao_in_handle_ns = 0.0;
  double drain_ns = 0.0;
  double invoke_ns = 0.0;
  double iterate_ns = 0.0;
  std::uint64_t invokes = 0;
  std::uint64_t iterates = 0;
  std::vector<double> register_ms;
  std::vector<double> rebuild_tick_ms;
};

/// Writes the spans of the first ticks of \p recorder, up to about
/// kTraceDetailSpans, as a Chrome trace to \p path.
void WriteTrace(const SpanRecorder& recorder, const std::string& path,
                Tally* tally) {
  std::uint32_t max_detail_tick = 1;
  std::size_t counted = 0;
  for (const Span& span : recorder.spans()) {
    if (span.tick > max_detail_tick) {
      if (counted > kTraceDetailSpans) break;
      max_detail_tick = span.tick;
    }
    ++counted;
  }
  std::ofstream out(path);
  recorder.WriteChromeTrace(out, max_detail_tick);
  if (!out) {
    tally->Fail("cannot write the trace to " + path);
    return;
  }
  std::printf("trace: %s (%zu spans in memory, written for ticks <= %u)\n",
              path.c_str(), recorder.spans().size(), max_detail_tick);
}

/// Aggregates spans of ticks in [first_tick, last_tick]; register spans
/// and rebuild ticks are taken from the whole run.
LayerSplit SplitLayers(const SpanRecorder& recorder, std::uint32_t first_tick,
                       std::uint32_t last_tick,
                       const std::set<std::uint32_t>& rebuild_ticks) {
  LayerSplit split;
  const auto& spans = recorder.spans();
  for (const Span& span : spans) {
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.name == SpanName::kHandleRegister) {
      split.register_ms.push_back(ns / 1e6);
    }
    if (span.name == SpanName::kTick && rebuild_ticks.count(span.tick) > 0) {
      split.rebuild_tick_ms.push_back(ns / 1e6);
    }
    if (span.tick < first_tick || span.tick > last_tick) continue;
    const bool parent_is_handle =
        span.parent != Span::kNoParent &&
        spans[span.parent].name == SpanName::kHandleTick;
    switch (span.name) {
      case SpanName::kTick:
        split.tick_ns += ns;
        break;
      case SpanName::kHandleTick:
        split.handle_tick_ns += ns;
        break;
      case SpanName::kDrain:
        split.drain_ns += ns;
        break;
      case SpanName::kInvoke:
        ++split.invokes;
        split.invoke_ns += ns;
        if (parent_is_handle) split.vao_in_handle_ns += ns;
        break;
      case SpanName::kIterate:
        ++split.iterates;
        split.iterate_ns += ns;
        if (parent_is_handle) split.vao_in_handle_ns += ns;
        break;
      default:
        break;
    }
  }
  return split;
}

// ---- Output. ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line; the run is correct when no operation failed.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << ExactNumber(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  bool plant_fault = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--plant-fault") {
      options->plant_fault = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (arg == "--trace") {
      options->trace = std::string(value) == "1"   ? 1
                       : std::string(value) == "0" ? 0
                                                   : -1;
    } else if (arg == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && options->seconds > 0.0 && options->trace >= 0 &&
         FindWorkload(options->workload) != nullptr;
}

/// Peak resident set of this process image, in MiB. VmHWM starts afresh
/// at exec; ru_maxrss (the fallback) also counts the parent's footprint
/// inherited across fork.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr,
                 "usage: vaobench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--plant-fault]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  obs::SetEnabled(true);
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  const bool traced = options.trace == 1;
  Tally tally;

  std::printf("vaobench: workload=%s seed=%llu (%s) seconds=%g trace=%d%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seed < kFirstHeldOutSeed ? "development seed"
                                               : "held-out seed",
              options.seconds, options.trace,
              options.plant_fault ? " plant-fault" : "");

  std::size_t portfolio_draws = 0;
  const std::vector<finance::Bond> bonds =
      DrawPortfolio(spec, options.seed, &portfolio_draws);
  if (bonds.empty()) {
    std::fprintf(stderr, "vaobench: no portfolio draw met the separation "
                         "rule\n");
    return 1;
  }
  std::printf("portfolio: %zu bonds, draw %zu of the seed\n", bonds.size(),
              portfolio_draws);

  // The first set-up serves the measured loop; the other set-ups follow it.
  // One health-enabled dispatcher is alive at a time.
  std::vector<double> setup_s;
  std::vector<double> first_result_ms;
  std::vector<double> reference_s;
  const auto add_setup = [&](const SetupResult& setup) {
    setup_s.push_back(setup.cpu_s);
    reference_s.push_back(setup.reference_s);
    first_result_ms.insert(first_result_ms.end(),
                           setup.first_result_ms.begin(),
                           setup.first_result_ms.end());
  };
  std::vector<TickRecord> records;
  std::vector<std::uint64_t> untraced_hashes;
  SetupResult measured = Setup(spec, options.seed, bonds, nullptr,
                               options.plant_fault, &tally, &records,
                               &untraced_hashes);
  add_setup(measured);
  const double loop_seconds = traced ? options.seconds / 2 : options.seconds;
  const LoopResult loop =
      RunLoop(measured.deployment.get(), spec, loop_seconds,
              traced ? kMinTracedTicks : kMinTimedTicks, 0, &tally, &records);
  measured.deployment.reset();
  untraced_hashes.insert(untraced_hashes.end(), loop.frame_hashes.begin(),
                         loop.frame_hashes.end());
  for (std::size_t r = 1; r < kSetupRepeats; ++r) {
    add_setup(Setup(spec, options.seed, bonds, nullptr, options.plant_fault,
                    &tally, nullptr, nullptr));
  }
  // Peak RSS of the set-ups and the measured loop, before the oracle's pass.
  const double peak_rss_mb = PeakRssMb();
  const std::size_t ticks = loop.latencies_s.size();
  const double n = static_cast<double>(ticks);
  reference_s.insert(reference_s.end(), loop.reference_s.begin(),
                     loop.reference_s.end());
  const double scale = ReferenceScale(reference_s);
  const double tick_cpu_p50_ms = 1e3 * Median(loop.cpu_s);
  // Churning workloads time first results of churn registrations; the
  // others time the standing set's registrations during set-up.
  const std::vector<double>& first_results =
      spec.churn_every > 0 ? loop.first_result_ms : first_result_ms;

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"tick_p50_ms", tick_cpu_p50_ms * scale, "ms"},
        {"tick_p90_ms", 1e3 * Percentile(loop.cpu_s, 0.90) * scale, "ms"},
        {"ticks_per_s", n / (loop.timed_cpu_s * scale), "1/s"},
        {"work_units_per_tick", static_cast<double>(loop.work_units) / n,
         "units"},
        {"setup_s", Median(setup_s) * scale, "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  }

  // Traced run: same workload, seed and tick count, decorator installed.
  if (traced) {
    SpanRecorder recorder;
    std::vector<std::uint64_t> traced_hashes;
    SetupResult setup = Setup(spec, options.seed, bonds, &recorder,
                              options.plant_fault, &tally, nullptr,
                              &traced_hashes);
    const LoopResult traced_loop = RunLoop(setup.deployment.get(), spec, 0.0,
                                           0, ticks, &tally, nullptr);
    setup.deployment.reset();
    traced_hashes.insert(traced_hashes.end(),
                         traced_loop.frame_hashes.begin(),
                         traced_loop.frame_hashes.end());
    if (traced_hashes != untraced_hashes) {
      tally.Fail("traced RESULT frames differ from the untraced run's");
    }
    if (traced_loop.work_units != loop.work_units) {
      tally.Fail("traced work units " +
                 std::to_string(traced_loop.work_units) + " != untraced " +
                 std::to_string(loop.work_units));
    }
    if (recorder.foreign_thread_calls() > 0) {
      tally.Fail("layer calls from a second thread were not traced");
    }
    if (!options.trace_out.empty()) {
      WriteTrace(recorder, options.trace_out, &tally);
    }

    // Timed ticks are seqs 2..ticks+1 (seq 1 is the set-up tick); rebuild
    // ticks are the set-up tick and every tick right after churn.
    std::set<std::uint32_t> rebuild_ticks = {1};
    if (spec.churn_every > 0) {
      for (std::size_t k = spec.churn_every; k < ticks;
           k += spec.churn_every) {
        rebuild_ticks.insert(static_cast<std::uint32_t>(k + 2));
      }
    }
    const LayerSplit split =
        SplitLayers(recorder, 2, static_cast<std::uint32_t>(ticks + 1),
                    rebuild_ticks);
    const double tick_ns = split.tick_ns;
    const double vao_ns = split.invoke_ns + split.iterate_ns;
    const double engine_self_ns = split.handle_tick_ns - split.vao_in_handle_ns;
    const double exec_units =
        Delta(traced_loop, "vaolib_work_units_total", "kind=\"exec\"");
    double vip_work = 0.0;
    for (const TenantBook& book : spec.tenants) {
      if (book.reserve_units > 0) {
        vip_work += Delta(traced_loop, "vaolib_owner_work_units_total",
                          "owner=\"" + book.tenant + "\"");
      }
    }
    const double owner_work =
        Delta(traced_loop, "vaolib_owner_work_units_total");
    const double scanned = Delta(traced_loop, "vaolib_rows_scanned_total");
    const double budget = static_cast<double>(spec.tick_budget) * n;
    // Each half is normalised by its own reference chunks: the halves run
    // at different moments of a shared host.
    const double traced_p50_ms = 1e3 * Median(traced_loop.cpu_s) *
                                 ReferenceScale(traced_loop.reference_s);
    const double untraced_p50_ms =
        1e3 * Median(loop.cpu_s) * ReferenceScale(loop.reference_s);
    metrics = {
        {"server.reply_bytes_per_tick",
         static_cast<double>(traced_loop.reply_bytes) / n, "bytes"},
        {"server.result_frames_per_tick",
         static_cast<double>(traced_loop.result_frames) / n, "count"},
        {"server.drain_ms_per_tick", split.drain_ns / 1e6 / n, "ms"},
        {"server.register_ms_p50", Median(split.register_ms), "ms"},
        {"first_result_p50_ms", Median(first_results), "ms"},
        {"engine.self_ms_per_tick", engine_self_ns / 1e6 / n, "ms"},
        {"engine.self_share", engine_self_ns / tick_ns, "ratio"},
        {"engine.rebuild_tick_ms_p50", Median(split.rebuild_tick_ms), "ms"},
        {"engine.scheduler_steps_per_tick",
         Delta(traced_loop, "vaolib_scheduler_steps_total") / n, "count"},
        {"engine.budget_spent_share",
         budget > 0.0
             ? Delta(traced_loop, "vaolib_scheduler_work_units_total") / budget
             : 0.0,
         "ratio"},
        {"engine.budget_exhausted_per_tick",
         Delta(traced_loop, "vaolib_scheduler_budget_exhausted_total") / n,
         "count"},
        {"engine.deadline_misses_per_tick",
         Delta(traced_loop, "vaolib_scheduler_deadline_misses_total") / n,
         "count"},
        {"engine.starved_per_tick",
         Delta(traced_loop, "vaolib_scheduler_starved_queries_total") / n,
         "count"},
        {"engine.vip_work_share",
         owner_work > 0.0 ? vip_work / owner_work : 0.0, "ratio"},
        {"unconverged_share",
         tally.results > 0 ? static_cast<double>(tally.unconverged) /
                                 static_cast<double>(tally.results)
                           : 0.0,
         "ratio"},
        {"operators.choose_iter_units_per_tick",
         Delta(traced_loop, "vaolib_work_units_total",
               "kind=\"choose_iter\"") /
             n,
         "units"},
        {"operators.rows_short_circuited_share",
         scanned > 0.0
             ? Delta(traced_loop, "vaolib_rows_short_circuited_total") /
                   scanned
             : 0.0,
         "ratio"},
        {"vao.invoke_per_tick", static_cast<double>(split.invokes) / n,
         "count"},
        {"vao.invoke_ms_per_tick", split.invoke_ns / 1e6 / n, "ms"},
        {"vao.iterate_per_tick", static_cast<double>(split.iterates) / n,
         "count"},
        {"vao.iterate_ms_per_tick", split.iterate_ns / 1e6 / n, "ms"},
        {"vao.iterate_us_mean",
         split.iterates > 0
             ? split.iterate_ns / 1e3 / static_cast<double>(split.iterates)
             : 0.0,
         "us"},
        {"vao.share", vao_ns / tick_ns, "ratio"},
        {"numeric.exec_units_per_tick", exec_units / n, "units"},
        {"numeric.ns_per_exec_unit",
         exec_units > 0.0 ? vao_ns / exec_units : 0.0, "ns"},
        {"trace.overhead_pct",
         100.0 * (traced_p50_ms / untraced_p50_ms - 1.0), "%"},
    };
  }

  std::size_t oracle_ticks = 0;
  const auto oracle_start = Clock::now();
  CheckOracleSample(spec, options.seed, bonds, records, &tally,
                    &oracle_ticks);
  const double oracle_s = SecondsSince(oracle_start, Clock::now());
  if (oracle_ticks == 0) {
    tally.Fail("no tick was checked against the oracle");
  }

  // Human-readable account, then the JSON line.
  std::printf("ticks: %zu timed (+1 set-up tick per set-up), %zu set-ups, "
              "%zu first-result samples, %zu ticks checked by the oracle in "
              "%.1f s\n",
              ticks, setup_s.size(), first_results.size(), oracle_ticks,
              oracle_s);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      tally.attempted, 1));
  const std::vector<Metric> shares = {
      {"unconverged_share",
       tally.results > 0 ? static_cast<double>(tally.unconverged) /
                               static_cast<double>(tally.results)
                         : 0.0,
       "ratio"},
      {"failed_share", static_cast<double>(tally.failed) / attempted,
       "ratio"},
  };
  if (!traced) {
    std::printf("tick_p90_ms rests on %zu samples (%zu beyond it)\n", ticks,
                ticks - static_cast<std::size_t>(std::ceil(0.9 * n)));
    std::printf("tick_*, ticks_per_s and setup_s are CPU time at the "
                "reference speed: the reference chunk took %.4f ms here "
                "(median of %zu), scale %.4f; raw figures follow them\n",
                1e3 * Median(reference_s), reference_s.size(), scale);
    std::vector<Metric> all = metrics;
    all.push_back({"tick_cpu_p50_ms", tick_cpu_p50_ms, "ms"});
    all.push_back(
        {"tick_wall_p50_ms", 1e3 * Median(loop.latencies_s), "ms"});
    all.push_back(
        {"tick_wall_p90_ms", 1e3 * Percentile(loop.latencies_s, 0.90), "ms"});
    all.push_back({"first_result_p50_ms", Median(first_results), "ms"});
    all.insert(all.end(), shares.begin(), shares.end());
    PrintTable("end-to-end:", all);
  } else {
    std::printf("traced run: %zu ticks, untraced tick_cpu_p50_ms %.4f\n",
                ticks, tick_cpu_p50_ms);
    PrintTable("per-layer:", metrics);
    PrintTable("shares:", shares);
    std::printf(
        "known limit: vao::IterateBatch dynamic_casts to concrete result "
        "types, so under the decorator multi-row refinements take the "
        "scalar path (results and work units are bit-identical, checked "
        "above; their timings are scalar)\n");
  }
  for (const std::string& message : tally.messages) {
    std::printf("FAIL: %s\n", message.c_str());
  }
  std::fflush(stdout);
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace vaobench

int main(int argc, char** argv) { return vaobench::Main(argc, argv); }
