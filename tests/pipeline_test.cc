// Golden parity of the tick pipeline: every query kind through every way the
// engine can run a tick, over a synthetic table and the bond model, compared
// byte for byte against answers and work units recorded in
// tests/golden/pipeline_parity.txt.
//
// One fixture drives everything, in the shape of a UDF tester:
//
//   PipelineTester(&world).ForQuery(sql).OnPath(path).OnTick(rate)
//       .ExpectGolden("key");
//
// The same file also pins each aggregate operator on its own (driven through
// EvaluateTask under every strategy and chooser path), down to a hash of its
// decision trace.
//
// Re-record (only when a change is meant to move answers or work) with
//   VAOLIB_GOLDEN_RECORD=1 ./tests/pipeline_test
// which rewrites the golden file from the current engine.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/multi_query.h"
#include "engine/report_capture.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "obs/trace.h"
#include "operators/iteration_task.h"
#include "testing/chaos_result_object.h"
#include "testing/workload_gen.h"
#include "workload/portfolio_gen.h"

#ifndef VAOLIB_GOLDEN_DIR
#error "VAOLIB_GOLDEN_DIR must point at tests/golden"
#endif

namespace vaolib {
namespace {

using engine::ExecutionMode;
using engine::MultiQueryExecutor;
using engine::MultiQueryOptions;
using engine::Query;
using engine::QueryKind;
using engine::ResiliencePolicy;
using engine::SchedulerPolicy;
using engine::TickResult;

// ---------------------------------------------------------------------------
// Golden store: key -> digest lines, loaded once; rewritten at exit in
// record mode.
// ---------------------------------------------------------------------------

class GoldenStore {
 public:
  static GoldenStore& Get() {
    static GoldenStore* store = new GoldenStore();
    return *store;
  }

  bool recording() const { return recording_; }

  const std::string* Find(const std::string& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  void Record(const std::string& key, const std::string& digest) {
    entries_[key] = digest;
  }

  void Save() const {
    std::ofstream out(Path());
    for (const auto& [key, digest] : entries_) {
      out << "== " << key << "\n" << digest;
    }
  }

 private:
  GoldenStore() {
    const char* record = std::getenv("VAOLIB_GOLDEN_RECORD");
    recording_ = record != nullptr && std::string(record) == "1";
    std::ifstream in(Path());
    std::string line;
    std::string key;
    while (std::getline(in, line)) {
      if (line.rfind("== ", 0) == 0) {
        key = line.substr(3);
        entries_[key];
      } else if (!key.empty()) {
        entries_[key] += line + "\n";
      }
    }
  }

  static std::string Path() {
    return std::string(VAOLIB_GOLDEN_DIR) + "/pipeline_parity.txt";
  }

  bool recording_ = false;
  std::map<std::string, std::string> entries_;
};

class GoldenEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    if (GoldenStore::Get().recording()) GoldenStore::Get().Save();
  }
};

const auto* const kGoldenEnvironment =
    ::testing::AddGlobalTestEnvironment(new GoldenEnvironment());

// Records \p digest under \p key in record mode, else compares with it.
void ExpectGolden(const std::string& key, const std::string& digest) {
  GoldenStore& store = GoldenStore::Get();
  if (store.recording()) {
    store.Record(key, digest);
    return;
  }
  const std::string* expected = store.Find(key);
  ASSERT_NE(expected, nullptr) << "no golden entry for " << key;
  EXPECT_EQ(*expected, digest) << key;
}

// ---------------------------------------------------------------------------
// Worlds: a relation, a registered UDF and the stream schema it reads.
// ---------------------------------------------------------------------------

struct World {
  std::string name;
  std::unique_ptr<engine::Relation> relation;
  engine::Schema stream_schema =
      engine::Schema({{"rate", engine::ColumnType::kDouble}});
  engine::FunctionRegistry registry;
  const vao::VariableAccuracyFunction* function = nullptr;
  /// SQL spelling of the UDF call, e.g. "bond_model(rate, bond_index)".
  std::string call;
  /// The UDF's arguments for row \p row at the first tick's rate.
  std::vector<double> (*row_args)(std::size_t row) = nullptr;
  /// Source text of the weight column for weighted SUM.
  std::string weight_column;
  /// Scales the query constants and precisions to the world's values.
  double select_constant = 0.0;
  double range_lo = 0.0;
  double range_hi = 0.0;
  double extreme_precision = 0.05;
  double sum_precision = 1.0;
};

const World& BondWorld() {
  static const World* world = [] {
    auto* w = new World();
    w->name = "bond";
    workload::PortfolioSpec spec;
    spec.count = 12;
    static const auto bonds = workload::GeneratePortfolio(777, spec);
    static const finance::BondPricingFunction model(
        bonds, finance::BondModelConfig{});
    w->relation = std::make_unique<engine::Relation>(engine::Schema(
        {{"bond_index", engine::ColumnType::kDouble},
         {"position", engine::ColumnType::kDouble}}));
    for (std::size_t i = 0; i < bonds.size(); ++i) {
      (void)w->relation->Append(
          {static_cast<double>(i), i % 5 == 0 ? 8.0 : 1.0});
    }
    (void)w->registry.Register(&model);
    w->function = &model;
    w->call = "bond_model(rate, bond_index)";
    w->row_args = [](std::size_t row) {
      return std::vector<double>{0.0575, static_cast<double>(row)};
    };
    w->weight_column = "position";
    w->select_constant = 100.0;
    w->range_lo = 99.0;
    w->range_hi = 101.0;
    w->extreme_precision = 0.05;
    w->sum_precision = 1.0;
    return w;
  }();
  return *world;
}

const World& SynthWorld() {
  static const World* world = [] {
    auto* w = new World();
    w->name = "synth";
    testing::WorkloadSpec spec;
    spec.rows = 24;
    static const testing::Workload workload =
        testing::MakeWorkload(spec, /*seed=*/20261018);
    w->relation = std::make_unique<engine::Relation>(workload.relation);
    (void)w->registry.Register(workload.function.get());
    w->function = workload.function.get();
    w->call = "synth(id)";
    w->row_args = [](std::size_t row) {
      return std::vector<double>{static_cast<double>(row)};
    };
    w->weight_column = "weight";
    w->select_constant = 0.0;
    w->range_lo = -20.0;
    w->range_hi = 20.0;
    w->extreme_precision = 0.05;
    w->sum_precision = 2.0;
    return w;
  }();
  return *world;
}

// Every query kind, as SQL over \p world.
std::map<std::string, std::string> KindSql(const World& world) {
  const std::string from = " FROM t";
  auto num = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  const std::string eps = " PRECISION " + num(world.extreme_precision);
  const std::string sum_eps = " PRECISION " + num(world.sum_precision);
  const std::string approx =
      " APPROX WITH CONFIDENCE 0.95 ERROR 0.01 SEED 7";
  return {
      {"select", "SELECT *" + from + " WHERE " + world.call + " > " +
                     num(world.select_constant)},
      {"range", "SELECT *" + from + " WHERE " + world.call + " BETWEEN " +
                    num(world.range_lo) + " AND " + num(world.range_hi)},
      {"max", "SELECT MAX(" + world.call + ")" + from + eps},
      {"min", "SELECT MIN(" + world.call + ")" + from + eps},
      {"sum", "SELECT SUM(" + world.call + ")" + from + sum_eps},
      {"ave", "SELECT AVE(" + world.call + ")" + from + eps},
      {"wsum", "SELECT SUM(" + world.call + ", " + world.weight_column + ")" +
                   from + sum_eps},
      {"topk", "SELECT TOP 3 " + world.call + from + eps},
      {"approx_sum",
       "SELECT SUM(" + world.call + ")" + from + sum_eps + approx},
      {"approx_ave", "SELECT AVE(" + world.call + ")" + from + eps + approx},
      {"approx_topk", "SELECT TOP 3 " + world.call + from + eps + approx},
  };
}

bool IsApproxKind(const std::string& kind) {
  return kind.rfind("approx_", 0) == 0;
}

// ---------------------------------------------------------------------------
// Paths: every way a tick can be run.
// ---------------------------------------------------------------------------

struct Path {
  enum class Runner { kSingle, kMulti };
  Runner runner = Runner::kSingle;
  ExecutionMode mode = ExecutionMode::kVao;
  ResiliencePolicy resilience = ResiliencePolicy::kStrict;
  /// Single runner: wrap the UDF in a ChaosFunction (a few poisoned rows).
  bool chaos = false;
  /// Multi runner: scheduled under `policy` (otherwise unscheduled).
  bool scheduled = false;
  SchedulerPolicy policy = SchedulerPolicy::kGreedyGlobal;
  /// Multi runner, scheduled: budget as a fraction of the unbudgeted
  /// tick's spend (0 = no budget).
  double budget_fraction = 0.0;
  int threads = 1;
  /// Multi runner: the aggregates' iteration strategy.
  operators::StrategyKind strategy = operators::StrategyKind::kGreedy;

  std::string Label() const {
    std::ostringstream os;
    if (runner == Runner::kSingle) {
      os << "cq_" << (mode == ExecutionMode::kVao ? "vao" : "traditional");
      if (resilience == ResiliencePolicy::kDegrade) os << "_degrade";
      if (chaos) os << "_chaos";
    } else if (!scheduled) {
      os << "multi_unscheduled";
    } else {
      os << "multi_" << engine::SchedulerPolicyName(policy);
      if (budget_fraction > 0.0) os << "_budget";
    }
    if (strategy != operators::StrategyKind::kGreedy) {
      os << "_" << operators::StrategyKindName(strategy);
    }
    os << "_t" << threads;
    return os.str();
  }
};

// Test names carry the path's label, never a byte dump of the struct.
void PrintTo(const Path& path, std::ostream* os) { *os << path.Label(); }

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Rows(const std::vector<std::size_t>& rows) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i ? "," : "") << rows[i];
  }
  os << "]";
  return os.str();
}

// Everything the parity gate pins about one query's tick.
std::string Digest(const TickResult& r) {
  std::ostringstream os;
  os << engine::QueryKindName(r.kind) << " lo=" << Hex(r.aggregate_bounds.lo)
     << " hi=" << Hex(r.aggregate_bounds.hi)
     << " mode=" << vao::AnswerModeName(r.aggregate_bounds.mode)
     << " winner="
     << (r.winner_row.has_value() ? std::to_string(*r.winner_row) : "-")
     << " rows=" << Rows(r.passing_rows) << " top=" << Rows(r.top_rows)
     << " top_bounds=";
  for (const Bounds& b : r.top_bounds) os << Hex(b.lo) << ":" << Hex(b.hi) << ";";
  os << " tie=" << r.tie << " converged=" << r.converged
     << " degraded=" << r.degraded << " quarantined="
     << Rows(r.quarantined_rows) << " work=" << r.work_units
     << " by_kind=" << r.report.work.exec << "/" << r.report.work.get_state
     << "/" << r.report.work.store_state << "/"
     << r.report.work.choose_iter;
  return os.str();
}

// ---------------------------------------------------------------------------
// PipelineTester
// ---------------------------------------------------------------------------

class PipelineTester {
 public:
  explicit PipelineTester(const World* world) : world_(world) {}

  /// Adds a query; a single-runner path runs each query on its own
  /// executor, a multi-runner path runs them all as one group.
  PipelineTester& ForQuery(std::string sql) {
    sqls_.push_back(std::move(sql));
    return *this;
  }
  PipelineTester& OnPath(const Path& path) {
    path_ = path;
    return *this;
  }
  PipelineTester& OnTick(double rate) {
    rates_.push_back(rate);
    return *this;
  }

  /// One line per query per tick (or one ERR line when the query, or the
  /// group, failed).
  std::string Run() const {
    std::vector<Query> queries;
    for (const std::string& sql : sqls_) {
      auto parsed = engine::ParseQuery(sql, world_->registry,
                                       world_->stream_schema,
                                       world_->relation->schema());
      if (!parsed.ok()) return "PARSE " + parsed.status().ToString() + "\n";
      queries.push_back(std::move(parsed).value());
    }
    return path_.runner == Path::Runner::kSingle ? RunSingle(queries)
                                                 : RunMulti(queries);
  }

  void ExpectGolden(const std::string& key) const {
    vaolib::ExpectGolden(world_->name + "/" + path_.Label() + "/" + key,
                         Run());
  }

 private:
  std::string RunSingle(std::vector<Query> queries) const {
    std::ostringstream os;
    testing::ChaosOptions chaos_options;
    chaos_options.seed = 5;
    chaos_options.fault_probability = 0.2;
    chaos_options.kinds = {testing::FaultKind::kNanBounds,
                           testing::FaultKind::kStalledConvergence,
                           testing::FaultKind::kIterateFailure};
    const testing::ChaosFunction chaos(world_->function, chaos_options);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      Query query = queries[q];
      if (path_.chaos) query.function = &chaos;
      auto executor = engine::CqExecutor::Create(
          world_->relation.get(), world_->stream_schema, query, path_.mode,
          path_.threads, path_.resilience);
      if (!executor.ok()) {
        os << "q" << q << " CREATE " << executor.status().ToString() << "\n";
        continue;
      }
      for (std::size_t t = 0; t < rates_.size(); ++t) {
        const auto tick = (*executor)->ProcessTick({rates_[t]});
        os << "q" << q << " t" << t << " ";
        if (tick.ok()) {
          os << Digest(*tick) << " cause="
             << (tick->degraded ? tick->degradation_cause.ToString() : "-");
        } else {
          os << "ERR " << tick.status().ToString();
        }
        os << " meter=" << (*executor)->meter().Total() << "\n";
      }
    }
    return os.str();
  }

  Result<std::unique_ptr<MultiQueryExecutor>> MakeMulti(
      const std::vector<Query>& queries, std::uint64_t budget) const {
    MultiQueryOptions options;
    options.threads = path_.threads;
    options.scheduler.policy =
        path_.scheduled ? path_.policy : SchedulerPolicy::kSequential;
    options.scheduler.budget = budget;
    options.strategy = path_.strategy;
    if (path_.scheduled) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        engine::QuerySchedule schedule;
        schedule.priority = 1.0 + static_cast<double>(q % 3);
        schedule.deadline = q % 2 == 0 ? 40000 * (q + 1) : 0;
        schedule.reserve = q == 1 ? 20000 : 0;
        options.schedules.push_back(schedule);
        options.owners.push_back(q % 2 == 0 ? "even" : "odd");
      }
    }
    return MultiQueryExecutor::Create(world_->relation.get(),
                                      world_->stream_schema, queries,
                                      options);
  }

  std::string RunMulti(const std::vector<Query>& queries) const {
    std::uint64_t budget = 0;
    if (path_.budget_fraction > 0.0) {
      // Size the budget from the unbudgeted spend of the first tick.
      auto probe = MakeMulti(queries, 0);
      if (!probe.ok()) return "CREATE " + probe.status().ToString() + "\n";
      if (!(*probe)->ProcessTick({rates_.front()}).ok()) return "PROBE\n";
      budget = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 path_.budget_fraction *
                 static_cast<double>((*probe)->meter().Total())));
    }
    auto executor = MakeMulti(queries, budget);
    if (!executor.ok()) return "CREATE " + executor.status().ToString() + "\n";
    std::ostringstream os;
    for (std::size_t t = 0; t < rates_.size(); ++t) {
      const auto ticks = (*executor)->ProcessTick({rates_[t]});
      if (!ticks.ok()) {
        os << "t" << t << " ERR " << ticks.status().ToString() << "\n";
        continue;
      }
      for (std::size_t q = 0; q < ticks->size(); ++q) {
        os << "q" << q << " t" << t << " " << Digest((*ticks)[q]) << "\n";
      }
      const obs::ExecutionReport& tick = (*executor)->last_tick_report();
      os << "t" << t << " tick work=" << tick.work.Total()
         << " spent=" << tick.scheduler_spent
         << " converged=" << tick.converged
         << " meter=" << (*executor)->meter().Total() << "\n";
    }
    return os.str();
  }

  const World* world_;
  std::vector<std::string> sqls_;
  Path path_;
  std::vector<double> rates_;
};

// ---------------------------------------------------------------------------
// The parity matrix.
// ---------------------------------------------------------------------------

constexpr double kRates[] = {0.0575, 0.0612};

const World& WorldNamed(const std::string& name) {
  return name == "bond" ? BondWorld() : SynthWorld();
}

class SinglePathParity : public ::testing::TestWithParam<
                             std::tuple<std::string, Path>> {};

TEST_P(SinglePathParity, EveryKindMatchesGolden) {
  const World& world = WorldNamed(std::get<0>(GetParam()));
  const Path& path = std::get<1>(GetParam());
  for (const auto& [kind, sql] : KindSql(world)) {
    // Traditional mode rejects APPROX at Create: recorded as such.
    PipelineTester tester(&world);
    tester.ForQuery(sql).OnPath(path);
    for (const double rate : kRates) tester.OnTick(rate);
    tester.ExpectGolden(kind);
  }
}

std::vector<Path> SinglePaths() {
  std::vector<Path> paths;
  for (const int threads : {1, 4}) {
    Path vao;
    vao.threads = threads;
    paths.push_back(vao);
    Path degrade = vao;
    degrade.resilience = ResiliencePolicy::kDegrade;
    degrade.chaos = true;
    paths.push_back(degrade);
  }
  Path traditional;
  traditional.mode = ExecutionMode::kTraditional;
  paths.push_back(traditional);
  return paths;
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<std::string, Path>>& info) {
  return std::get<0>(info.param) + "_" + std::get<1>(info.param).Label();
}

INSTANTIATE_TEST_SUITE_P(Pipeline, SinglePathParity,
                         ::testing::Combine(::testing::Values("bond", "synth"),
                                            ::testing::ValuesIn(SinglePaths())),
                         ParamName);

class MultiPathParity : public ::testing::TestWithParam<
                            std::tuple<std::string, Path>> {};

TEST_P(MultiPathParity, GroupOfEveryKindMatchesGolden) {
  const World& world = WorldNamed(std::get<0>(GetParam()));
  const Path& path = std::get<1>(GetParam());
  const auto sqls = KindSql(world);

  // The whole set as one group (a second point selection joins the first).
  PipelineTester group(&world);
  group.OnPath(path);
  for (const auto& [kind, sql] : sqls) group.ForQuery(sql);
  std::ostringstream second;
  second << "SELECT * FROM t WHERE " << world.call << " <= "
         << world.select_constant + 1.5;
  group.ForQuery(second.str());
  for (const double rate : kRates) group.OnTick(rate);
  group.ExpectGolden("group");

  // Exact kinds only: no approximate query in the group.
  PipelineTester exact(&world);
  exact.OnPath(path);
  for (const auto& [kind, sql] : sqls) {
    if (!IsApproxKind(kind)) exact.ForQuery(sql);
  }
  for (const double rate : kRates) exact.OnTick(rate);
  exact.ExpectGolden("exact_group");

  // Every kind on its own.
  for (const auto& [kind, sql] : sqls) {
    PipelineTester alone(&world);
    alone.ForQuery(sql).OnPath(path);
    for (const double rate : kRates) alone.OnTick(rate);
    alone.ExpectGolden(kind);
  }
}

std::vector<Path> MultiPaths() {
  std::vector<Path> paths;
  for (const int threads : {1, 4}) {
    Path unscheduled;
    unscheduled.runner = Path::Runner::kMulti;
    unscheduled.threads = threads;
    paths.push_back(unscheduled);
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::kDeadline, SchedulerPolicy::kFairShare,
          SchedulerPolicy::kGreedyGlobal}) {
      for (const double fraction : {0.0, 0.3}) {
        Path scheduled = unscheduled;
        scheduled.scheduled = true;
        scheduled.policy = policy;
        scheduled.budget_fraction = fraction;
        paths.push_back(scheduled);
      }
    }
    // The strategy axis (the pipeline runs every strategy at K = 1).
    for (const operators::StrategyKind strategy :
         {operators::StrategyKind::kRoundRobin,
          operators::StrategyKind::kBatchGreedy}) {
      Path plain = unscheduled;
      plain.strategy = strategy;
      paths.push_back(plain);
      Path budgeted = plain;
      budgeted.scheduled = true;
      budgeted.policy = SchedulerPolicy::kGreedyGlobal;
      budgeted.budget_fraction = 0.3;
      paths.push_back(budgeted);
    }
  }
  return paths;
}

INSTANTIATE_TEST_SUITE_P(Pipeline, MultiPathParity,
                         ::testing::Combine(::testing::Values("bond", "synth"),
                                            ::testing::ValuesIn(MultiPaths())),
                         ParamName);

// ---------------------------------------------------------------------------
// Operator goldens: each aggregate task on its own through EvaluateTask, over
// the world's objects at the first tick's rate.
// ---------------------------------------------------------------------------

struct Chooser {
  operators::StrategyKind strategy = operators::StrategyKind::kGreedy;
  int batch_k = 1;
  /// SUM/AVE: the lazy-heap chooser instead of the O(N) scan.
  bool heap = false;

  std::string Label() const {
    std::string label = operators::StrategyKindName(strategy);
    if (batch_k > 1) label += "_k" + std::to_string(batch_k);
    if (heap) label += "_heap";
    return label;
  }
};

std::vector<Chooser> Choosers(bool sum) {
  using operators::StrategyKind;
  std::vector<Chooser> choosers = {
      {StrategyKind::kGreedy, 1, false},
      {StrategyKind::kRoundRobin, 1, false},
      {StrategyKind::kRandom, 1, false},
      {StrategyKind::kBatchGreedy, 4, false},
  };
  if (sum) {
    choosers.push_back({StrategyKind::kGreedy, 1, true});
    choosers.push_back({StrategyKind::kBatchGreedy, 4, true});
  }
  return choosers;
}

std::string StatsDigest(const operators::OperatorStats& s) {
  std::ostringstream os;
  os << "iterations=" << s.iterations << " choose=" << s.choose_steps
     << " touched=" << s.objects_touched << " stalled=" << s.stalled_objects
     << " coarse=" << s.coarse_iterations << " greedy=" << s.greedy_iterations
     << " finalize=" << s.finalize_iterations;
  return os.str();
}

// Count and FNV-1a hash of every decision event recorded since the last
// ClearTrace(): object, phase, bounds before/after, estimates and scores.
std::string DecisionDigest() {
  const obs::TraceSnapshot trace = obs::SnapshotTrace();
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t count = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::TraceEvent::Kind::kDecision) continue;
    ++count;
    std::ostringstream os;
    os << e.name << " " << e.phase << " " << e.object_index << " "
       << Hex(e.lo_before) << " " << Hex(e.hi_before) << " "
       << Hex(e.lo_after) << " " << Hex(e.hi_after) << " " << Hex(e.est_lo)
       << " " << Hex(e.est_hi) << " " << Hex(e.est_cost) << " "
       << Hex(e.actual_cost) << " " << Hex(e.score) << " "
       // The retired raw-score slot repeats the score, so recorded hashes
       // stay comparable.
       << Hex(e.score) << "\n";
    for (const char c : os.str()) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  std::ostringstream os;
  os << "decisions=" << count << " dropped=" << trace.dropped << " hash="
     << std::hex << hash;
  return os.str();
}

// One operator run: answer, stats, work by kind and decision trace.
std::string RunOperator(const World& world, const std::string& op,
                        const Chooser& chooser) {
  WorkMeter meter;
  std::vector<vao::ResultObjectPtr> owned;
  std::vector<vao::ResultObject*> objects;
  for (std::size_t row = 0; row < world.relation->size(); ++row) {
    auto object = world.function->Invoke(world.row_args(row), &meter);
    if (!object.ok()) return "INVOKE " + object.status().ToString() + "\n";
    objects.push_back(object->get());
    owned.push_back(std::move(object).value());
  }
  Rng rng(7);
  const auto configure = [&](operators::OperatorOptions* options,
                             double epsilon) {
    options->epsilon = epsilon;
    options->strategy = chooser.strategy;
    options->batch_k = chooser.batch_k;
    options->rng = &rng;
    options->meter = &meter;
  };

  std::ostringstream os;
  obs::ClearTrace();
  if (op == "max" || op == "min") {
    operators::MinMaxOptions options;
    configure(&options, world.extreme_precision);
    options.kind = op == "max" ? operators::ExtremeKind::kMax
                               : operators::ExtremeKind::kMin;
    const auto outcome =
        operators::EvaluateTask<operators::MinMaxIterationTask>(options,
                                                                objects);
    if (!outcome.ok()) return "ERR " + outcome.status().ToString() + "\n";
    os << "winner=" << outcome->winner_index << " lo="
       << Hex(outcome->winner_bounds.lo) << " hi="
       << Hex(outcome->winner_bounds.hi) << " tie=" << outcome->tie
       << " tied=" << Rows(outcome->tied_indices)
       << " degraded=" << outcome->precision_degraded
       << " converged=" << outcome->converged << "\n"
       << StatsDigest(outcome->stats) << "\n";
  } else if (op == "sum" || op == "ave") {
    operators::SumAveOptions options;
    std::vector<double> weights;
    if (op == "sum") {
      configure(&options, world.sum_precision);
      weights = *world.relation->NumericColumn(world.weight_column);
    } else {
      configure(&options, world.extreme_precision);
      weights.assign(objects.size(),
                     1.0 / static_cast<double>(objects.size()));
    }
    options.use_heap_index = chooser.heap;
    const auto outcome =
        operators::EvaluateTask<operators::SumAveIterationTask>(
            options, objects, weights);
    if (!outcome.ok()) return "ERR " + outcome.status().ToString() + "\n";
    os << "lo=" << Hex(outcome->sum_bounds.lo)
       << " hi=" << Hex(outcome->sum_bounds.hi)
       << " limited=" << outcome->limited_by_min_width
       << " converged=" << outcome->converged << "\n"
       << StatsDigest(outcome->stats) << "\n";
  } else {
    operators::TopKOptions options;
    configure(&options, world.extreme_precision);
    options.k = 3;
    const auto outcome =
        operators::EvaluateTask<operators::TopKIterationTask>(options,
                                                              objects);
    if (!outcome.ok()) return "ERR " + outcome.status().ToString() + "\n";
    os << "top=" << Rows(outcome->winners) << " bounds=";
    for (const Bounds& b : outcome->winner_bounds) {
      os << Hex(b.lo) << ":" << Hex(b.hi) << ";";
    }
    os << " tie=" << outcome->tie
       << " degraded=" << outcome->precision_degraded
       << " converged=" << outcome->converged << "\n"
       << StatsDigest(outcome->stats) << "\n";
  }
  os << "work=" << meter.Total() << " by_kind="
     << meter.Count(WorkKind::kExec) << "/"
     << meter.Count(WorkKind::kGetState) << "/"
     << meter.Count(WorkKind::kStoreState) << "/"
     << meter.Count(WorkKind::kChooseIter) << "\n"
     << DecisionDigest() << "\n";
  return os.str();
}

// Keeps the process-wide trace mode as it was around a traced run.
class TraceModeGuard {
 public:
  TraceModeGuard() : previous_(obs::CurrentTraceMode()) {}
  ~TraceModeGuard() { obs::SetTraceMode(previous_); }

 private:
  obs::TraceMode previous_;
};

class OperatorParity : public ::testing::TestWithParam<
                           std::tuple<std::string, std::string>> {};

TEST_P(OperatorParity, EveryChooserMatchesGolden) {
  const World& world = WorldNamed(std::get<0>(GetParam()));
  const std::string& op = std::get<1>(GetParam());
  const TraceModeGuard guard;
  obs::SetTraceMode(obs::TraceMode::kFlight);
  for (const Chooser& chooser : Choosers(op == "sum" || op == "ave")) {
    ExpectGolden(world.name + "/operator/" + op + "/" + chooser.Label(),
                 RunOperator(world, op, chooser));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, OperatorParity,
    ::testing::Combine(::testing::Values("bond", "synth"),
                       ::testing::Values("max", "min", "sum", "ave", "topk")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace vaolib
