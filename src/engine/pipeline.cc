#include "engine/pipeline.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/macros.h"
#include "engine/report_capture.h"
#include "engine/sampling/sampled_sum.h"
#include "engine/sampling/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/iteration_task.h"
#include "operators/selection.h"
#include "operators/sum_ave.h"
#include "operators/traditional.h"
#include "vao/parallel.h"

namespace vaolib::engine {

namespace {

constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

// Per-object Iterate() budget for the parallel coarse pre-phase. Iteration
// cost roughly doubles per refinement step, so a cap this small keeps the
// coarse work on rows the serial greedy loop would have pruned early to a
// few percent of the total, while still fanning the broad early refinement
// out across the pool.
constexpr std::uint64_t kCoarseMaxSteps = 4;

bool SameBinding(const ArgRef& a, const ArgRef& b) {
  return a.source == b.source && a.field == b.field &&
         a.constant == b.constant;
}

// True when \p query runs in the approximate tier (private sampled objects,
// never the shared per-row set).
bool IsApprox(const Query& query) { return query.approx.has_value(); }

// Rows an approximate TOP-K samples upfront.
std::size_t TopKSampleSize(const Query& query, std::size_t n) {
  const ApproxSpec& spec = *query.approx;
  const std::size_t want = spec.max_samples != 0
                               ? spec.max_samples
                               : std::max(spec.initial_samples, n / 10);
  return std::min(std::max(want, query.k), n);
}

// Copies the operator-phase section of \p stats into \p report.
void FillOperatorSection(const operators::OperatorStats& stats,
                         obs::ExecutionReport* report) {
  report->iterations = stats.iterations;
  report->coarse_iterations = stats.coarse_iterations;
  report->greedy_iterations = stats.greedy_iterations;
  report->finalize_iterations = stats.finalize_iterations;
  report->choose_steps = stats.choose_steps;
  report->objects_touched = stats.objects_touched;
  report->stalled_objects = stats.stalled_objects;
}

void MarkDegraded(TickResult* result, Status cause) {
  result->degraded = true;
  if (result->degradation_cause.ok()) {
    result->degradation_cause = std::move(cause);
  }
}

// The Section 6 baseline as a task: one Step() answers the query by running
// every row's UDF call to full accuracy through the calibrated black box.
class TraditionalTask final : public operators::IterationTask {
 public:
  TraditionalTask(const Query& query, const vao::BlackBoxFunction* black_box,
                  std::vector<std::vector<double>> rows,
                  std::vector<double> weights)
      : query_(query),
        black_box_(black_box),
        rows_(std::move(rows)),
        weights_(std::move(weights)) {}

  const char* name() const override { return "traditional"; }
  const TickResult& answer() const { return answer_; }

 protected:
  Status StepImpl(WorkMeter* meter) override {
    const QueryKind kind = query_.kind;
    if (kind == QueryKind::kMax || kind == QueryKind::kMin) {
      VAOLIB_ASSIGN_OR_RETURN(
          const operators::TraditionalExtremeOutcome outcome,
          operators::TraditionalExtreme(*black_box_, rows_,
                                        kind == QueryKind::kMax
                                            ? operators::ExtremeKind::kMax
                                            : operators::ExtremeKind::kMin,
                                        meter));
      answer_.winner_row = outcome.winner_index;
      answer_.aggregate_bounds = Bounds::Point(outcome.value);
    } else if (kind == QueryKind::kSum || kind == QueryKind::kAve) {
      VAOLIB_ASSIGN_OR_RETURN(
          const operators::TraditionalSumOutcome outcome,
          operators::TraditionalWeightedSum(*black_box_, rows_, weights_,
                                            meter));
      answer_.aggregate_bounds = Bounds::Point(outcome.sum);
    } else {
      // Selections and TOP-K: one full-accuracy call per row.
      const operators::TraditionalSelection point(query_.cmp, query_.constant);
      const operators::RangeSelectionVao range(
          query_.range_lo, query_.range_hi, query_.range_inclusive);
      std::vector<std::pair<double, std::size_t>> valued;
      for (std::size_t row = 0; row < rows_.size(); ++row) {
        if (kind == QueryKind::kSelect) {
          VAOLIB_ASSIGN_OR_RETURN(
              const bool passes,
              point.Evaluate(*black_box_, rows_[row], meter));
          if (passes) answer_.passing_rows.push_back(row);
          continue;
        }
        VAOLIB_ASSIGN_OR_RETURN(const double v,
                                black_box_->Call(rows_[row], meter));
        if (kind == QueryKind::kTopK) {
          valued.emplace_back(v, row);
        } else if (range.Passes(Bounds::Point(v))) {
          answer_.passing_rows.push_back(row);
        }
      }
      if (kind == QueryKind::kTopK) {
        std::sort(valued.begin(), valued.end(), [](const auto& a,
                                                   const auto& b) {
          return a.first > b.first;
        });
        for (std::size_t i = 0; i < query_.k; ++i) {
          answer_.top_rows.push_back(valued[i].second);
          answer_.top_bounds.push_back(Bounds::Point(valued[i].first));
        }
        answer_.winner_row = answer_.top_rows.front();
        answer_.aggregate_bounds = answer_.top_bounds.front();
      }
    }
    MarkDone(true);
    return Status::OK();
  }

  double CurrentUncertainty() const override { return Done() ? 0.0 : 1.0; }

 private:
  const Query& query_;
  const vao::BlackBoxFunction* black_box_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> weights_;
  TickResult answer_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-tick state
// ---------------------------------------------------------------------------

struct TickPipeline::QueryPlan {
  /// Planning failure (the query then answers with this error).
  Status status;
  /// The task answering this query (shared by a joint selection group).
  std::size_t task = kNoTask;
  /// Work of creating what only this query reads -- its sampled objects, or
  /// the shared objects for sequential point selections. Unscheduled
  /// execution attributes it to the query; scheduled execution accounts it
  /// tick-wide only.
  obs::WorkByKind own_work;
  /// Approximate TOP-K: its private sampled objects and their relation rows.
  std::vector<vao::ResultObjectPtr> owned;
  std::vector<std::size_t> sampled_rows;
  /// Reads the query's answer out of its task (sound at any point).
  std::function<void(TickResult*)> decode;
};

struct TickPipeline::Tick {
  const Tuple* tuple = nullptr;
  /// One shared result object per relation row (null for a row whose
  /// creation failed under kDegrade).
  std::vector<vao::ResultObjectPtr> owned;
  std::vector<vao::ResultObject*> objects;
  /// Tick-wide failure to build the shared objects: fails every exact query.
  Status shared_status;
  /// kDegrade: per-row creation failures (selections quarantine the row,
  /// aggregates fail with the first one).
  std::vector<Status> creation;
  obs::WorkByKind shared_work;
  std::vector<QueryPlan> plans;
  /// Declared last so tasks are destroyed before the objects they read.
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

TickPipeline::TickPipeline(const Relation* relation, Schema stream_schema,
                           std::vector<Query> queries,
                           MultiQueryOptions options, WorkMeter* meter,
                           ExecutionMode mode, ResiliencePolicy resilience)
    : relation_(relation),
      stream_schema_(std::move(stream_schema)),
      queries_(std::move(queries)),
      options_(std::move(options)),
      meter_(meter),
      mode_(mode),
      resilience_(resilience) {
  options_.threads = std::max(options_.threads, 1);
}

Result<std::unique_ptr<TickPipeline>> TickPipeline::Create(
    const Relation* relation, Schema stream_schema, std::vector<Query> queries,
    MultiQueryOptions options, WorkMeter* meter, ExecutionMode mode,
    ResiliencePolicy resilience) {
  if (relation == nullptr) {
    return Status::InvalidArgument("executor requires a relation");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("multi-query executor with no queries");
  }
  const Query& first = queries.front();
  for (const Query& query : queries) {
    VAOLIB_RETURN_IF_ERROR(CheckQuery(*relation, stream_schema, query, mode));
    bool same = query.function == first.function &&
                query.args.size() == first.args.size();
    for (std::size_t i = 0; same && i < query.args.size(); ++i) {
      same = SameBinding(query.args[i], first.args[i]);
    }
    if (!same) {
      return Status::InvalidArgument(
          "shared execution requires all queries to use the same function "
          "with identical argument bindings");
    }
  }
  if (!options.schedules.empty() &&
      options.schedules.size() != queries.size()) {
    return Status::InvalidArgument(
        "schedules must be empty or parallel to the query list");
  }
  for (const QuerySchedule& schedule : options.schedules) {
    if (!(schedule.priority > 0.0)) {
      return Status::InvalidArgument("scheduler priorities must be positive");
    }
  }
  if (!options.owners.empty() && options.owners.size() != queries.size()) {
    return Status::InvalidArgument(
        "owners must be empty or parallel to the query list");
  }

  VAOLIB_ASSIGN_OR_RETURN(std::vector<BoundArg> bound,
                          Bind(*relation, stream_schema, first));
  // Unscheduled execution converges every query: a budget would cut the
  // tick short while the reports account it as unscheduled.
  if (options.scheduler.policy == SchedulerPolicy::kSequential) {
    options.scheduler.budget = 0;
  }
  auto pipeline = std::unique_ptr<TickPipeline>(
      new TickPipeline(relation, std::move(stream_schema), std::move(queries),
                       std::move(options), meter, mode, resilience));
  pipeline->bound_args_ = std::move(bound);
  if (mode == ExecutionMode::kTraditional) {
    pipeline->black_box_ = std::make_unique<vao::CalibratedBlackBox>(
        pipeline->queries_.front().function);
  }
  return pipeline;
}

// ---------------------------------------------------------------------------
// Argument binding
// ---------------------------------------------------------------------------

Status TickPipeline::Validate(const Relation* relation,
                              const Schema& stream_schema,
                              const Query& query) {
  if (relation == nullptr) {
    return Status::InvalidArgument("executor requires a relation");
  }
  VAOLIB_RETURN_IF_ERROR(
      CheckQuery(*relation, stream_schema, query, ExecutionMode::kVao));
  // Footnote 10: an extreme (or TOP-K) cannot be pinned tighter than an
  // input's convergence floor, so such a query would fail every tick.
  const bool extreme = query.kind == QueryKind::kMax ||
                       query.kind == QueryKind::kMin ||
                       query.kind == QueryKind::kTopK;
  const double floor = query.function->min_width();
  if (extreme && query.epsilon < floor) {
    return Status::InvalidArgument(
        "precision constraint " + std::to_string(query.epsilon) +
        " is below the function's minWidth " + std::to_string(floor));
  }
  return Status::OK();
}

Status TickPipeline::CheckQuery(const Relation& relation,
                                const Schema& stream_schema,
                                const Query& query, ExecutionMode mode) {
  if (query.function == nullptr) {
    return Status::InvalidArgument("query has no function bound");
  }
  if (static_cast<int>(query.args.size()) != query.function->arity()) {
    return Status::InvalidArgument(
        "query binds " + std::to_string(query.args.size()) +
        " args but function '" + query.function->name() + "' expects " +
        std::to_string(query.function->arity()));
  }
  VAOLIB_RETURN_IF_ERROR(
      Bind(relation, stream_schema, query).status());
  if (query.weight_column.has_value() &&
      !relation.schema().IndexOf(*query.weight_column).ok()) {
    return Status::NotFound("weight column '" + *query.weight_column +
                            "' not in relation");
  }
  if (query.approx.has_value()) {
    if (mode == ExecutionMode::kTraditional) {
      return Status::InvalidArgument(
          "approximate execution requires VAO mode");
    }
    if (query.kind != QueryKind::kSum && query.kind != QueryKind::kAve &&
        query.kind != QueryKind::kTopK) {
      return Status::InvalidArgument(
          "APPROX applies to SUM/AVE/TOP-K queries only");
    }
    if (!(query.approx->confidence > 0.0) ||
        !(query.approx->confidence < 1.0)) {
      return Status::InvalidArgument(
          "APPROX confidence must be in (0, 1), got " +
          std::to_string(query.approx->confidence));
    }
    if (!(query.approx->target_rel_error > 0.0)) {
      return Status::InvalidArgument(
          "APPROX target relative error must be > 0, got " +
          std::to_string(query.approx->target_rel_error));
    }
  }
  return Status::OK();
}

Result<std::vector<TickPipeline::BoundArg>> TickPipeline::Bind(
    const Relation& relation, const Schema& stream_schema,
    const Query& query) {
  std::vector<BoundArg> bound;
  for (const ArgRef& ref : query.args) {
    BoundArg arg{ref.source, 0, ref.constant};
    if (ref.source == ArgRef::Source::kStreamField) {
      VAOLIB_ASSIGN_OR_RETURN(arg.index, stream_schema.IndexOf(ref.field));
    } else if (ref.source == ArgRef::Source::kRelationField) {
      VAOLIB_ASSIGN_OR_RETURN(arg.index, relation.schema().IndexOf(ref.field));
    }
    bound.push_back(arg);
  }
  return bound;
}

Result<std::vector<double>> TickPipeline::BuildArgs(const Tuple& stream_tuple,
                                                    std::size_t row) const {
  std::vector<double> args;
  args.reserve(bound_args_.size());
  for (const BoundArg& bound : bound_args_) {
    switch (bound.source) {
      case ArgRef::Source::kStreamField: {
        if (bound.index >= stream_tuple.size()) {
          return Status::OutOfRange("stream tuple too short for binding");
        }
        VAOLIB_ASSIGN_OR_RETURN(const double v,
                                stream_tuple[bound.index].AsDouble());
        args.push_back(v);
        break;
      }
      case ArgRef::Source::kRelationField: {
        VAOLIB_ASSIGN_OR_RETURN(const Value cell,
                                relation_->At(row, bound.index));
        VAOLIB_ASSIGN_OR_RETURN(const double v, cell.AsDouble());
        args.push_back(v);
        break;
      }
      case ArgRef::Source::kConstant:
        args.push_back(bound.constant);
        break;
    }
  }
  return args;
}

Result<std::vector<std::vector<double>>> TickPipeline::BuildRows(
    const Tuple& stream_tuple, const std::vector<std::size_t>* rows) const {
  const std::size_t count = rows != nullptr ? rows->size() : relation_->size();
  std::vector<std::vector<double>> args;
  args.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    VAOLIB_ASSIGN_OR_RETURN(
        std::vector<double> row,
        BuildArgs(stream_tuple, rows != nullptr ? (*rows)[i] : i));
    args.push_back(std::move(row));
  }
  return args;
}

Result<std::vector<double>> TickPipeline::Weights(const Query& query) const {
  const std::size_t n = relation_->size();
  if (query.weight_column.has_value()) {
    return relation_->NumericColumn(*query.weight_column);
  }
  if (query.kind == QueryKind::kAve) return operators::AveWeights(n);
  return operators::SumWeights(n);
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

void TickPipeline::Plan(Tick* tick) {
  tick->plans.resize(queries_.size());
  if (mode_ == ExecutionMode::kTraditional) {
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      tick->plans[q].status = PlanTraditional(q, tick);
    }
    return;
  }
  // Sampled aggregates materialize their own per-row objects, so a tick
  // whose queries are all approximate never builds the shared set.
  if (std::any_of(queries_.begin(), queries_.end(),
                  [](const Query& query) { return !IsApprox(query); })) {
    CreateSharedObjects(tick);
  }
  // Unscheduled, the point selections decide jointly, ahead of the rest.
  std::vector<std::size_t> points;
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    if (Sequential() && queries_[q].kind == QueryKind::kSelect) {
      points.push_back(q);
    }
  }
  if (!points.empty()) PlanSelections(points, tick);
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    QueryPlan& plan = tick->plans[q];
    if (plan.task != kNoTask || !plan.status.ok()) continue;
    if (queries_[q].kind == QueryKind::kSelect ||
        queries_[q].kind == QueryKind::kSelectRange) {
      PlanSelections({q}, tick);
    } else {
      plan.status = PlanQuery(q, tick);
    }
  }
}

void TickPipeline::CreateSharedObjects(Tick* tick) {
  // One shared result object per relation row, created in bulk (row-parallel
  // on the shared pool when threads > 1; work totals are identical either
  // way because every object charges the pipeline's meter directly).
  const obs::WorkByKind before = obs::WorkByKind::Capture(*meter_);
  auto rows = BuildRows(*tick->tuple, nullptr);
  if (!rows.ok()) {
    tick->shared_status = rows.status();
    return;
  }
  const bool per_row = resilience_ == ResiliencePolicy::kDegrade;
  auto invoked =
      vao::InvokeAll(*queries_.front().function, *rows, options_.threads,
                     meter_, per_row ? &tick->creation : nullptr);
  tick->shared_work = obs::WorkByKind::Capture(*meter_).DeltaSince(before);
  if (!invoked.ok()) {
    tick->shared_status = invoked.status();
    return;
  }
  tick->owned = std::move(invoked).value();
  tick->objects.reserve(tick->owned.size());
  for (const auto& object : tick->owned) tick->objects.push_back(object.get());
}

void TickPipeline::PlanSelections(const std::vector<std::size_t>& members,
                                  Tick* tick) {
  auto fail_all = [&](const Status& status) {
    for (const std::size_t q : members) tick->plans[q].status = status;
  };
  if (!tick->shared_status.ok()) return fail_all(tick->shared_status);

  // Per member: when a row is still undecided, and whether it passes --
  // the selection operators' own rules (operators/selection.h).
  using BoundsTest = std::function<bool(const Bounds&)>;
  std::vector<BoundsTest> undecided;
  std::vector<BoundsTest> passes;
  auto add = [&](const auto& vao) {
    undecided.emplace_back([vao](const Bounds& b) { return vao.Undecided(b); });
    passes.emplace_back([vao](const Bounds& b) { return vao.Passes(b); });
  };
  for (const std::size_t q : members) {
    const Query& query = queries_[q];
    if (query.kind == QueryKind::kSelect) {
      add(operators::SelectionVao(query.cmp, query.constant));
      continue;
    }
    const operators::RangeSelectionVao range(query.range_lo, query.range_hi,
                                             query.range_inclusive);
    if (!range.range().IsValid()) {
      return fail_all(Status::InvalidArgument("range selection needs lo <= hi"));
    }
    add(range);
  }

  // A joint task refines each object until every member is decided: the
  // constant nearest the function value dictates the work.
  const QueryKind kind = queries_[members.front()].kind;
  auto created = operators::MultiRowDecisionTask::Create(
      tick->objects,
      members.size() > 1               ? "multi-selection"
      : kind == QueryKind::kSelect     ? "selection"
                                       : "range selection",
      [undecided](const Bounds& b) {
        return std::any_of(undecided.begin(), undecided.end(),
                           [&](const BoundsTest& test) { return test(b); });
      },
      options_.threads,
      // kDegrade quarantines failing rows, the blocking (sequential) path
      // fails on them, scheduled execution settles a stalled row at its
      // frozen bounds.
      resilience_ == ResiliencePolicy::kDegrade
          ? operators::RowFaultPolicy::kQuarantine
      : Sequential() ? operators::RowFaultPolicy::kFailTask
                     : operators::RowFaultPolicy::kSettleStalls);
  if (!created.ok()) return fail_all(created.status());
  operators::MultiRowDecisionTask* task = created->get();
  const std::size_t index = tick->tasks.size();
  tick->tasks.push_back(std::move(created).value());
  for (std::size_t m = 0; m < members.size(); ++m) {
    QueryPlan& plan = tick->plans[members[m]];
    plan.task = index;
    // Unscheduled, the point selections carry the shared objects' creation.
    if (queries_[members[m]].kind == QueryKind::kSelect) {
      plan.own_work = tick->shared_work;
    }
    // Quarantined rows are reported, the rest pass by their bounds. Rows
    // count as short-circuited when decided before their object converged:
    // at the decision (a sequential task finishes before any later task
    // runs) or, scheduled, as of the end of the tick.
    plan.decode = [task, tick, sequential = Sequential(),
                   passes = std::move(passes[m])](TickResult* result) {
      for (std::size_t row = 0; row < tick->objects.size(); ++row) {
        const Status& failure =
            !tick->creation.empty() && !tick->creation[row].ok()
                ? tick->creation[row]
                : task->RowStatus(row);
        if (!failure.ok()) {
          result->quarantined_rows.push_back(row);
          MarkDegraded(result, failure);
          continue;
        }
        const vao::ResultObject* object = tick->objects[row];
        if (passes(object->bounds())) result->passing_rows.push_back(row);
        if (sequential ? task->RowSettledEarly(row)
                       : task->RowSettled(row) &&
                             !object->AtStoppingCondition()) {
          ++result->report.rows_short_circuited;
        }
      }
      result->report.rows_quarantined = result->quarantined_rows.size();
      result->stats = task->stats();
      result->converged = task->Converged();
    };
  }
}

Status TickPipeline::PlanQuery(std::size_t q, Tick* tick) {
  const Query& query = queries_[q];
  QueryPlan& plan = tick->plans[q];
  const std::size_t n = relation_->size();
  if (!IsApprox(query)) {
    VAOLIB_RETURN_IF_ERROR(tick->shared_status);
    // An aggregate needs every row: it fails with the first lost one.
    for (const Status& created : tick->creation) {
      VAOLIB_RETURN_IF_ERROR(created);
    }
  }
  // Stamps the shared knobs on an exact aggregate: precision, meter, the
  // parallel coarse phase and the iteration strategy.
  auto configure = [&](operators::OperatorOptions* options, bool coarse) {
    options->epsilon = query.epsilon;
    options->meter = meter_;
    if (coarse && options_.threads > 1) {
      options->threads = options_.threads;
      options->coarse_width = query.epsilon;
      options->coarse_max_steps = kCoarseMaxSteps;
    }
    options->strategy = options_.strategy;
  };

  std::unique_ptr<operators::IterationTask> task;
  switch (query.kind) {
    case QueryKind::kSelect:
    case QueryKind::kSelectRange:
      return Status::Internal("selections are planned by PlanSelections");
    case QueryKind::kMax:
    case QueryKind::kMin: {
      operators::MinMaxOptions options;
      options.kind = query.kind == QueryKind::kMax
                         ? operators::ExtremeKind::kMax
                         : operators::ExtremeKind::kMin;
      configure(&options, /*coarse=*/true);
      VAOLIB_ASSIGN_OR_RETURN(
          auto extreme,
          operators::MinMaxIterationTask::Create(options, tick->objects));
      plan.decode = [raw = extreme.get(), n](TickResult* result) {
        const operators::MinMaxOutcome outcome = raw->Snapshot();
        result->winner_row = outcome.winner_index;
        result->tie = outcome.tie;
        result->aggregate_bounds = outcome.winner_bounds;
        result->stats = outcome.stats;
        result->converged = outcome.converged;
        result->report.rows_short_circuited = n - outcome.stats.objects_touched;
      };
      task = std::move(extreme);
      break;
    }
    case QueryKind::kSum:
    case QueryKind::kAve: {
      VAOLIB_ASSIGN_OR_RETURN(std::vector<double> weights, Weights(query));
      if (IsApprox(query)) {
        sampling::SampledAggregateOptions options;
        options.spec = *query.approx;
        options.epsilon = query.epsilon;
        options.meter = meter_;
        const Tuple* tuple = tick->tuple;
        auto factory =
            [this, tuple](std::size_t row) -> Result<vao::ResultObjectPtr> {
          VAOLIB_ASSIGN_OR_RETURN(const std::vector<double> args,
                                  BuildArgs(*tuple, row));
          return queries_.front().function->Invoke(args, meter_);
        };
        auto weight = [weights = std::move(weights)](std::size_t row) {
          return weights[row];
        };
        // Create() draws the initial sample: this query's own work.
        const obs::WorkByKind before = obs::WorkByKind::Capture(*meter_);
        auto sampled = sampling::SampledSumTask::Create(
            options, n, std::move(factory), std::move(weight));
        plan.own_work = obs::WorkByKind::Capture(*meter_).DeltaSince(before);
        VAOLIB_RETURN_IF_ERROR(sampled.status());
        plan.decode = [raw = sampled->get()](TickResult* result) {
          const sampling::SampledSumOutcome outcome = raw->Snapshot();
          result->aggregate_bounds = outcome.answer;
          result->stats = outcome.stats;
          result->converged = outcome.converged;
          if (outcome.limited_by_min_width) {
            MarkDegraded(result,
                         Status::ResourceExhausted(
                             "sampled SUM/AVE exhausted the sample without "
                             "reaching the error target; interval is as "
                             "tight as the min-width floors allow"));
          }
        };
        task = std::move(sampled).value();
        break;
      }
      operators::SumAveOptions options;
      configure(&options, /*coarse=*/true);
      VAOLIB_ASSIGN_OR_RETURN(auto sum,
                              operators::SumAveIterationTask::Create(
                                  options, tick->objects, std::move(weights)));
      plan.decode = [raw = sum.get(), n](TickResult* result) {
        const operators::SumOutcome outcome = raw->Snapshot();
        result->aggregate_bounds = outcome.sum_bounds;
        result->stats = outcome.stats;
        result->converged = outcome.converged;
        result->report.rows_short_circuited = n - outcome.stats.objects_touched;
      };
      task = std::move(sum);
      break;
    }
    case QueryKind::kTopK: {
      operators::TopKOptions options;
      options.k = query.k;
      options.epsilon = query.epsilon;
      options.meter = meter_;
      const std::vector<std::size_t>* sampled = nullptr;
      const std::vector<vao::ResultObject*>* objects = &tick->objects;
      std::vector<vao::ResultObject*> sampled_objects;
      if (IsApprox(query)) {
        // Upfront uniform sample; the task then refines only the sampled
        // objects (a heuristic tier -- the interval provenance marks the
        // answer approximate but carries no per-rank CLT guarantee; it
        // keeps the default greedy strategy).
        if (query.k < 1 || query.k > n) {
          return Status::InvalidArgument("top-k k out of range");
        }
        plan.sampled_rows = sampling::ReservoirSample(
            n, TopKSampleSize(query, n), query.approx->seed);
        VAOLIB_ASSIGN_OR_RETURN(
            const auto rows, BuildRows(*tick->tuple, &plan.sampled_rows));
        const obs::WorkByKind before = obs::WorkByKind::Capture(*meter_);
        auto invoked = vao::InvokeAll(*queries_.front().function, rows,
                                      options_.threads, meter_);
        plan.own_work = obs::WorkByKind::Capture(*meter_).DeltaSince(before);
        VAOLIB_ASSIGN_OR_RETURN(plan.owned, std::move(invoked));
        for (const auto& object : plan.owned) {
          sampled_objects.push_back(object.get());
        }
        objects = &sampled_objects;
        sampled = &plan.sampled_rows;
      } else {
        configure(&options, /*coarse=*/false);
      }
      VAOLIB_ASSIGN_OR_RETURN(
          auto top, operators::TopKIterationTask::Create(options, *objects));
      plan.decode = [raw = top.get(), sampled, n](TickResult* result) {
        const operators::TopKOutcome outcome = raw->Snapshot();
        for (const std::size_t winner : outcome.winners) {
          result->top_rows.push_back(sampled != nullptr ? (*sampled)[winner]
                                                        : winner);
        }
        result->top_bounds = outcome.winner_bounds;
        result->tie = outcome.tie;
        if (!result->top_rows.empty()) {
          result->winner_row = result->top_rows.front();
          const Bounds& best = outcome.winner_bounds.front();
          // Heuristic tier: the sampled winner's hard bounds, no CLT
          // guarantee, so confidence 0 (see protocol.h on conf=0).
          result->aggregate_bounds =
              sampled != nullptr
                  ? vao::Answer::Approximate(best, /*confidence=*/0.0,
                                             sampled->size(), n, best.Width(),
                                             0.0)
                  : vao::Answer(best);
        }
        result->stats = outcome.stats;
        result->converged = outcome.converged;
        result->report.rows_short_circuited = n - outcome.stats.objects_touched;
      };
      task = std::move(top);
      break;
    }
  }
  plan.task = tick->tasks.size();
  tick->tasks.push_back(std::move(task));
  return Status::OK();
}

Status TickPipeline::PlanTraditional(std::size_t q, Tick* tick) {
  const Query& query = queries_[q];
  QueryPlan& plan = tick->plans[q];
  VAOLIB_ASSIGN_OR_RETURN(auto rows, BuildRows(*tick->tuple, nullptr));
  std::vector<double> weights;
  if (query.kind == QueryKind::kSum || query.kind == QueryKind::kAve) {
    VAOLIB_ASSIGN_OR_RETURN(weights, Weights(query));
  }
  if (query.kind == QueryKind::kTopK &&
      (query.k < 1 || query.k > relation_->size())) {
    return Status::InvalidArgument("top-k k out of range");
  }
  auto task = std::make_unique<TraditionalTask>(
      query, black_box_.get(), std::move(rows), std::move(weights));
  plan.decode = [raw = task.get()](TickResult* result) {
    const TickResult& answer = raw->answer();
    result->passing_rows = answer.passing_rows;
    result->winner_row = answer.winner_row;
    result->top_rows = answer.top_rows;
    result->top_bounds = answer.top_bounds;
    result->aggregate_bounds = answer.aggregate_bounds;
  };
  plan.task = tick->tasks.size();
  tick->tasks.push_back(std::move(task));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Drive + emit
// ---------------------------------------------------------------------------

Result<std::vector<Result<TickResult>>> TickPipeline::Run(
    const Tuple& stream_tuple) {
  if (stream_tuple.size() != stream_schema_.size()) {
    return Status::InvalidArgument("stream tuple does not match schema");
  }
  const std::size_t n = relation_->size();
  if (n == 0) return Status::FailedPrecondition("relation is empty");

  const obs::ScopedSpan tick_span(
      "tick", mode_ == ExecutionMode::kTraditional ? "traditional"
              : queries_.size() == 1 ? QueryKindName(queries_.front().kind)
                                     : "multi");
  const ReportCapture capture(*meter_,
                              ReportCapture::CacheOf(queries_.front().function));
  Tick tick;
  tick.tuple = &stream_tuple;
  Plan(&tick);

  // Drive: one scheduler run over every planned task; a failing task ends
  // only its own queries.
  std::vector<WorkScheduler::Entry> entries(tick.tasks.size());
  for (std::size_t t = 0; t < tick.tasks.size(); ++t) {
    entries[t].task = tick.tasks[t].get();
  }
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    const std::size_t t = tick.plans[q].task;
    if (t == kNoTask) continue;
    if (!options_.schedules.empty()) entries[t].schedule = options_.schedules[q];
    if (!options_.owners.empty()) tick.tasks[t]->set_owner(options_.owners[q]);
  }
  WorkScheduler scheduler(options_.scheduler);
  std::vector<Status> task_errors;
  VAOLIB_ASSIGN_OR_RETURN(const std::vector<TaskScheduleStats> stats,
                          scheduler.Run(entries, meter_, &task_errors));

  std::vector<Result<TickResult>> results = Emit(tick, stats, task_errors);
  capture.Finish(*meter_, &last_tick_report_);
  if (std::any_of(results.begin(), results.end(),
                  [](const Result<TickResult>& r) { return r.ok(); })) {
    obs::RecordTickMetrics(last_tick_report_);
  }
  return results;
}

std::vector<Result<TickResult>> TickPipeline::Emit(
    const Tick& tick, const std::vector<TaskScheduleStats>& stats,
    const std::vector<Status>& task_errors) {
  const std::size_t n = relation_->size();
  const bool scheduled = !Sequential();
  const char* policy_name = SchedulerPolicyName(options_.scheduler.policy);

  last_tick_report_ = obs::ExecutionReport();
  obs::ExecutionReport& tick_report = last_tick_report_;
  tick_report.query_kind = "multi";
  if (scheduled) {
    tick_report.scheduled = true;
    tick_report.scheduler_policy = policy_name;
    tick_report.scheduler_budget = options_.scheduler.budget;
  }

  operators::OperatorStats tick_stats;
  std::vector<Result<TickResult>> results;
  results.reserve(queries_.size());
  last_scheduler_spent_.assign(queries_.size(), 0);
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    const Query& query = queries_[q];
    const QueryPlan& plan = tick.plans[q];
    if (scheduled && plan.task != kNoTask) {
      last_scheduler_spent_[q] = stats[plan.task].spent;
    }
    const Status& failure =
        plan.status.ok() ? task_errors[plan.task] : plan.status;
    if (!failure.ok()) {
      results.emplace_back(failure);
      continue;
    }
    const TaskScheduleStats& account = stats[plan.task];
    TickResult result;
    result.kind = query.kind;
    obs::ExecutionReport& report = result.report;
    report.query_kind = QueryKindName(query.kind);
    report.rows_scanned = n;
    plan.decode(&result);
    // An extreme, TOP-K or exact SUM/AVE that quarantined stalled objects is
    // sound but may be wider than requested.
    const bool sampled_sum = IsApprox(query) && query.kind != QueryKind::kTopK;
    if (result.stats.stalled_objects > 0 && !sampled_sum &&
        query.kind != QueryKind::kSelect &&
        query.kind != QueryKind::kSelectRange) {
      MarkDegraded(&result, Status::ResourceExhausted(
                                std::string(report.query_kind) +
                                " quarantined stalled result objects; its "
                                "bounds may be wider than epsilon"));
    }

    // Exact attribution: the work units the scheduler granted this query's
    // task, plus -- unscheduled -- the creation work only it reads.
    result.work_units = account.spent;
    report.work = account.work;
    if (!scheduled) {
      result.work_units += plan.own_work.Total();
      report.work += plan.own_work;
    }
    if (IsApprox(query)) {
      // The answer's provenance: a sample, not a scan of every row.
      const vao::Answer& answer = result.aggregate_bounds;
      report.rows_scanned = answer.sample_size;
      report.rows_short_circuited = 0;
      report.answer_mode = vao::AnswerModeName(answer.mode);
      report.answer_confidence = answer.confidence;
      report.sample_size = answer.sample_size;
      report.sample_population = answer.population_size;
      report.deterministic_width = answer.deterministic_width;
      report.sampling_width = answer.sampling_width;
    }
    FillOperatorSection(result.stats, &report);
    if (scheduled) {
      report.scheduled = true;
      report.scheduler_policy = policy_name;
      report.scheduler_budget = options_.scheduler.budget;
      report.scheduler_spent = account.spent;
      report.scheduler_steps = account.steps;
      report.scheduler_finished_at = account.finished_at;
      report.converged = result.converged;
      report.starved = account.starved;
      report.missed_deadline = account.missed_deadline;
    }
    FillProgressSection(result, query.epsilon, &report);
    if (!options_.owners.empty()) {
      report.tenant = options_.owners[q];
      obs::MetricsRegistry::Global()
          .GetCounter("vaolib_owner_work_units_total",
                      {{"owner", options_.owners[q]}})
          ->Add(result.work_units);
    }

    // Tick-wide account: operator sections summed, row counts maxed.
    tick_stats.Merge(result.stats);
    tick_report.rows_scanned = std::max(tick_report.rows_scanned,
                                        report.rows_scanned);
    tick_report.rows_short_circuited =
        std::max(tick_report.rows_short_circuited, report.rows_short_circuited);
    if (scheduled) {
      tick_report.scheduler_spent += account.spent;
      tick_report.scheduler_steps += account.steps;
      tick_report.converged = tick_report.converged && result.converged;
      tick_report.starved = tick_report.starved || account.starved;
      tick_report.missed_deadline =
          tick_report.missed_deadline || account.missed_deadline;
    }
    results.emplace_back(std::move(result));
  }
  FillOperatorSection(tick_stats, &tick_report);
  return results;
}

}  // namespace vaolib::engine
