// Ablation A1: iteration-strategy choice. The paper's Section 5 operators
// use a greedy best-benefit-per-cycle strategy; this ablation compares it
// against round-robin and uniform-random iteration over the same workloads:
// MAX over the real portfolio, and SUM with 80% of the weight on the hot
// set. Expected: greedy <= round-robin/random work, often by a wide margin
// for SUM (where skewed weights are the whole opportunity). Writes
// BENCH_strategies.json (RenderJson).

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "operators/min_max.h"
#include "operators/sum_ave.h"
#include "workload/hot_cold.h"

using namespace vaolib;
using namespace vaolib::bench;

int main() {
  BenchContext context = MakeContext();
  Calibrate(&context);
  PrintPreamble(context,
                "Ablation A1: greedy vs round-robin vs random iteration "
                "strategies");

  TableWriter table("Strategy ablation",
                    {"operator", "strategy", "units", "est_s", "wall_s",
                     "iters", "vs_greedy"});

  const auto strategies = {operators::StrategyKind::kGreedy,
                           operators::StrategyKind::kRoundRobin,
                           operators::StrategyKind::kRandom};

  // --- MAX over the real portfolio. ----------------------------------------
  std::uint64_t greedy_units = 0;
  for (const auto strategy : strategies) {
    Rng rng(BenchSeed() + 101);
    WorkMeter meter;
    Stopwatch wall;
    std::vector<vao::ResultObjectPtr> owned;
    std::vector<vao::ResultObject*> objects;
    for (const auto& row : context.rows) {
      auto object = context.function->Invoke(row, &meter);
      if (!object.ok()) {
        std::fprintf(stderr, "%s\n", object.status().ToString().c_str());
        return 1;
      }
      objects.push_back(object->get());
      owned.push_back(std::move(object).value());
    }
    operators::MinMaxOptions options;
    options.epsilon = 0.01;
    options.strategy = strategy;
    options.rng = &rng;
    options.meter = &meter;
    const operators::MinMaxVao vao(options);
    const auto outcome = vao.Evaluate(objects);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    if (strategy == operators::StrategyKind::kGreedy) {
      greedy_units = meter.Total();
    }
    table.AddRow({"MAX", operators::StrategyKindName(strategy),
                  TableWriter::Cell(meter.Total()),
                  TableWriter::Cell(context.EstSeconds(meter.Total()), 4),
                  TableWriter::Cell(wall.ElapsedSeconds(), 4),
                  TableWriter::Cell(outcome->stats.iterations),
                  TableWriter::Cell(static_cast<double>(meter.Total()) /
                                        static_cast<double>(greedy_units),
                                    2)});
  }

  // --- SUM with 80% hot-set weight share. -----------------------------------
  Rng weight_rng(BenchSeed() + 102);
  workload::HotColdSpec spec;
  spec.count = context.rows.size();
  spec.hot_weight_share = 0.8;
  spec.total_weight = static_cast<double>(context.rows.size());
  const auto weights = workload::HotColdWeights(spec, &weight_rng);
  if (!weights.ok()) {
    std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
    return 1;
  }

  greedy_units = 0;
  for (const auto strategy : strategies) {
    Rng rng(BenchSeed() + 103);
    WorkMeter meter;
    Stopwatch wall;
    std::vector<vao::ResultObjectPtr> owned;
    std::vector<vao::ResultObject*> objects;
    for (const auto& row : context.rows) {
      auto object = context.function->Invoke(row, &meter);
      if (!object.ok()) {
        std::fprintf(stderr, "%s\n", object.status().ToString().c_str());
        return 1;
      }
      objects.push_back(object->get());
      owned.push_back(std::move(object).value());
    }
    operators::SumAveOptions options;
    options.epsilon = 0.01 * static_cast<double>(context.rows.size());
    options.strategy = strategy;
    options.rng = &rng;
    options.meter = &meter;
    const operators::SumAveVao vao(options);
    const auto outcome = vao.Evaluate(objects, *weights);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    if (strategy == operators::StrategyKind::kGreedy) {
      greedy_units = meter.Total();
    }
    table.AddRow({"SUM(hot=80%)", operators::StrategyKindName(strategy),
                  TableWriter::Cell(meter.Total()),
                  TableWriter::Cell(context.EstSeconds(meter.Total()), 4),
                  TableWriter::Cell(wall.ElapsedSeconds(), 4),
                  TableWriter::Cell(outcome->stats.iterations),
                  TableWriter::Cell(static_cast<double>(meter.Total()) /
                                        static_cast<double>(greedy_units),
                                    2)});
  }

  table.RenderText(std::cout);
  std::printf("\ncsv:\n");
  table.RenderCsv(std::cout);
  std::ofstream json("BENCH_strategies.json");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_strategies.json for writing\n");
    return 1;
  }
  table.RenderJson(json);
  std::printf("\nwrote BENCH_strategies.json\n");
  return 0;
}
