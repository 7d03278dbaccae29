// Ablation A4: chooseIter indexing for the SUM VAO. Section 5.2 observes
// that iteration choice is O(N) per step without indexing and that heap
// queues could make it sublinear, unnecessary at 500 bonds. This ablation
// scales N with cheap synthetic result objects until the scan cost matters,
// comparing the O(N) scan against the lazy-heap index on chooseIter units
// and wall time. Writes BENCH_heap_index.json (RenderJson).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "common/work_meter.h"
#include "operators/sum_ave.h"
#include "vao/synthetic_result_object.h"

using namespace vaolib;

namespace {

struct ArmResult {
  std::uint64_t choose_units;
  std::uint64_t iterations;
  double wall_seconds;
};

ArmResult RunArm(std::size_t n, bool use_heap) {
  // Heterogeneous synthetic objects so the greedy choice is non-trivial.
  std::vector<std::unique_ptr<vao::SyntheticResultObject>> objects;
  std::vector<vao::ResultObject*> ptrs;
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    vao::SyntheticResultObject::Config config;
    config.true_value = 100.0 + static_cast<double>(i % 37);
    config.initial_half_width = 2.0 + static_cast<double>(i % 11);
    config.shrink = 0.5;
    objects.push_back(std::make_unique<vao::SyntheticResultObject>(config));
    ptrs.push_back(objects.back().get());
    weights.push_back(1.0 + static_cast<double>(i % 5));
  }

  WorkMeter meter;
  operators::SumAveOptions options;
  options.epsilon = 0.05 * static_cast<double>(n);
  options.use_heap_index = use_heap;
  options.meter = &meter;
  const operators::SumAveVao vao(options);

  Stopwatch wall;
  const auto outcome = vao.Evaluate(ptrs, weights);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    std::exit(1);
  }
  return ArmResult{meter.Count(WorkKind::kChooseIter),
                   outcome->stats.iterations, wall.ElapsedSeconds()};
}

}  // namespace

int main() {
  std::printf(
      "Ablation A4: O(N)-scan vs lazy-heap chooseIter for the SUM VAO\n"
      "(synthetic result objects; iteration counts should match, choice "
      "overhead should not)\n\n");

  TableWriter table("chooseIter indexing ablation",
                    {"N", "scan_choose_units", "heap_choose_units",
                     "choose_ratio", "scan_wall_s", "heap_wall_s",
                     "scan_iters", "heap_iters"});

  for (const std::size_t n : {500u, 2000u, 8000u}) {
    const ArmResult scan = RunArm(n, /*use_heap=*/false);
    const ArmResult heap = RunArm(n, /*use_heap=*/true);
    table.AddRow({TableWriter::Cell(static_cast<std::uint64_t>(n)),
                  TableWriter::Cell(scan.choose_units),
                  TableWriter::Cell(heap.choose_units),
                  TableWriter::Cell(static_cast<double>(scan.choose_units) /
                                        static_cast<double>(
                                            heap.choose_units),
                                    1),
                  TableWriter::Cell(scan.wall_seconds, 4),
                  TableWriter::Cell(heap.wall_seconds, 4),
                  TableWriter::Cell(scan.iterations),
                  TableWriter::Cell(heap.iterations)});
  }

  table.RenderText(std::cout);
  std::printf("\ncsv:\n");
  table.RenderCsv(std::cout);
  std::ofstream json("BENCH_heap_index.json");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_heap_index.json for writing\n");
    return 1;
  }
  table.RenderJson(json);
  std::printf("\nwrote BENCH_heap_index.json\n");
  return 0;
}
