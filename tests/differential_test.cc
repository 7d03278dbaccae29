// The differential acceptance sweep: thousands of seeded workload/query
// combos per operator family, every VAO answer checked against the
// black-box oracle (and the workloads' known true values), plus proof that
// the harness catches deliberately broken strategies.
//
// Runs under the ctest label `differential`. Seed count is overridable with
// VAOLIB_DIFF_SEEDS (CI smoke uses 64; nightly uses 2000); failing combos
// are appended to $VAOLIB_DIFF_ARTIFACT when set.

#include <gtest/gtest.h>

#include "testing/differential_runner.h"

namespace vaolib::testing {
namespace {

TEST(DifferentialTest, SweepMatchesOracleEverywhere) {
  const DifferentialOptions options = DifferentialOptions::FromEnv();
  DifferentialRunner runner(options);
  const auto summary = runner.RunAll();
  ASSERT_TRUE(summary.ok()) << summary.status();
  for (const DifferentialFailure& failure : summary->failures) {
    ADD_FAILURE() << failure.repro << "\n  " << failure.detail;
  }
  EXPECT_GT(summary->combos, 0u);
  // At the default 250 seeds, every operator family clears 2000 combos; a
  // smaller VAOLIB_DIFF_SEEDS (CI smoke) scales the floor proportionally.
  const double scale =
      static_cast<double>(options.seeds) / DifferentialOptions{}.seeds;
  for (const char* family : {"selection", "minmax", "sumave", "topk"}) {
    const auto it = summary->combos_by_family.find(family);
    ASSERT_NE(it, summary->combos_by_family.end()) << family;
    EXPECT_GE(it->second, static_cast<std::uint64_t>(2000 * scale))
        << family;
  }
}

TEST(DifferentialTest, SweepIsDeterministic) {
  DifferentialOptions options;
  options.seeds = 3;
  DifferentialRunner runner(options);
  const auto first = runner.RunAll();
  const auto second = runner.RunAll();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->combos, second->combos);
  EXPECT_EQ(first->failures.size(), second->failures.size());
}

TEST(DifferentialTest, CatchesFlippedComparator) {
  DifferentialOptions options;
  options.seeds = 8;
  options.kinds = {{engine::QueryKind::kSelect, 1},
                   {engine::QueryKind::kSelectRange, 1}};
  options.strategies.clear();
  options.mutation = Mutation::kFlipComparator;
  options.max_failures = 4;
  DifferentialRunner runner(options);
  const auto summary = runner.RunAll();
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_FALSE(summary->ok())
      << "a flipped comparator went undetected across the sweep";
  // Every failure carries a full replay recipe.
  for (const DifferentialFailure& failure : summary->failures) {
    EXPECT_NE(failure.repro.find("seed="), std::string::npos);
    EXPECT_NE(failure.repro.find("query="), std::string::npos);
    EXPECT_FALSE(failure.detail.empty());
  }
}

TEST(DifferentialTest, CatchesSwappedMinMax) {
  DifferentialOptions options;
  options.seeds = 8;
  options.kinds = {{engine::QueryKind::kMax, 1},
                   {engine::QueryKind::kMin, 1}};
  options.mutation = Mutation::kSwapMinMax;
  options.max_failures = 4;
  DifferentialRunner runner(options);
  const auto summary = runner.RunAll();
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_FALSE(summary->ok())
      << "MAX answered as MIN went undetected across the sweep";
}

TEST(DifferentialTest, ShrinkingProducesAReplayableSeed) {
  DifferentialOptions options;
  options.seeds = 4;
  options.kinds = {{engine::QueryKind::kSelect, 1}};
  options.strategies.clear();
  options.mutation = Mutation::kFlipComparator;
  options.max_failures = 1;
  DifferentialRunner runner(options);
  const auto summary = runner.RunAll();
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_FALSE(summary->failures.empty());
  const DifferentialFailure& failure = summary->failures.front();
  // A flipped comparator fails even on a single row, so the shrinker can
  // reach the true minimum.
  EXPECT_LT(failure.rows, options.rows);
  EXPECT_GE(failure.rows, 1u);
  // RunOne replays the shrunk combo and reproduces a mismatch.
  const auto replay = runner.RunOne(failure.seed, failure.variant,
                                    failure.rows, failure.threads,
                                    failure.cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->has_value()) << "shrunk repro no longer fails";
}

TEST(DifferentialTest, FamilyNames) {
  EXPECT_STREQ(DifferentialRunner::FamilyOf(engine::QueryKind::kSelect),
               "selection");
  EXPECT_STREQ(DifferentialRunner::FamilyOf(engine::QueryKind::kSelectRange),
               "selection");
  EXPECT_STREQ(DifferentialRunner::FamilyOf(engine::QueryKind::kMin),
               "minmax");
  EXPECT_STREQ(DifferentialRunner::FamilyOf(engine::QueryKind::kAve),
               "sumave");
  EXPECT_STREQ(DifferentialRunner::FamilyOf(engine::QueryKind::kTopK),
               "topk");
}

}  // namespace
}  // namespace vaolib::testing
