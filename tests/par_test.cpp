// Tests for PA-R, the randomized scheduler variant (Algorithm 1).
#include <gtest/gtest.h>

#include "core/pa_scheduler.hpp"
#include "core/pa_state.hpp"
#include "core/randomized.hpp"
#include "io/schedule_io.hpp"
#include "sched/validator.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"

namespace resched {
namespace {

Instance MakeInstance(std::size_t n, std::uint64_t seed) {
  GeneratorOptions gen;
  gen.num_tasks = n;
  return GenerateInstance(MakeZedBoard(), gen, seed, "par");
}

TEST(PaRTest, RequiresSomeBound) {
  const Instance inst = MakeInstance(10, 1);
  PaROptions opt;
  opt.time_budget_seconds = 0.0;
  opt.max_iterations = 0;
  EXPECT_THROW((void)SchedulePaR(inst, opt), InternalError);
}

TEST(PaRTest, RejectsBadCapacityFactors) {
  const Instance inst = MakeInstance(10, 1);
  PaROptions opt;
  opt.max_iterations = 1;
  opt.capacity_factor_lo = 0.0;
  EXPECT_THROW((void)SchedulePaR(inst, opt), InternalError);
  opt.capacity_factor_lo = 0.9;
  opt.capacity_factor_hi = 0.8;
  EXPECT_THROW((void)SchedulePaR(inst, opt), InternalError);
}

TEST(PaRTest, FindsValidScheduleWithinIterationCap) {
  const Instance inst = MakeInstance(20, 7);
  PaROptions opt;
  opt.max_iterations = 30;
  opt.time_budget_seconds = 0.0;  // iteration-bounded
  opt.seed = 5;
  const PaRResult result = SchedulePaR(inst, opt);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.iterations, 30u);
  EXPECT_EQ(result.best.algorithm, "PA-R");
  const ValidationResult r = ValidateSchedule(inst, result.best);
  EXPECT_TRUE(r.ok()) << r.Summary();
  ValidationOptions vopt;
  vopt.require_floorplan = true;
  EXPECT_TRUE(ValidateSchedule(inst, result.best, vopt).ok());
}

TEST(PaRTest, WarmStartNeverWorseThanDeterministicPa) {
  for (const std::uint64_t seed : {3u, 11u, 21u}) {
    const Instance inst = MakeInstance(25, seed);
    const Schedule pa = SchedulePa(inst);
    PaROptions opt;
    opt.max_iterations = 20;
    opt.time_budget_seconds = 0.0;
    opt.seed = seed;
    const PaRResult result = SchedulePaR(inst, opt);
    ASSERT_TRUE(result.found);
    EXPECT_LE(result.best.makespan, pa.makespan);
  }
}

TEST(PaRTest, SingleThreadDeterministic) {
  const Instance inst = MakeInstance(20, 9);
  PaROptions opt;
  opt.max_iterations = 25;
  opt.time_budget_seconds = 0.0;
  opt.threads = 1;
  opt.seed = 4;
  const PaRResult a = SchedulePaR(inst, opt);
  const PaRResult b = SchedulePaR(inst, opt);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.best.makespan, b.best.makespan);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(PaRTest, WithoutWarmStartStillWorks) {
  const Instance inst = MakeInstance(15, 13);
  PaROptions opt;
  opt.max_iterations = 60;
  opt.time_budget_seconds = 0.0;
  opt.seed_with_deterministic = false;
  const PaRResult result = SchedulePaR(inst, opt);
  if (result.found) {
    EXPECT_TRUE(ValidateSchedule(inst, result.best).ok());
  }
  EXPECT_EQ(result.iterations, 60u);
}

TEST(PaRTest, ParallelWorkersProduceValidResult) {
  const Instance inst = MakeInstance(30, 17);
  PaROptions opt;
  opt.max_iterations = 40;
  opt.time_budget_seconds = 0.0;
  opt.threads = 4;
  const PaRResult result = SchedulePaR(inst, opt);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(ValidateSchedule(inst, result.best).ok());
}

TEST(PaRTest, TraceIsMonotoneDecreasing) {
  const Instance inst = MakeInstance(30, 19);
  PaROptions opt;
  opt.max_iterations = 80;
  opt.time_budget_seconds = 0.0;
  opt.record_trace = true;
  const PaRResult result = SchedulePaR(inst, opt);
  ASSERT_TRUE(result.found);
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LT(result.trace[i].makespan, result.trace[i - 1].makespan);
    EXPECT_GE(result.trace[i].seconds, result.trace[i - 1].seconds);
  }
  EXPECT_EQ(result.trace.back().makespan, result.best.makespan);
}

TEST(PaRTest, TimeBudgetIsHonored) {
  const Instance inst = MakeInstance(40, 23);
  PaROptions opt;
  opt.time_budget_seconds = 0.3;
  const PaRResult result = SchedulePaR(inst, opt);
  EXPECT_TRUE(result.found);
  // Generous slack: the loop only checks between iterations.
  EXPECT_LT(result.seconds, 3.0);
  EXPECT_GT(result.iterations, 0u);
}

TEST(PaRTest, LiteralAlgorithm1ModeRuns) {
  // capacity factors pinned to 1.0 and no warm start: the literal paper
  // Algorithm 1. It may or may not find a feasible schedule, but it must
  // not crash and any result must be valid.
  const Instance inst = MakeInstance(15, 29);
  PaROptions opt;
  opt.max_iterations = 40;
  opt.time_budget_seconds = 0.0;
  opt.capacity_factor_lo = 1.0;
  opt.capacity_factor_hi = 1.0;
  opt.seed_with_deterministic = false;
  const PaRResult result = SchedulePaR(inst, opt);
  if (result.found) {
    EXPECT_TRUE(ValidateSchedule(inst, result.best).ok());
  }
}

TEST(PaRTest, BestMakespanIndependentOfThreadCount) {
  // Per-iteration RNG streams (DeriveSeed on the ticket number) make the
  // candidate set a function of (seed, max_iterations) only — the thread
  // count decides who runs an iteration, never what it computes.
  const Instance inst = MakeInstance(25, 37);
  PaROptions opt;
  opt.max_iterations = 40;
  opt.time_budget_seconds = 0.0;
  opt.seed = 12;
  PaRResult reference;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    opt.threads = threads;
    const PaRResult result = SchedulePaR(inst, opt);
    ASSERT_TRUE(result.found) << "threads=" << threads;
    EXPECT_EQ(result.iterations, 40u);
    if (threads == 1) {
      reference = result;
    } else {
      EXPECT_EQ(result.best.makespan, reference.best.makespan)
          << "threads=" << threads;
    }
  }
}

TEST(PaRTest, ScratchReuseIsBitIdentical) {
  // The recycled-PaScratch hot path must be an optimization only: one
  // scratch reused across PA-R's (capacity, seed) draws yields exactly the
  // schedule a fresh RunPaCore builds for the same draw.
  const Instance inst = MakeInstance(25, 41);
  const PaROptions par;
  PaOptions inner = par.base;
  inner.ordering = NonCriticalOrder::kRandom;
  inner.run_floorplan = false;
  const pa::PaContext ctx(inst, inner);
  pa::PaScratch scratch(ctx);
  Schedule recycled;
  const ResourceVec full_cap = inst.platform.Device().Capacity();
  for (std::size_t iter = 1; iter <= 30; ++iter) {
    const std::uint64_t seed = DeriveSeed(kParSeedStream ^ 6, iter);
    Rng reuse_rng(seed);
    Rng fresh_rng(seed);
    const ResourceVec cap = full_cap.ScaledDown(reuse_rng.UniformDouble(
        par.capacity_factor_lo, par.capacity_factor_hi));
    (void)fresh_rng.UniformDouble(par.capacity_factor_lo,
                                  par.capacity_factor_hi);
    RunPaCore(ctx, scratch, cap, reuse_rng, recycled);
    const Schedule fresh = RunPaCore(inst, inner, cap, fresh_rng);
    EXPECT_EQ(ScheduleToString(inst, recycled), ScheduleToString(inst, fresh))
        << "iteration " << iter;
  }
}

TEST(PaRTest, FloorplanCacheOnOffBitIdentical) {
  // Cache hits replay the recorded solve bit-for-bit, so disabling the
  // cache must not change the outcome — only the work done.
  const Instance inst = MakeInstance(25, 43);
  PaROptions opt;
  opt.max_iterations = 30;
  opt.time_budget_seconds = 0.0;
  opt.seed = 8;
  opt.threads = 2;
  opt.base.floorplan_cache = true;
  const PaRResult cached = SchedulePaR(inst, opt);
  opt.base.floorplan_cache = false;
  const PaRResult uncached = SchedulePaR(inst, opt);
  ASSERT_TRUE(cached.found);
  ASSERT_TRUE(uncached.found);
  EXPECT_EQ(cached.best.makespan, uncached.best.makespan);
  EXPECT_GT(cached.floorplan_cache.queries, 0u);
  EXPECT_EQ(uncached.floorplan_cache.queries, 0u);
}

TEST(PaRTest, ImprovesOverIterationsOnAverage) {
  // More iterations => final makespan no worse (same seed, nested budget).
  const Instance inst = MakeInstance(30, 31);
  PaROptions small;
  small.max_iterations = 5;
  small.time_budget_seconds = 0.0;
  small.seed = 77;
  PaROptions large = small;
  large.max_iterations = 100;
  const PaRResult a = SchedulePaR(inst, small);
  const PaRResult b = SchedulePaR(inst, large);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_LE(b.best.makespan, a.best.makespan);
}

}  // namespace
}  // namespace resched
