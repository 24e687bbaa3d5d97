// Unit tests for the CPM engine: windows, criticality, ordering edges with
// gaps, release times, delay propagation — plus a differential oracle that
// drives the incremental engine through random edit sequences and compares
// it, after every edit, with a fresh context doing one full sweep.
#include <gtest/gtest.h>

#include "taskgraph/timing.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace resched {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

TimingContext MakeTiming(const TaskGraph& g,
                         const std::vector<TimeT>& exec) {
  TimingContext timing(g);
  for (std::size_t t = 0; t < exec.size(); ++t) {
    timing.SetExecTime(static_cast<TaskId>(t), exec[t]);
  }
  return timing;
}

TEST(TimingTest, ChainWindows) {
  const TaskGraph g = MakeChain(3);
  TimingContext timing = MakeTiming(g, {10, 20, 30});
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 60);
  EXPECT_EQ(win.earliest_start, (std::vector<TimeT>{0, 10, 30}));
  EXPECT_EQ(win.latest_finish, (std::vector<TimeT>{10, 30, 60}));
  // Every chain task is critical.
  EXPECT_TRUE(win.critical[0]);
  EXPECT_TRUE(win.critical[1]);
  EXPECT_TRUE(win.critical[2]);
}

TEST(TimingTest, DiamondSlackAndCriticality) {
  const TaskGraph g = MakeDiamond();
  // a=10, b=50 (critical branch), c=20 (slack 30), d=10.
  TimingContext timing = MakeTiming(g, {10, 50, 20, 10});
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 70);
  EXPECT_TRUE(win.critical[0]);
  EXPECT_TRUE(win.critical[1]);
  EXPECT_FALSE(win.critical[2]);
  EXPECT_TRUE(win.critical[3]);
  EXPECT_EQ(win.earliest_start[2], 10);
  EXPECT_EQ(win.latest_finish[2], 60);
  EXPECT_EQ(win.WindowLength(2), 50);
}

TEST(TimingTest, WindowsRequireAllExecTimes) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing(g);
  timing.SetExecTime(0, 5);
  EXPECT_THROW((void)timing.Windows(), InternalError);
}

TEST(TimingTest, OrderingEdgeSerializes) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  EXPECT_EQ(timing.Windows().makespan, 10);
  timing.AddOrderingEdge(0, 1, /*gap=*/0);
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 20);
  EXPECT_EQ(win.earliest_start[1], 10);
}

TEST(TimingTest, OrderingEdgeGapReservesTime) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.AddOrderingEdge(0, 1, /*gap=*/7);
  EXPECT_EQ(timing.Windows().earliest_start[1], 17);
  EXPECT_EQ(timing.Windows().makespan, 27);
}

TEST(TimingTest, OrderingCycleDetected) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.AddOrderingEdge(0, 1, 0);
  EXPECT_THROW(timing.AddOrderingEdge(1, 0, 0), InternalError);
}

TEST(TimingTest, OrderingEdgeAgainstGraphEdgeCycleDetected) {
  const TaskGraph g = MakeChain(2);  // 0 -> 1
  TimingContext timing = MakeTiming(g, {10, 10});
  EXPECT_THROW(timing.AddOrderingEdge(1, 0, 0), InternalError);
}

TEST(TimingTest, ReleaseRaisesEarliestStart) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.RaiseRelease(1, 25);
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.earliest_start[1], 25);
  EXPECT_EQ(win.makespan, 35);
}

TEST(TimingTest, ReleaseNeverLowers) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.RaiseRelease(1, 25);
  timing.RaiseRelease(1, 5);  // no-op
  EXPECT_EQ(timing.Release(1), 25);
  EXPECT_EQ(timing.Windows().earliest_start[1], 25);
}

TEST(TimingTest, DelayPropagatesDownstream) {
  const TaskGraph g = MakeChain(3);
  TimingContext timing = MakeTiming(g, {10, 10, 10});
  timing.RaiseRelease(0, 100);
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.earliest_start, (std::vector<TimeT>{100, 110, 120}));
  EXPECT_EQ(win.makespan, 130);
}

TEST(TimingTest, ExecTimeChangeRecomputesWindows) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  EXPECT_EQ(timing.Windows().makespan, 20);
  timing.SetExecTime(0, 50);
  EXPECT_EQ(timing.Windows().makespan, 60);
}

TEST(TimingTest, CombinedTopologicalOrderIncludesExtraEdges) {
  const TaskGraph g = testing::MakeIndependent(3);
  TimingContext timing = MakeTiming(g, {1, 1, 1});
  timing.AddOrderingEdge(2, 0, 0);
  timing.AddOrderingEdge(0, 1, 0);
  const auto order = timing.CombinedTopologicalOrder();
  auto pos = [&](TaskId t) {
    return std::find(order.begin(), order.end(), t) - order.begin();
  };
  EXPECT_LT(pos(2), pos(0));
  EXPECT_LT(pos(0), pos(1));
}

TEST(TimingTest, ParallelBranchesIndependentWindows) {
  const TaskGraph g = testing::MakeIndependent(3);
  TimingContext timing = MakeTiming(g, {5, 9, 3});
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 9);
  // Only the longest task is critical; others have slack.
  EXPECT_FALSE(win.critical[0]);
  EXPECT_TRUE(win.critical[1]);
  EXPECT_FALSE(win.critical[2]);
  EXPECT_EQ(win.latest_finish[0], 9);
}

TEST(TimingTest, NegativeGapRejected) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {1, 1});
  EXPECT_THROW(timing.AddOrderingEdge(0, 1, -1), InternalError);
}

// ---- differential oracle for the incremental engine ----------------------

/// Random DAG: edges only from lower to higher rank under a random
/// permutation of the ids, so id order says nothing about topology.
TaskGraph RandomDag(std::size_t n, Rng& rng) {
  TaskGraph g;
  std::vector<TaskId> rank;
  for (std::size_t i = 0; i < n; ++i) {
    rank.push_back(g.AddTask(StrFormat("t%zu", i)));
  }
  rng.Shuffle(rank);
  const double p = std::min(1.0, 3.0 / static_cast<double>(n));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(p)) g.AddEdge(rank[a], rank[b]);
    }
  }
  return g;
}

TaskId RandomTask(const TaskGraph& g, Rng& rng) {
  return static_cast<TaskId>(
      rng.UniformInt(0, static_cast<std::int64_t>(g.NumTasks()) - 1));
}

/// A fresh context holding `inc`'s current state, with every input set
/// before the first read: its windows come from one full sweep.
TimingContext Replay(const TaskGraph& g, const TimingContext& inc) {
  TimingContext fresh(g);
  for (std::size_t ti = 0; ti < g.NumTasks(); ++ti) {
    const auto t = static_cast<TaskId>(ti);
    fresh.SetExecTime(t, inc.ExecTime(t));
    fresh.RaiseRelease(t, inc.Release(t));
    for (const TaskId s : g.Successors(t)) {
      const TimeT gap = inc.BaseEdgeGap(t, s);
      if (gap != 0) fresh.SetBaseEdgeGap(t, s, gap);
    }
  }
  for (const OrderingEdge& e : inc.ExtraEdges()) {
    fresh.AddOrderingEdge(e.from, e.to, e.gap);
  }
  return fresh;
}

/// Tracks what the version stamp must reflect between two checks.
struct Observed {
  std::uint64_t version = 0;
  std::vector<TimeT> es;
  std::vector<TimeT> exec;
};

/// Compares `inc` with its full-sweep replay: the forward accessors first
/// (before anything asks `inc` for T_MAX), then every field of Windows().
void ExpectMatchesFullSweep(const TaskGraph& g, const TimingContext& inc,
                            Observed& seen) {
  const TimingContext fresh = Replay(g, inc);
  const TimeWindows& want = fresh.Windows();
  ASSERT_EQ(fresh.FullSweeps(), 1u);
  ASSERT_EQ(inc.EarliestStarts(), want.earliest_start);
  ASSERT_EQ(inc.Makespan(), want.makespan);
  const TimeWindows& got = inc.Windows();
  ASSERT_EQ(got.earliest_start, want.earliest_start);
  ASSERT_EQ(got.latest_finish, want.latest_finish);
  ASSERT_EQ(got.critical, want.critical);
  ASSERT_EQ(got.makespan, want.makespan);

  std::vector<TimeT> exec;
  for (std::size_t t = 0; t < g.NumTasks(); ++t) {
    exec.push_back(inc.ExecTime(static_cast<TaskId>(t)));
  }
  const std::uint64_t version = inc.WindowsVersion();
  ASSERT_GE(version, seen.version);
  if (got.earliest_start != seen.es || exec != seen.exec) {
    ASSERT_GT(version, seen.version) << "windows changed, stamp did not";
  }
  seen = {version, got.earliest_start, std::move(exec)};
}

void SetRandomExecTimes(const TaskGraph& g, TimingContext& timing, Rng& rng) {
  for (std::size_t t = 0; t < g.NumTasks(); ++t) {
    timing.SetExecTime(static_cast<TaskId>(t), rng.UniformInt(1, 500));
  }
}

/// Picks a random base edge; false when the graph has none.
bool RandomBaseEdge(const TaskGraph& g, Rng& rng, TaskId& from, TaskId& to) {
  if (g.NumEdges() == 0) return false;
  for (;;) {
    from = RandomTask(g, rng);
    const std::vector<TaskId>& succ = g.Successors(from);
    if (succ.empty()) continue;
    to = succ[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(succ.size()) - 1))];
    return true;
  }
}

/// Adds a random ordering edge: half the time between two tasks in T_MIN
/// order (the scheduler's common case), otherwise any pair — possibly
/// closing a cycle, which must throw and leave the context untouched.
void RandomOrderingEdge(const TaskGraph& g, TimingContext& timing, Rng& rng,
                        std::uint64_t& proven) {
  TaskId a = RandomTask(g, rng);
  TaskId b = RandomTask(g, rng);
  if (a == b) return;
  const std::vector<TimeT>& es = timing.EarliestStarts();
  const auto ai = static_cast<std::size_t>(a);
  const auto bi = static_cast<std::size_t>(b);
  if (rng.Bernoulli(0.5) && es[ai] > es[bi]) std::swap(a, b);
  const bool o1 = es[static_cast<std::size_t>(a)] <=
                  es[static_cast<std::size_t>(b)];
  const std::uint64_t searches = timing.CycleSearches();
  const std::size_t edges = timing.ExtraEdges().size();
  try {
    timing.AddOrderingEdge(a, b, rng.UniformInt(0, 60));
  } catch (const InternalError&) {
    ASSERT_FALSE(o1) << "an edge in T_MIN order cannot close a cycle";
    ASSERT_EQ(timing.ExtraEdges().size(), edges);
  }
  // The O(1) proof skips the search exactly when it applies.
  ASSERT_EQ(timing.CycleSearches(), searches + (o1 ? 0 : 1));
  if (o1) ++proven;
}

TEST(TimingOracleTest, RandomEditsMatchFullSweep) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const TaskGraph g =
        RandomDag(static_cast<std::size_t>(rng.UniformInt(1, 120)), rng);
    TimingContext timing(g);
    SetRandomExecTimes(g, timing, rng);
    Observed seen;
    ExpectMatchesFullSweep(g, timing, seen);
    std::uint64_t proven = 0;
    for (int step = 0; step < 60; ++step) {
      const TaskId t = RandomTask(g, rng);
      const TimeT exec = timing.ExecTime(t);
      TaskId from = kInvalidTask;
      TaskId to = kInvalidTask;
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2:
          RandomOrderingEdge(g, timing, rng, proven);
          break;
        case 3:
        case 4:
          timing.RaiseRelease(t, rng.UniformInt(0, timing.Makespan()));
          break;
        case 5:
          timing.SetExecTime(t, exec + rng.UniformInt(1, 200));
          break;
        case 6:
          timing.SetExecTime(
              t, std::max<TimeT>(1, exec - rng.UniformInt(1, 200)));
          break;
        case 7:
        case 8:
          if (RandomBaseEdge(g, rng, from, to)) {
            const TimeT gap = timing.BaseEdgeGap(from, to);
            const TimeT delta = rng.UniformInt(1, 80);
            timing.SetBaseEdgeGap(from, to,
                                  rng.Bernoulli(0.5)
                                      ? gap + delta
                                      : std::max<TimeT>(0, gap - delta));
          }
          break;
        default:
          if (rng.Bernoulli(0.3)) {
            timing.Reset();
            SetRandomExecTimes(g, timing, rng);
          }
          break;
      }
      ExpectMatchesFullSweep(g, timing, seen);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TimingOracleTest, MonotoneEditsRunNoFullSweep) {
  std::uint64_t proven = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    const TaskGraph g =
        RandomDag(static_cast<std::size_t>(rng.UniformInt(1, 120)), rng);
    TimingContext timing(g);
    SetRandomExecTimes(g, timing, rng);
    Observed seen;
    ExpectMatchesFullSweep(g, timing, seen);
    ASSERT_EQ(timing.FullSweeps(), 1u);  // the first computation
    for (int step = 0; step < 80; ++step) {
      const TaskId t = RandomTask(g, rng);
      TaskId from = kInvalidTask;
      TaskId to = kInvalidTask;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          RandomOrderingEdge(g, timing, rng, proven);
          break;
        case 1:
          timing.RaiseRelease(t, rng.UniformInt(0, timing.Makespan()));
          break;
        case 2:
          timing.SetExecTime(t, timing.ExecTime(t) + rng.UniformInt(0, 200));
          break;
        default:
          if (RandomBaseEdge(g, rng, from, to)) {
            timing.SetBaseEdgeGap(
                from, to, timing.BaseEdgeGap(from, to) + rng.UniformInt(0, 80));
          }
          break;
      }
      ExpectMatchesFullSweep(g, timing, seen);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Monotone edits and backward sweeps never fall back to a full sweep.
    EXPECT_EQ(timing.FullSweeps(), 1u);
  }
  EXPECT_GT(proven, 1000u) << "the O(1) acyclicity proof never applied";
}

TEST(TimingOracleTest, NonMonotoneEditFallsBackToOneSweep) {
  const TaskGraph g = MakeChain(3);
  TimingContext timing = MakeTiming(g, {10, 20, 30});
  EXPECT_EQ(timing.Makespan(), 60);
  timing.SetExecTime(1, 25);  // rising: incremental
  EXPECT_EQ(timing.Makespan(), 65);
  EXPECT_EQ(timing.FullSweeps(), 1u);
  timing.SetExecTime(1, 5);  // falling: the next read sweeps once
  timing.SetExecTime(2, 10);
  EXPECT_EQ(timing.FullSweeps(), 1u);
  EXPECT_EQ(timing.EarliestStarts(), (std::vector<TimeT>{0, 10, 15}));
  EXPECT_EQ(timing.Makespan(), 25);
  EXPECT_EQ(timing.FullSweeps(), 2u);
}

}  // namespace
}  // namespace resched
