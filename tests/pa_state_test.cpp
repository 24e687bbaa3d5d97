// White-box tests for the PA working state: implementation switching,
// region creation/assignment rules (slot-based CanHost semantics,
// serialization edges, reconfiguration gaps), capacity accounting and the
// Eq.-(6) estimate — all against the PR-4 PaContext/PaScratch split.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/pa_state.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace resched {
namespace {

using pa::PaContext;
using pa::PaScratch;
using testing::HwImpl;
using testing::MakeSmallPlatform;
using testing::SwImpl;

struct Fixture {
  Instance instance;
  PaOptions options;
  std::optional<PaContext> ctx;
  std::optional<PaScratch> scratch;

  Fixture() {
    TaskGraph g;
    // Chain a -> b, plus an independent c.
    const TaskId a = g.AddTask("a");
    const TaskId b = g.AddTask("b");
    const TaskId c = g.AddTask("c");
    g.AddEdge(a, b);
    for (const TaskId t : {a, b, c}) {
      g.AddImpl(t, SwImpl(20000));
      g.AddImpl(t, HwImpl(1000, 600, 0, 0, static_cast<std::int32_t>(t)));
    }
    instance = Instance{"fix", MakeSmallPlatform(), std::move(g)};
  }

  /// Builds the context/scratch pair against `cap` and switches every task
  /// to its hardware implementation (index 1).
  PaScratch& MakeState(const ResourceVec& cap) {
    ctx.emplace(instance, options);
    scratch.emplace(*ctx);
    scratch->Reset(cap);
    for (std::size_t t = 0; t < instance.graph.NumTasks(); ++t) {
      scratch->SetImpl(static_cast<TaskId>(t), 1);
    }
    return *scratch;
  }

  PaScratch& MakeState() {
    return MakeState(instance.platform.Device().Capacity());
  }
};

TEST(PaStateTest, SetImplUpdatesTiming) {
  Fixture f;
  PaScratch& state = f.MakeState();
  EXPECT_EQ(state.Timing().ExecTime(0), 1000);
  state.SetImpl(0, 0);  // software
  EXPECT_EQ(state.Timing().ExecTime(0), 20000);
  EXPECT_FALSE(state.ChosenIsHardware(0));
}

TEST(PaStateTest, CreateRegionTracksCapacity) {
  Fixture f;
  PaScratch& state = f.MakeState();
  EXPECT_TRUE(state.UsedCap().IsZero());
  const std::size_t r = state.CreateRegionFor(0);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(state.RegionOf(0), 0);
  EXPECT_EQ(state.UsedCap()[0], 600);
  EXPECT_EQ(state.Region(0).res[0], 600);
  EXPECT_GT(state.Region(0).reconf_time, 0);
}

TEST(PaStateTest, HasFreeCapacityAgainstAvail) {
  Fixture f;
  // Artificially small available capacity: only one 600-CLB region fits.
  PaScratch& state = f.MakeState(ResourceVec({700, 40, 60}));
  EXPECT_TRUE(state.HasFreeCapacity(state.ChosenImpl(0).res));
  state.CreateRegionFor(0);
  EXPECT_FALSE(state.HasFreeCapacity(state.ChosenImpl(1).res));
}

TEST(PaStateTest, ResetForgetsRegionsAndKeepsWorking) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.CreateRegionFor(0);
  state.AssignToRegion(0, 1);
  ASSERT_EQ(state.NumRegions(), 1u);

  // A restart must see a pristine scratch...
  state.Reset(f.instance.platform.Device().Capacity());
  EXPECT_EQ(state.NumRegions(), 0u);
  EXPECT_TRUE(state.UsedCap().IsZero());
  EXPECT_EQ(state.RegionOf(0), -1);
  EXPECT_EQ(state.ImplIndex(0), 0u);

  // ...and the second build must behave exactly like the first.
  for (TaskId t = 0; t < 3; ++t) state.SetImpl(t, 1);
  state.CreateRegionFor(0);
  EXPECT_EQ(state.RegionOf(0), 0);
  EXPECT_EQ(state.UsedCap()[0], 600);
}

TEST(PaStateTest, CanHostRequiresResourceFit) {
  Fixture f;
  f.instance.graph = TaskGraph();
  const TaskId a = f.instance.graph.AddTask("a");
  const TaskId b = f.instance.graph.AddTask("b");
  f.instance.graph.AddEdge(a, b);
  f.instance.graph.AddImpl(a, SwImpl(20000));
  f.instance.graph.AddImpl(a, HwImpl(1000, 400));
  f.instance.graph.AddImpl(b, SwImpl(20000));
  f.instance.graph.AddImpl(b, HwImpl(1000, 900));  // larger than a's region
  f.ctx.emplace(f.instance, f.options);
  f.scratch.emplace(*f.ctx);
  PaScratch& state = *f.scratch;
  state.SetImpl(a, 1);
  state.SetImpl(b, 1);
  state.CreateRegionFor(a);
  EXPECT_FALSE(state.CanHost(0, b, 1, false));
}

TEST(PaStateTest, CanHostChecksSlotDisjointness) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.CreateRegionFor(0);  // a occupies [0, 1000)
  // b (chain successor, slot [1000, 2000)) is slot-disjoint from a.
  EXPECT_TRUE(state.CanHost(0, 1, 1, /*require_reconf_room=*/false));
  // c (independent, slot [0, 1000)) overlaps a's slot.
  EXPECT_FALSE(state.CanHost(0, 2, 1, /*require_reconf_room=*/false));
}

TEST(PaStateTest, ReconfRoomRequirementIsStricter) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.CreateRegionFor(0);
  // b starts exactly when a ends: no room for a reconfiguration between.
  EXPECT_TRUE(state.CanHost(0, 1, 1, false));
  EXPECT_FALSE(state.CanHost(0, 1, 1, true));
}

TEST(PaStateTest, AssignToRegionSerializesWithGap) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.CreateRegionFor(0);
  const TimeT reconf = state.Region(0).reconf_time;
  state.AssignToRegion(0, 1);  // b joins a's region
  EXPECT_EQ(state.RegionOf(1), 0);
  ASSERT_EQ(state.Region(0).tasks.size(), 2u);
  EXPECT_EQ(state.Region(0).tasks[0], 0);
  EXPECT_EQ(state.Region(0).tasks[1], 1);
  // The ordering edge reserves the reconfiguration gap: b now starts at
  // end(a) + reconf.
  const TimeWindows& win = state.Timing().Windows();
  EXPECT_EQ(win.earliest_start[1], 1000 + reconf);
}

TEST(PaStateTest, ModuleReuseRemovesGap) {
  Fixture f;
  f.options.module_reuse = true;
  // Give a and b the same module id.
  f.instance.graph = TaskGraph();
  const TaskId a = f.instance.graph.AddTask("a");
  const TaskId b = f.instance.graph.AddTask("b");
  f.instance.graph.AddEdge(a, b);
  for (const TaskId t : {a, b}) {
    f.instance.graph.AddImpl(t, SwImpl(20000));
    f.instance.graph.AddImpl(t, HwImpl(1000, 600, 0, 0, /*module=*/9));
  }
  f.ctx.emplace(f.instance, f.options);
  f.scratch.emplace(*f.ctx);
  PaScratch& state = *f.scratch;
  state.SetImpl(a, 1);
  state.SetImpl(b, 1);
  state.CreateRegionFor(a);
  EXPECT_EQ(state.RegionGap(0, a, b), 0);
  state.AssignToRegion(0, b);
  EXPECT_EQ(state.Timing().Windows().earliest_start[1], 1000);
}

TEST(PaStateTest, TotalReconfTimeEstimateMatchesEq6) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.CreateRegionFor(0);
  EXPECT_EQ(state.TotalReconfTimeEstimate(), 0);  // |T_s| - 1 == 0
  state.AssignToRegion(0, 1);
  EXPECT_EQ(state.TotalReconfTimeEstimate(), state.Region(0).reconf_time);
}

TEST(PaStateTest, SwitchToSoftwareForbiddenAfterAssignment) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.CreateRegionFor(0);
  EXPECT_THROW(state.SwitchToSoftware(0), InternalError);
  EXPECT_NO_THROW(state.SwitchToSoftware(2));
  EXPECT_FALSE(state.ChosenIsHardware(2));
}

TEST(PaStateTest, SnapshotCriticalityIsStable) {
  Fixture f;
  PaScratch& state = f.MakeState();
  state.SnapshotCriticality();
  // a and b form the critical chain (2000 > 1000 of c).
  EXPECT_TRUE(state.WasCritical(0));
  EXPECT_TRUE(state.WasCritical(1));
  EXPECT_FALSE(state.WasCritical(2));
  // Later implementation changes do not disturb the snapshot.
  state.SetImpl(2, 0);  // c becomes a 20 ms software task (now critical)
  EXPECT_FALSE(state.WasCritical(2));
}

TEST(PaStateTest, AdoptedPrecomputeMatchesContext) {
  Fixture f;
  PaScratch& state = f.MakeState(f.instance.platform.Device().Capacity());
  state.Reset(f.instance.platform.Device().Capacity());
  const std::uint64_t sweeps = state.Timing().FullSweeps();
  state.AdoptInitialImplementations();
  state.AdoptInitialCriticality();
  const PaContext& ctx = *f.ctx;
  // The phase-A windows arrive exact with the install: reading them runs
  // no sweep.
  EXPECT_EQ(state.Timing().EarliestStarts(),
            ctx.InitialTiming().EarliestStarts());
  EXPECT_EQ(state.Timing().Makespan(), ctx.InitialTiming().Makespan());
  EXPECT_EQ(state.Timing().FullSweeps(), sweeps);
  for (std::size_t t = 0; t < f.instance.graph.NumTasks(); ++t) {
    EXPECT_EQ(state.ImplIndex(static_cast<TaskId>(t)),
              ctx.InitialImpls()[t]);
    EXPECT_EQ(state.Timing().ExecTime(static_cast<TaskId>(t)),
              ctx.InitialTiming().ExecTime(static_cast<TaskId>(t)));
    EXPECT_EQ(state.WasCritical(static_cast<TaskId>(t)),
              ctx.InitialCriticalMask()[t]);
  }
}

// Oracle for pa::FirstLaneGap: repeatedly bump the candidate past any slot
// that overlaps [candidate, candidate + duration) until a fixpoint. Quadratic
// and cursor-free — correctness is obvious by inspection.
TimeT NaiveLaneGap(const std::vector<std::pair<TimeT, TimeT>>& slots,
                   TimeT lo, TimeT duration) {
  TimeT candidate = lo;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& s : slots) {
      if (s.first < candidate + duration && s.second > candidate) {
        candidate = s.second;
        moved = true;
      }
    }
  }
  return candidate;
}

// Differential sweep for the resume-cursor slot search (PR 9 satellite):
// random disjoint lanes built the way production builds them (each insertion
// lands in a gap the search itself found), probed with a mix of monotone and
// deliberately stale (backwards) queries sharing one resume cursor. Every
// answer must be bit-identical to the naive rescan-from-zero oracle, and to
// the cursor-less call.
TEST(PaStateTest, FirstLaneGapMatchesNaiveScan) {
  Rng rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::pair<TimeT, TimeT>> slots;
    std::size_t resume = 0;
    TimeT frontier = 0;  // keeps the monotone probes roughly advancing
    for (int step = 0; step < 150; ++step) {
      const bool stale = rng.UniformInt(0, 4) == 0;
      const TimeT lo = stale ? rng.UniformInt(0, 500)
                             : frontier + rng.UniformInt(0, 40);
      const TimeT duration = rng.UniformInt(1, 60);
      const TimeT expected = NaiveLaneGap(slots, lo, duration);
      EXPECT_EQ(pa::FirstLaneGap(slots, lo, duration, &resume), expected)
          << "trial=" << trial << " step=" << step << " lo=" << lo
          << " dur=" << duration;
      EXPECT_EQ(pa::FirstLaneGap(slots, lo, duration, nullptr), expected)
          << "cursor-less call diverged at trial=" << trial
          << " step=" << step;
      if (rng.UniformInt(0, 2) != 0) {
        // Book the found gap, exactly as RunReconfigurationScheduling does.
        const std::pair<TimeT, TimeT> slot{expected, expected + duration};
        slots.insert(std::upper_bound(slots.begin(), slots.end(), slot),
                     slot);
        if (!stale) frontier = std::max(frontier, lo);
      }
    }
  }
}

}  // namespace
}  // namespace resched
