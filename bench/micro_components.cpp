// Micro-benchmarks (google-benchmark) for the individual components: CPM
// window recomputation, placement enumeration, floorplan feasibility
// queries, instance generation, the PA core and one IS-k window. These
// back the Table-I runtime decomposition with per-component numbers.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "taskgraph/timing.hpp"

using namespace resched;
using namespace resched::bench;

namespace {

Instance MakeBenchInstance(std::size_t n, std::uint64_t seed = 77) {
  GeneratorOptions gen;
  gen.num_tasks = n;
  return GenerateInstance(MakeZedBoard(), gen, seed, "micro");
}

void BM_GenerateInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeBenchInstance(n, seed++));
  }
}
BENCHMARK(BM_GenerateInstance)->Arg(10)->Arg(50)->Arg(100);

/// CPM context over a bench instance, every task on its first
/// implementation.
TimingContext MakeBenchTiming(const Instance& inst) {
  TimingContext timing(inst.graph);
  for (std::size_t t = 0; t < inst.graph.NumTasks(); ++t) {
    timing.SetExecTime(static_cast<TaskId>(t),
                       inst.graph.GetTask(static_cast<TaskId>(t))
                           .impls.front()
                           .exec_time);
  }
  return timing;
}

// The three CPM legs: the full sweep (first computation and non-monotone
// fallback) and the two monotone edits the PA phases issue most, each
// followed by a T_MIN read.
void BM_CpmFullSweep(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  TimingContext timing = MakeBenchTiming(inst);
  const std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>> no_gaps;
  for (auto _ : state) {
    // Reassigning the base gaps is a non-monotone edit: the read runs the
    // forward and the backward sweep (the edge set, hence the cached
    // topological order, is unchanged).
    timing.AssignBaseEdgeGaps(no_gaps);
    benchmark::DoNotOptimize(timing.Windows().makespan);
  }
}
BENCHMARK(BM_CpmFullSweep)->Arg(10)->Arg(50)->Arg(100);

void BM_CpmAddOrderingEdge(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  const auto n = static_cast<std::int64_t>(inst.graph.NumTasks());
  TimingContext timing = MakeBenchTiming(inst);
  Rng rng(5);
  std::size_t edges = 0;
  for (auto _ : state) {
    // A task pair in T_MIN order (the scheduler's case): never a cycle.
    auto a = static_cast<TaskId>(rng.UniformInt(0, n - 1));
    auto b = static_cast<TaskId>(rng.UniformInt(0, n - 1));
    if (timing.EarliestStart(a) > timing.EarliestStart(b)) std::swap(a, b);
    if (a == b) continue;
    timing.AddOrderingEdge(a, b, 0);
    benchmark::DoNotOptimize(timing.Makespan());
    if (++edges == 4 * inst.graph.NumTasks()) {  // bound the edge set
      state.PauseTiming();
      timing = MakeBenchTiming(inst);
      (void)timing.Makespan();
      edges = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_CpmAddOrderingEdge)->Arg(10)->Arg(50)->Arg(100);

void BM_CpmRaiseRelease(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  const auto n = static_cast<std::int64_t>(inst.graph.NumTasks());
  TimingContext timing = MakeBenchTiming(inst);
  Rng rng(6);
  for (auto _ : state) {
    // A small delay past the current T_MIN, as a reconfiguration causes.
    const auto t = static_cast<TaskId>(rng.UniformInt(0, n - 1));
    timing.RaiseRelease(t, timing.EarliestStart(t) + rng.UniformInt(1, 500));
    benchmark::DoNotOptimize(timing.Makespan());
  }
}
BENCHMARK(BM_CpmRaiseRelease)->Arg(10)->Arg(50)->Arg(100);

void BM_EnumeratePlacements(benchmark::State& state) {
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  const ResourceVec req(
      {state.range(1), state.range(1) / 100, state.range(1) / 50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateFeasiblePlacements(fabric, req));
  }
  (void)state.range(0);
}
BENCHMARK(BM_EnumeratePlacements)->Args({0, 500})->Args({0, 2000})
    ->Args({0, 6000});

/// Catalog builds (enumeration + dominance prune + footprints) over a
/// fixed mix of 32 requirements, each a fraction of the fabric capacity.
/// Arg 0: ZedBoard, 1: ZCU102.
void BM_PlacementCatalog(benchmark::State& state) {
  const FpgaDevice device = state.range(0) == 0 ? MakeXc7z020() : MakeZu9eg();
  const Fabric fabric(device);
  const ResourceVec& cap = fabric.Capacity();
  std::vector<ResourceVec> reqs;
  for (std::int64_t i = 0; i < 32; ++i) {
    reqs.push_back(ResourceVec({cap[0] * (i % 8 + 1) / 40,
                                cap[1] * (i % 4) / 30, cap[2] * (i % 3) / 30}));
  }
  for (auto _ : state) {
    for (const ResourceVec& req : reqs) {
      benchmark::DoNotOptimize(EnumeratePrunedPlacementSet(fabric, req, 4096));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reqs.size()));
}
BENCHMARK(BM_PlacementCatalog)->Arg(0)->Arg(1);

/// The first query deterministic PA asks on suite seed 3 (ZedBoard) that
/// exhausts the default 2M-node budget, in canonical order.
std::vector<ResourceVec> FirstBurnedSuiteQuery() {
  SuiteSpec spec;
  spec.base_seed = 3;
  PaOptions options;
  options.floorplan.time_budget_seconds = 0.0;
  for (std::size_t n = spec.min_tasks; n <= spec.max_tasks; n += spec.step) {
    for (const Instance& inst : GenerateSuiteGroup(MakeZedBoard(), spec, n)) {
      Rng rng(options.seed);
      ResourceVec avail = inst.platform.Device().Capacity();
      for (std::size_t round = 0; round < options.max_shrink_rounds;
           ++round) {
        const Schedule s = RunPaCore(inst, options, avail, rng);
        const std::vector<ResourceVec> regions = s.RegionRequirements();
        const FloorplanResult r =
            FindFloorplan(inst.platform.Device(), regions, options.floorplan);
        if (r.budget_exhausted) {
          std::vector<ResourceVec> canonical;
          for (const std::size_t i : CanonicalRegionOrder(regions)) {
            canonical.push_back(regions[i]);
          }
          return canonical;
        }
        if (r.feasible) break;
        avail = avail.ScaledDown(options.shrink_factor);
      }
    }
  }
  return {};
}

/// One budget-exhausted DFS (2M nodes, no wall-clock limit) over
/// prebuilt catalogs: the floorplan cost that dominates suite_pa.
void BM_FloorplanBurn(benchmark::State& state) {
  const std::vector<ResourceVec> query = FirstBurnedSuiteQuery();
  if (query.empty()) {
    state.SkipWithError("no budget-exhausted query on suite seed 3");
    return;
  }
  FloorplanCache cache(MakeXc7z020());
  std::vector<std::shared_ptr<const PlacementSet>> owned;
  std::vector<const PlacementSet*> sets;
  for (const ResourceVec& req : query) {
    owned.push_back(cache.Placements(req, 4096));
    sets.push_back(owned.back().get());
  }
  FloorplanOptions options;
  options.time_budget_seconds = 0.0;
  FloorplanResult last;
  for (auto _ : state) {
    last = SolveFloorplanFeasibility(cache.fabric(), sets, options);
    benchmark::DoNotOptimize(last.nodes_explored);
  }
  state.counters["regions"] = static_cast<double>(query.size());
  state.counters["nodes"] = static_cast<double>(last.nodes_explored);
  state.counters["replayed"] = static_cast<double>(last.replayed_nodes);
}
BENCHMARK(BM_FloorplanBurn)->Unit(benchmark::kMillisecond);

void BM_FloorplanFeasible(benchmark::State& state) {
  const FpgaDevice device = MakeXc7z020();
  const auto regions = static_cast<std::size_t>(state.range(0));
  std::vector<ResourceVec> reqs(regions, ResourceVec({1200, 8, 10}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindFloorplan(device, reqs));
  }
}
BENCHMARK(BM_FloorplanFeasible)->Arg(2)->Arg(5)->Arg(8);

void BM_PaCore(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  PaOptions opt;
  opt.run_floorplan = false;
  Rng rng(1);
  const ResourceVec cap = inst.platform.Device().Capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPaCore(inst, opt, cap, rng));
  }
}
BENCHMARK(BM_PaCore)->Arg(10)->Arg(50)->Arg(100);

void BM_PaWithFloorplan(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchedulePa(inst));
  }
}
BENCHMARK(BM_PaWithFloorplan)->Arg(10)->Arg(50)->Arg(100);

void BM_Is1(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  IskOptions opt;
  opt.k = 1;
  opt.run_floorplan = false;
  const ResourceVec cap = inst.platform.Device().Capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunIskCore(inst, opt, cap));
  }
}
BENCHMARK(BM_Is1)->Arg(10)->Arg(50)->Arg(100);

void BM_Is5Window(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(40);
  IskOptions opt;
  opt.k = 5;
  opt.node_budget = static_cast<std::size_t>(state.range(0));
  opt.run_floorplan = false;
  const ResourceVec cap = inst.platform.Device().Capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunIskCore(inst, opt, cap));
  }
}
BENCHMARK(BM_Is5Window)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_Validator(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  const Schedule s = SchedulePa(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateSchedule(inst, s));
  }
}
BENCHMARK(BM_Validator)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
