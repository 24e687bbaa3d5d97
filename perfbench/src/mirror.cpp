#include "mirror.hpp"

#include <optional>

#include "core/pa_state.hpp"
#include "io/schedule_io.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace resched;

void FloorplanModel::Observe(const FloorplanCache& cache,
                             const std::vector<ResourceVec>& regions) {
  if (regions.empty()) return;
  ResourceVec total(regions.front().size());
  for (const ResourceVec& r : regions) total += r;
  if (!total.FitsWithin(cache.fabric().Capacity())) return;
  std::string key;
  for (const std::size_t i : CanonicalRegionOrder(regions)) {
    for (std::size_t k = 0; k < regions[i].size(); ++k) {
      key += std::to_string(regions[i][k]);
      key += k + 1 < regions[i].size() ? ',' : ';';
    }
  }
  ++queries;
  if (!seen_.insert(std::move(key)).second) ++hits;
}

void Mirror::PaCore(const pa::PaContext& ctx, pa::PaScratch& scratch,
                    const ResourceVec& avail_cap, Rng& rng, Schedule& out) {
  const std::uint64_t allocs_before = ThreadAllocs();
  {
    ScopedSpan span(tracer_, "core.scratch_reset");
    scratch.Reset(avail_cap);
  }
  {
    ScopedSpan span(tracer_, "core.impl_selection");
    pa::RunImplementationSelection(ctx, scratch);
  }
  {
    ScopedSpan span(tracer_, "core.critical_path");
    pa::RunCriticalPathExtraction(ctx, scratch);
  }
  {
    ScopedSpan span(tracer_, "core.regions_definition");
    pa::RunRegionsDefinition(ctx, scratch, rng);
  }
  if (ctx.Options().sw_balancing) {
    ScopedSpan span(tracer_, "core.sw_balancing");
    pa::RunSoftwareTaskBalancing(ctx, scratch);
  }
  {
    ScopedSpan span(tracer_, "core.sw_mapping");
    pa::RunSoftwareTaskMapping(ctx, scratch);
  }
  {
    ScopedSpan span(tracer_, "core.reconf_scheduling");
    pa::RunReconfigurationScheduling(ctx, scratch);
  }
  {
    ScopedSpan span(tracer_, "core.assemble");
    pa::AssembleSchedule(ctx, scratch, out);
  }
  out.algorithm = ctx.Options().ordering == NonCriticalOrder::kRandom
                      ? "PA-R(inner)"
                      : "PA";
  ++counts_.passes;
  counts_.pass_allocs += ThreadAllocs() - allocs_before;
}

FloorplanResult Mirror::Query(FloorplanCache& cache, FloorplanModel& model,
                              const std::vector<ResourceVec>& regions,
                              const FloorplanOptions& options) {
  model.Observe(cache, regions);
  const FloorplanCacheStats before = cache.Stats();
  FloorplanResult fp;
  {
    ScopedSpan span(tracer_, "floorplan.query");
    fp = cache.Query(regions, options);
  }
  const FloorplanCacheStats delta = cache.Stats().Since(before);
  fp_totals_.queries += delta.queries;
  fp_totals_.hits += delta.hits;
  fp_totals_.misses += delta.misses;
  fp_totals_.evictions += delta.evictions;
  fp_totals_.catalog_hits += delta.catalog_hits;
  fp_totals_.catalog_misses += delta.catalog_misses;
  fp_totals_.solve_nodes += delta.solve_nodes;
  ++counts_.fp_calls;
  if (fp.budget_exhausted) {
    ++counts_.fp_budget_exhausted;
  } else {
    ++counts_.fp_proven;
  }
  return fp;
}

Schedule Mirror::SchedulePa(const Instance& instance,
                            const PaOptions& options, FloorplanCache* cache,
                            FloorplanModel* model) {
  {
    ScopedSpan span(tracer_, "taskgraph.validate");
    instance.graph.Validate(instance.platform.Device());
  }
  std::optional<pa::PaContext> ctx;
  std::optional<pa::PaScratch> scratch;
  {
    ScopedSpan span(tracer_, "core.context_build");
    ctx.emplace(instance, options);
    scratch.emplace(*ctx);
  }

  // SchedulePaWarm, phase by phase.
  Rng rng(options.seed);
  double scheduling_seconds = 0.0;
  double floorplanning_seconds = 0.0;
  std::optional<FloorplanCache> own_cache;
  FloorplanModel own_model;
  if (cache == nullptr && options.floorplan_cache && options.run_floorplan) {
    own_cache.emplace(instance.platform.Device());
    cache = &*own_cache;
    model = &own_model;
  }
  const FloorplanCacheStats stats_before =
      cache != nullptr ? cache->Stats() : FloorplanCacheStats{};

  ResourceVec avail_cap = instance.platform.Device().Capacity();
  Schedule schedule;
  for (std::size_t round = 0; round <= options.max_shrink_rounds; ++round) {
    const bool last_round = round == options.max_shrink_rounds;
    if (last_round) avail_cap = avail_cap.ScaledDown(0.0);

    WallTimer sched_timer;
    PaCore(*ctx, *scratch, avail_cap, rng, schedule);
    scheduling_seconds += sched_timer.ElapsedSeconds();
    schedule.floorplan_retries = round;

    if (!options.run_floorplan) break;

    std::vector<ResourceVec> regions;
    {
      ScopedSpan span(tracer_, "sched.region_requirements");
      regions = schedule.RegionRequirements();
    }
    const FloorplanResult fp =
        cache != nullptr
            ? Query(*cache, *model, regions, options.floorplan)
            : FindFloorplan(instance.platform.Device(), regions,
                            options.floorplan);
    floorplanning_seconds += fp.seconds;
    if (fp.feasible) {
      schedule.floorplan = fp.rects;
      schedule.floorplan_checked = true;
      break;
    }
    avail_cap = avail_cap.ScaledDown(options.shrink_factor);
  }

  schedule.algorithm = "PA";
  schedule.scheduling_seconds = scheduling_seconds;
  schedule.floorplanning_seconds = floorplanning_seconds;
  if (cache != nullptr) {
    schedule.floorplan_cache = cache->Stats().Since(stats_before);
  }
  if (own_cache) Reconcile(*own_cache, own_model);
  return schedule;
}

PaRResult Mirror::SchedulePaR(const Instance& instance,
                              const PaROptions& options,
                              FloorplanCache* cache, FloorplanModel* model) {
  {
    ScopedSpan span(tracer_, "taskgraph.validate");
    instance.graph.Validate(instance.platform.Device());
  }
  PaOptions inner = options.base;
  inner.ordering = NonCriticalOrder::kRandom;
  inner.run_floorplan = false;
  const ResourceVec full_cap = instance.platform.Device().Capacity();

  std::optional<pa::PaContext> ctx;
  {
    ScopedSpan span(tracer_, "core.context_build");
    ctx.emplace(instance, inner);
  }
  std::optional<FloorplanCache> own_cache;
  FloorplanModel own_model;
  if (cache == nullptr && options.base.floorplan_cache) {
    own_cache.emplace(instance.platform.Device());
    cache = &*own_cache;
    model = &own_model;
  }
  const FloorplanCacheStats stats_before =
      cache != nullptr ? cache->Stats() : FloorplanCacheStats{};

  PaRResult result;
  TimeT best_makespan = kTimeInfinity;
  if (options.seed_with_deterministic) {
    PaOptions det = options.base;
    det.ordering = NonCriticalOrder::kEfficiency;
    det.run_floorplan = true;
    Schedule warm = SchedulePa(instance, det, cache, model);
    warm.algorithm = "PA-R";
    best_makespan = warm.makespan;
    result.best = std::move(warm);
    result.found = true;
  }

  // As in SchedulePaR, the budget clock starts after the warm start.
  WallTimer clock;
  std::optional<pa::PaScratch> scratch;
  {
    ScopedSpan span(tracer_, "core.context_build");
    scratch.emplace(*ctx);
  }
  Schedule candidate;
  std::size_t completed = 0;
  for (std::size_t iter = 1;
       options.max_iterations == 0 || iter <= options.max_iterations;
       ++iter) {
    if (options.time_budget_seconds > 0.0 &&
        clock.ElapsedSeconds() >= options.time_budget_seconds) {
      break;
    }
    std::optional<Rng> rng;
    ResourceVec avail_cap;
    {
      ScopedSpan span(tracer_, "util.restart_seed");
      rng.emplace(DeriveSeed(kParSeedStream ^ options.seed, iter));
      const double factor = rng->UniformDouble(options.capacity_factor_lo,
                                               options.capacity_factor_hi);
      avail_cap = full_cap.ScaledDown(factor);
    }
    PaCore(*ctx, *scratch, avail_cap, *rng, candidate);
    ++completed;
    if (candidate.makespan >= best_makespan) continue;

    std::vector<ResourceVec> regions;
    {
      ScopedSpan span(tracer_, "sched.region_requirements");
      regions = candidate.RegionRequirements();
    }
    const FloorplanResult fp =
        cache != nullptr
            ? Query(*cache, *model, regions, inner.floorplan)
            : FindFloorplan(instance.platform.Device(), regions,
                            inner.floorplan);
    if (!fp.feasible) continue;
    best_makespan = candidate.makespan;
    candidate.floorplan = fp.rects;
    candidate.floorplan_checked = true;
    candidate.algorithm = "PA-R";
    result.best = std::move(candidate);
    result.found = true;
  }

  result.iterations = completed;
  result.seconds = clock.ElapsedSeconds();
  if (cache != nullptr) {
    result.floorplan_cache = cache->Stats().Since(stats_before);
    if (result.found) result.best.floorplan_cache = result.floorplan_cache;
  }
  if (result.found) result.best.scheduling_seconds = result.seconds;
  if (own_cache) Reconcile(*own_cache, own_model);
  return result;
}

void Mirror::Reconcile(const FloorplanCache& cache,
                       const FloorplanModel& model) {
  const FloorplanCacheStats stats = cache.Stats();
  if (stats.queries != model.queries) {
    mismatches_.push_back("floorplan queries: cache counted " +
                          std::to_string(stats.queries) +
                          ", benchmark counted " +
                          std::to_string(model.queries));
  }
  if (stats.evictions == 0 && stats.hits != model.hits) {
    mismatches_.push_back("floorplan verdict hits: cache counted " +
                          std::to_string(stats.hits) +
                          ", benchmark predicted " +
                          std::to_string(model.hits));
  }
}

void Mirror::AddMetrics(double solves,
                        std::map<std::string, double>& values) const {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const FloorplanCacheStats& fp = fp_totals_;
  values["core.pa_core_calls_per_solve"] = ratio(d(counts_.passes), solves);
  values["core.allocs_per_restart"] =
      ratio(d(counts_.pass_allocs), d(counts_.passes));
  values["floorplan.queries_per_solve"] = ratio(d(counts_.fp_calls), solves);
  values["floorplan.dfs_nodes_per_query"] =
      ratio(d(fp.solve_nodes), d(fp.queries));
  values["floorplan.budget_exhausted_per_solve"] =
      ratio(d(counts_.fp_budget_exhausted), solves);
  values["floorplan.proven_share"] =
      ratio(d(counts_.fp_proven), d(counts_.fp_calls));
  values["floorplan.verdict_hit_rate"] = ratio(d(fp.hits), d(fp.queries));
  values["floorplan.catalog_hit_rate"] =
      ratio(d(fp.catalog_hits), d(fp.catalog_hits + fp.catalog_misses));
}

std::string ScheduleFingerprint(const Instance& instance,
                                const Schedule& schedule) {
  JsonValue json = ScheduleToJson(instance, schedule);
  json.AsObject().erase("scheduling_seconds");
  json.AsObject().erase("floorplanning_seconds");
  const FloorplanCacheStats& fp = schedule.floorplan_cache;
  return json.Dump(-1) + "|fp:" + std::to_string(fp.queries) + "," +
         std::to_string(fp.hits) + "," + std::to_string(fp.misses) + "," +
         std::to_string(fp.solve_nodes);
}

}  // namespace perfbench
