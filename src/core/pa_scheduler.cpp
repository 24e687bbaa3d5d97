#include "core/pa_scheduler.hpp"

#include <optional>

#include "core/pa_state.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace resched {

void RunPaCore(const pa::PaContext& ctx, pa::PaScratch& scratch,
               const ResourceVec& avail_cap, Rng& rng, Schedule& out) {
  scratch.Reset(avail_cap);
  pa::RunImplementationSelection(ctx, scratch);
  pa::RunCriticalPathExtraction(ctx, scratch);
  pa::RunRegionsDefinition(ctx, scratch, rng);
  if (ctx.Options().sw_balancing) pa::RunSoftwareTaskBalancing(ctx, scratch);
  pa::RunSoftwareTaskMapping(ctx, scratch);
  pa::RunReconfigurationScheduling(ctx, scratch);
  pa::AssembleSchedule(ctx, scratch, out);
  out.algorithm = ctx.Options().ordering == NonCriticalOrder::kRandom
                      ? "PA-R(inner)"
                      : "PA";
}

Schedule RunPaCore(const Instance& instance, const PaOptions& options,
                   const ResourceVec& avail_cap, Rng& rng) {
  pa::PaContext ctx(instance, options);
  pa::PaScratch scratch(ctx);
  Schedule schedule;
  RunPaCore(ctx, scratch, avail_cap, rng, schedule);
  return schedule;
}

Schedule SchedulePa(const Instance& instance, const PaOptions& options,
                    FloorplanCache* cache, const CancelToken* cancel) {
  instance.graph.Validate(instance.platform.Device());

  // Build-once hot path: one context and one scratch span every shrink
  // round; only the virtual capacity changes between rounds.
  pa::PaContext ctx(instance, options);
  pa::PaScratch scratch(ctx);
  return SchedulePaWarm(ctx, scratch, cache, cancel);
}

Schedule SchedulePaWarm(const pa::PaContext& ctx, pa::PaScratch& scratch,
                        FloorplanCache* cache, const CancelToken* cancel) {
  const Instance& instance = ctx.Inst();
  const PaOptions& options = ctx.Options();
  Rng rng(options.seed);

  double scheduling_seconds = 0.0;
  double floorplanning_seconds = 0.0;

  // A private cache serves one call: at most max_shrink_rounds + 1
  // verdicts and the catalogs of their regions' requirements (~27 per
  // call on the paper suite). The default capacities (4096 verdicts,
  // 1024 catalogs) cost more to allocate and free than a light solve
  // spends searching. 256 slots each (16 per shard, 8-slot probe
  // window) leave the suite's verdict and catalog hit rates unchanged.
  std::optional<FloorplanCache> own_cache;
  if (cache == nullptr && options.floorplan_cache && options.run_floorplan) {
    own_cache.emplace(instance.platform.Device(), /*verdict_capacity=*/256,
                      /*catalog_capacity=*/256);
  }
  FloorplanCache* fp_cache = cache != nullptr ? cache : (own_cache ? &*own_cache : nullptr);
  const FloorplanCacheStats stats_before =
      fp_cache != nullptr ? fp_cache->Stats() : FloorplanCacheStats{};

  ResourceVec avail_cap = instance.platform.Device().Capacity();
  Schedule schedule;
  for (std::size_t round = 0; round <= options.max_shrink_rounds; ++round) {
    if (cancel != nullptr) cancel->ThrowIfCancelled();
    const bool last_round = round == options.max_shrink_rounds;
    if (last_round) {
      // Fallback: zero virtual capacity forces an all-software schedule,
      // which needs no regions and hence no floorplan.
      avail_cap = avail_cap.ScaledDown(0.0);
    }

    WallTimer sched_timer;
    RunPaCore(ctx, scratch, avail_cap, rng, schedule);
    scheduling_seconds += sched_timer.ElapsedSeconds();
    schedule.floorplan_retries = round;

    if (!options.run_floorplan) break;

    const FloorplanResult fp =
        fp_cache != nullptr
            ? fp_cache->Query(schedule.RegionRequirements(),
                              options.floorplan)
            : FindFloorplan(instance.platform.Device(),
                            schedule.RegionRequirements(), options.floorplan);
    floorplanning_seconds += fp.seconds;
    if (fp.feasible) {
      schedule.floorplan = fp.rects;
      schedule.floorplan_checked = true;
      break;
    }
    RESCHED_LOG_INFO << "floorplan infeasible for " << schedule.regions.size()
                     << " regions (round " << round
                     << "); shrinking available resources by "
                     << options.shrink_factor;
    avail_cap = avail_cap.ScaledDown(options.shrink_factor);
  }

  schedule.algorithm = "PA";
  schedule.scheduling_seconds = scheduling_seconds;
  schedule.floorplanning_seconds = floorplanning_seconds;
  if (fp_cache != nullptr) {
    schedule.floorplan_cache = fp_cache->Stats().Since(stats_before);
  }
  return schedule;
}

}  // namespace resched
