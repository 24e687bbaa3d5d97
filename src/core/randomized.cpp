#include "core/randomized.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "core/pa_state.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace resched {

PaRResult SchedulePaR(const Instance& instance, const PaROptions& options,
                      FloorplanCache* cache) {
  RESCHED_CHECK_MSG(
      options.time_budget_seconds > 0.0 || options.max_iterations > 0,
      "PA-R needs a time budget or an iteration cap");
  RESCHED_CHECK_MSG(options.capacity_factor_lo > 0.0 &&
                        options.capacity_factor_lo <=
                            options.capacity_factor_hi &&
                        options.capacity_factor_hi <= 1.0,
                    "capacity factors must satisfy 0 < lo <= hi <= 1");
  instance.graph.Validate(instance.platform.Device());

  PaOptions inner = options.base;
  inner.ordering = NonCriticalOrder::kRandom;
  inner.run_floorplan = false;

  const ResourceVec full_cap = instance.platform.Device().Capacity();

  // Shared read-only context + shared concurrent feasibility cache: the
  // build-once half of the PR-4 hot path. An externally-owned cache (the
  // reschedd worker pool shares one per device across requests) takes
  // precedence over the per-call private one.
  const pa::PaContext ctx(instance, inner);
  std::optional<FloorplanCache> own_cache;
  if (cache == nullptr && options.base.floorplan_cache) {
    own_cache.emplace(instance.platform.Device());
    cache = &*own_cache;
  }

  const FloorplanCacheStats stats_before =
      cache != nullptr ? cache->Stats() : FloorplanCacheStats{};

  PaRResult result;
  Mutex best_mutex;
  TimeT best_makespan = kTimeInfinity;
  // Ties on makespan go to the lowest iteration (the warm start counts as
  // 0) — what one worker taking tickets in order keeps — so the best
  // schedule itself, not only its makespan, is the same at any thread
  // count.
  std::size_t best_iter = 0;
  const auto improves = [&](TimeT makespan, std::size_t iter) {
    return makespan < best_makespan ||
           (makespan == best_makespan && iter < best_iter);
  };

  if (options.seed_with_deterministic) {
    PaOptions det = options.base;
    det.ordering = NonCriticalOrder::kEfficiency;
    det.run_floorplan = true;
    Schedule warm = SchedulePa(instance, det, cache, options.cancel);
    warm.algorithm = "PA-R";
    best_makespan = warm.makespan;
    result.best = std::move(warm);
    result.found = true;
    if (options.record_trace) {
      result.trace.push_back(TracePoint{0.0, best_makespan, 0});
    }
  }

  // The budget governs the randomized multi-start itself: the deterministic
  // warm start above is a fixed cost paid before the clock starts. This also
  // guarantees every worker gets at least one restart attempt even when the
  // warm start is slow (sanitizer builds run it ~10x slower).
  const Deadline deadline(options.time_budget_seconds);
  std::atomic<std::size_t> tickets{0};
  std::atomic<std::size_t> completed{0};

  auto worker = [&]() {
    // Steady-state reuse: one scratch and one candidate per worker, both
    // recycled across every restart this worker executes.
    pa::PaScratch scratch(ctx);
    Schedule candidate;

    for (;;) {
      if (deadline.Expired()) break;
      // Cooperative cancellation: drain quietly here; the calling thread
      // turns the fired token into a CancelledError after the join (an
      // exception must not escape a worker thread).
      if (options.cancel != nullptr && options.cancel->Cancelled()) break;
      const std::size_t iter = tickets.fetch_add(1) + 1;
      if (options.max_iterations != 0 && iter > options.max_iterations) break;

      // Per-iteration stream: candidate `iter` is the same schedule no
      // matter which worker draws the ticket, making the candidate set —
      // and the best makespan — independent of the thread count.
      Rng rng(DeriveSeed(kParSeedStream ^ options.seed, iter));
      const double factor = rng.UniformDouble(options.capacity_factor_lo,
                                              options.capacity_factor_hi);
      const ResourceVec avail_cap = full_cap.ScaledDown(factor);
      RunPaCore(ctx, scratch, avail_cap, rng, candidate);
      const std::size_t done_now = completed.fetch_add(1) + 1;

      // Fast path: not an improvement, skip the floorplanner entirely.
      {
        MutexLock lock(best_mutex);
        if (!improves(candidate.makespan, iter)) continue;
      }

      // Potential improvement: validate on the fabric (outside the lock).
      const FloorplanResult fp =
          cache != nullptr ? cache->Query(candidate.RegionRequirements(),
                                          inner.floorplan)
                           : FindFloorplan(instance.platform.Device(),
                                           candidate.RegionRequirements(),
                                           inner.floorplan);
      if (!fp.feasible) continue;

      MutexLock lock(best_mutex);
      if (!improves(candidate.makespan, iter)) continue;  // raced: recheck
      const bool lower = candidate.makespan < best_makespan;
      best_makespan = candidate.makespan;
      best_iter = iter;
      candidate.floorplan = fp.rects;
      candidate.floorplan_checked = true;
      candidate.algorithm = "PA-R";
      result.best = std::move(candidate);
      result.found = true;
      if (options.record_trace && lower) {
        // Grows only on improvements — cold by definition.
        result.trace.push_back(  // resched-lint: allow(reserve-before-push-hot)
            TracePoint{deadline.ElapsedSeconds(), best_makespan, done_now});
      }
    }
  };

  if (options.threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(options.threads);
    for (std::size_t w = 0; w < options.threads; ++w) {
      threads.emplace_back(worker);
    }
    for (auto& t : threads) t.join();
  }

  // Surface a fired token as CancelledError only from the calling thread,
  // after every worker has drained.
  if (options.cancel != nullptr) options.cancel->ThrowIfCancelled();

  // Workers append improvements in acceptance order, which under
  // contention is not elapsed-time order; Fig. 6 wants a time-monotone
  // staircase.
  std::stable_sort(result.trace.begin(), result.trace.end(),
                   [](const TracePoint& a, const TracePoint& b) {
                     return a.seconds < b.seconds;
                   });

  result.iterations = completed.load();
  result.seconds = deadline.ElapsedSeconds();
  if (cache != nullptr) {
    // Delta, not totals: an externally-shared cache carries counters from
    // other requests.
    result.floorplan_cache = cache->Stats().Since(stats_before);
    if (result.found) result.best.floorplan_cache = result.floorplan_cache;
  }
  if (result.found) {
    result.best.scheduling_seconds = result.seconds;
  }
  return result;
}

}  // namespace resched
