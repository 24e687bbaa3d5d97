// PA-R: the randomized scheduler variant (§VI, Algorithm 1).
//
// Repeatedly runs the PA core with a random non-critical task ordering
// within a wall-clock budget, keeping the best floorplan-feasible schedule.
// The floorplanner is only consulted when an iteration improves on the
// incumbent, amortizing its cost across iterations; floorplan-infeasible
// candidates are simply discarded (no resource-shrinking restart).
//
// As an extension over the paper, restarts can be fanned out over a thread
// pool. Every *iteration* (ticket) draws its own deterministic RNG stream
// (DeriveSeed(kParSeedStream ^ seed, iteration)), so for a fixed (seed,
// max_iterations) configuration the set of candidates is identical at any
// thread count; only which worker executes an iteration varies. Makespan
// ties go to the lowest iteration, so the best schedule is identical too.
//
// Hot path (PR 4): all workers share one immutable PaContext and one
// concurrent FloorplanCache; each worker reuses a private PaScratch, so a
// restart in steady state allocates nothing.
#pragma once

#include <vector>

#include "core/pa_scheduler.hpp"

namespace resched {

struct PaROptions {
  /// Wall-clock budget (Algorithm 1's timeToRun); <= 0 means "no time
  /// limit" and requires max_iterations > 0.
  double time_budget_seconds = 1.0;
  /// Iteration cap; 0 means unbounded (budget-limited only).
  std::size_t max_iterations = 0;
  /// Worker threads (1 = faithful sequential Algorithm 1).
  std::size_t threads = 1;
  std::uint64_t seed = 1;
  /// Options for the inner doSchedule() calls; `ordering` is forced to
  /// kRandom and `run_floorplan` to false internally. `base.floorplan_cache`
  /// controls the shared feasibility cache (on by default).
  PaOptions base;

  /// Per-iteration virtually-available capacity factor, drawn uniformly in
  /// [capacity_factor_lo, capacity_factor_hi].
  ///
  /// Rationale: phase §V-C deliberately packs regions up to the raw
  /// capacity check, but a rectangle on a column-based fabric always
  /// occupies at least its enclosing footprint, so region sets at ~100%
  /// raw utilization rarely admit a floorplan. The deterministic PA
  /// recovers through the §V-H shrink-and-restart loop; Algorithm 1 as
  /// printed only *discards* infeasible iterations, which would discard
  /// nearly all of them. Randomizing the virtual capacity keeps the
  /// discard structure of Algorithm 1 while letting the search visit
  /// region sets loose enough to floorplan. Set both factors to 1.0 to get
  /// the literal Algorithm 1.
  double capacity_factor_lo = 0.70;
  double capacity_factor_hi = 1.0;

  /// Warm start: seed the incumbent with the deterministic PA schedule
  /// (including its shrink-loop floorplan recovery) before randomizing.
  /// The warm-start time is charged against the budget. Guarantees PA-R
  /// never returns worse than PA — and never returns empty-handed.
  bool seed_with_deterministic = true;
  /// Record (elapsed seconds, best makespan) improvement points (Fig. 6).
  bool record_trace = false;

  /// Optional cooperative cancellation (reschedd per-request deadlines):
  /// polled once per restart ticket by every worker and during the
  /// deterministic warm start. When it fires, the workers drain and
  /// SchedulePaR throws CancelledError from the calling thread.
  const CancelToken* cancel = nullptr;
};

struct TracePoint {
  double seconds = 0.0;
  TimeT makespan = 0;
  /// Restarts *completed* (across all workers) when this improvement was
  /// accepted — a monotone x-axis for Fig. 6, unlike the ticket counter,
  /// which also counts restarts still in flight.
  std::size_t iteration = 0;
};

struct PaRResult {
  Schedule best;
  bool found = false;
  std::size_t iterations = 0;
  double seconds = 0.0;
  /// Sorted by `seconds`.
  std::vector<TracePoint> trace;
  /// Shared floorplan-cache counters for the whole run (zeros when the
  /// cache was disabled).
  FloorplanCacheStats floorplan_cache;
};

/// `cache`: optional externally-owned floorplan-feasibility cache shared
/// across calls (the reschedd worker pool passes one per device); when
/// null and options.base.floorplan_cache is set, a private cache spans
/// this call, as before. Results are bit-identical either way.
PaRResult SchedulePaR(const Instance& instance, const PaROptions& options,
                      FloorplanCache* cache = nullptr);

}  // namespace resched
