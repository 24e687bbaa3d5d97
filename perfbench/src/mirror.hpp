// Traced twins of the PA entry points, assembled from the library's public
// phase functions so the benchmark can time each layer from outside:
//
//   TracedPaCore     = RunPaCore      (one pass of phases §V-A..§V-G)
//   TracedSchedulePa = SchedulePa     (context build + §V-H shrink loop)
//   TracedSchedulePaR = SchedulePaR   (threads = 1)
//
// Each must reproduce its original bit for bit; the traced runs compare
// the twins' schedules against the library's own entry points and fail
// on any difference. FloorplanModel independently predicts the
// FloorplanCache query/hit counters, which the traced runs reconcile
// against FloorplanCacheStats.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/randomized.hpp"
#include "floorplan/floorplan_cache.hpp"

namespace resched::pa {
class PaContext;
class PaScratch;
}  // namespace resched::pa

namespace perfbench {

/// Predicts FloorplanCache::Stats() for the queries one cache receives:
/// a query reaches the verdict memo unless it has no regions or their sum
/// exceeds the fabric; it hits when the same requirement multiset was
/// queried before (exact while the cache reports no evictions). One model
/// per cache instance.
class FloorplanModel {
 public:
  void Observe(const resched::FloorplanCache& cache,
               const std::vector<resched::ResourceVec>& regions);
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;

 private:
  std::set<std::string> seen_;
};

/// Work counted by the twins (the benchmark's side of the reconciliation).
struct MirrorCounts {
  std::uint64_t passes = 0;        ///< PaCore twin calls
  std::uint64_t pass_allocs = 0;   ///< heap allocations inside passes
  std::uint64_t fp_calls = 0;      ///< FloorplanCache::Query calls
  std::uint64_t fp_budget_exhausted = 0;
  std::uint64_t fp_proven = 0;     ///< feasible or proven infeasible
};

class Mirror {
 public:
  explicit Mirror(Tracer& tracer) : tracer_(tracer) {}

  void PaCore(const resched::pa::PaContext& ctx,
              resched::pa::PaScratch& scratch,
              const resched::ResourceVec& avail_cap, resched::Rng& rng,
              resched::Schedule& out);
  resched::FloorplanResult Query(
      resched::FloorplanCache& cache, FloorplanModel& model,
      const std::vector<resched::ResourceVec>& regions,
      const resched::FloorplanOptions& options);
  /// `cache` null: a private cache per call, as SchedulePa does, checked
  /// against a private model when the call ends. Otherwise `model` tracks
  /// `cache` and the caller reconciles.
  resched::Schedule SchedulePa(const resched::Instance& instance,
                               const resched::PaOptions& options,
                               resched::FloorplanCache* cache,
                               FloorplanModel* model);
  resched::PaRResult SchedulePaR(const resched::Instance& instance,
                                 const resched::PaROptions& options,
                                 resched::FloorplanCache* cache,
                                 FloorplanModel* model);

  /// Checks a cache's counters against its model: exact queries, and
  /// exact hits unless the cache evicted.
  void Reconcile(const resched::FloorplanCache& cache,
                 const FloorplanModel& model);

  /// Forgets the counters (after a warm-up); reconciliation state stays.
  void ResetCounts() {
    counts_ = MirrorCounts{};
    fp_totals_ = resched::FloorplanCacheStats{};
  }
  /// Reconciliation failures so far.
  const std::vector<std::string>& Mismatches() const { return mismatches_; }

  /// Per-layer values derived from the counters; `solves` is the
  /// workload's unit of work for the *_per_solve ratios.
  void AddMetrics(double solves, std::map<std::string, double>& values) const;

 private:
  Tracer& tracer_;
  MirrorCounts counts_;
  /// Cache counter deltas over this mirror's own queries.
  resched::FloorplanCacheStats fp_totals_;
  std::vector<std::string> mismatches_;
};

/// Schedule as JSON text without its wall-clock fields: equal texts mean
/// bit-identical schedules.
std::string ScheduleFingerprint(const resched::Instance& instance,
                                const resched::Schedule& schedule);

}  // namespace perfbench
