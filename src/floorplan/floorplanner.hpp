// Floorplan feasibility search (§V-H).
//
// Given the reconfigurable regions produced by the scheduler (their resource
// requirement vectors), decide whether they admit a placement of pairwise
// non-overlapping rectangles on the device fabric. The paper delegates this
// to the MILP floorplanner of [Rabozzi FCCM'15] with no objective function —
// a pure feasibility query. We answer the same query with a complete
// backtracking search over the enumerated minimal feasible placements:
// regions are ordered fewest-candidates-first (MRV) and the search prunes on
// per-kind remaining capacity. A node/time budget bounds the worst case, in
// which case the result is reported as "not found" (matching how a
// time-limited MILP behaves).
//
// Canonicalization contract: FindFloorplan internally reorders the regions
// into the canonical order of CanonicalRegionOrder() before searching and
// maps the rectangles back, so the result is a pure function of the region
// requirement *multiset* (plus the budget options). That property is what
// lets FloorplanCache serve permuted queries from one entry bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "floorplan/placement.hpp"

namespace resched {

struct FloorplanOptions {
  /// Wall-clock budget for one feasibility query; <= 0 disables.
  double time_budget_seconds = 1.0;
  /// Backtracking node budget; 0 disables.
  std::size_t max_nodes = 2'000'000;
  /// Cap on enumerated placements per region (0 = unlimited).
  std::size_t max_placements_per_region = 4096;
};

struct FloorplanResult {
  bool feasible = false;
  /// True when the search exhausted its node/time budget before proving
  /// either feasibility or infeasibility.
  bool budget_exhausted = false;
  /// One rectangle per region (same order as the query) when feasible.
  std::vector<Rect> rects;
  std::size_t nodes_explored = 0;
  /// Part of nodes_explored credited by replaying failed subtrees from
  /// the transposition memo instead of searching them.
  std::size_t replayed_nodes = 0;
  /// True when the budget stop fell inside such a replay.
  bool stopped_in_replay = false;
  double seconds = 0.0;
};

/// Hit/miss/eviction counters of a FloorplanCache (snapshot; see
/// floorplan/floorplan_cache.hpp). Lives here so Schedule/PaRResult can
/// embed it without pulling in the cache itself.
struct FloorplanCacheStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t catalog_hits = 0;
  std::uint64_t catalog_misses = 0;
  /// DFS nodes explored by cache-miss solves (budget-bounded work the
  /// cache could not avoid).
  std::uint64_t solve_nodes = 0;
  /// Cache-miss solves that stopped on their node or time budget.
  std::uint64_t budget_exhausted = 0;
  /// Part of solve_nodes credited by transposition replays.
  std::uint64_t replayed_nodes = 0;

  double HitRate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(queries);
  }

  /// Counter delta since an `earlier` snapshot of the same cache — how a
  /// driver attributes activity on a shared cache to one schedule.
  FloorplanCacheStats Since(const FloorplanCacheStats& earlier) const {
    FloorplanCacheStats d;
    d.queries = queries - earlier.queries;
    d.hits = hits - earlier.hits;
    d.misses = misses - earlier.misses;
    d.evictions = evictions - earlier.evictions;
    d.catalog_hits = catalog_hits - earlier.catalog_hits;
    d.catalog_misses = catalog_misses - earlier.catalog_misses;
    d.solve_nodes = solve_nodes - earlier.solve_nodes;
    d.budget_exhausted = budget_exhausted - earlier.budget_exhausted;
    d.replayed_nodes = replayed_nodes - earlier.replayed_nodes;
    return d;
  }
};

/// Searches for a feasible floorplan of `regions` on `device`'s fabric.
FloorplanResult FindFloorplan(const FpgaDevice& device,
                              const std::vector<ResourceVec>& regions,
                              const FloorplanOptions& options = {});

/// Canonical processing order of a region-requirement list: indices of
/// `regions` stably sorted by LexicographicallyBefore. Two permutations of
/// the same multiset map to the same canonical sequence.
std::vector<std::size_t> CanonicalRegionOrder(
    const std::vector<ResourceVec>& regions);

/// A region's candidate list plus what the DFS reads about it. Built once
/// per catalog entry and shared by every query; per-query search tables
/// live in the DFS, so a catalog entry costs only these fields.
struct PlacementSet {
  std::vector<Rect> rects;
  /// Per-rect resource footprint, one value per resource kind: what
  /// rects[k] actually consumes of each fabric resource kind, always
  /// componentwise >= the region requirement it was enumerated for.
  /// Read through Footprint().
  std::vector<std::int64_t> rect_res;
  /// Componentwise minimum of the footprints over all candidates: the
  /// least any placement of this region can consume per kind. Basis of
  /// the DFS per-kind capacity suffix prune.
  ResourceVec min_res;
  /// Word-packed cell mask (bit row * Columns() + col) of every fabric
  /// cell some candidate covers. If fewer than `min_area` of those cells
  /// remain free, no candidate of this region can be placed.
  std::vector<std::uint64_t> union_mask;
  /// Minimum rectangle area over all candidates, in grid cells.
  std::size_t min_area = 0;

  /// Footprint of rects[k]: min_res.size() values, one per resource kind.
  const std::int64_t* Footprint(std::size_t k) const {
    return rect_res.data() + k * min_res.size();
  }
};

/// Candidate enumeration + dominance pruning for one requirement — the
/// unit the PlacementCatalog memoizes. `rects` is
/// EnumerateFeasiblePlacements(fabric, req, max_placements) minus every
/// placement that strictly contains another one of that list, in
/// enumeration order; the other fields are derived from those rects.
/// Built on the (height, start column) grid of minimal end columns, not
/// rectangle by rectangle (DESIGN.md §13).
PlacementSet EnumeratePrunedPlacementSet(const Fabric& fabric,
                                         const ResourceVec& req,
                                         std::size_t max_placements);

/// Backtracking engine under FindFloorplan and FloorplanCache: solves the
/// pairwise non-overlap selection over externally owned per-region
/// candidate lists (one pointer per region, all non-null and non-empty,
/// each built by EnumeratePrunedPlacementSet on `fabric`). `result.rects`
/// is indexed like `candidates`. Deterministic: depends only on the
/// candidate lists, their order and the budget options — not on
/// wall-clock time unless the time budget fires.
///
/// Regions are searched fewest-candidates-first; each region's candidates
/// in catalog order. Every candidate tried counts one node in
/// `nodes_explored`, and the node/time budget is checked at every 1024th
/// node. The search keeps bitset domains per query (see DESIGN.md §13) so
/// that pruned candidates cost a word operation, not a scan step, and
/// replays the node count of a subtree it already failed from the same
/// (depth, occupancy) state instead of searching it again; the nodes it
/// reports are still those of the one-at-a-time scan.
FloorplanResult SolveFloorplanFeasibility(
    const Fabric& fabric,
    const std::vector<const PlacementSet*>& candidates,
    const FloorplanOptions& options);

/// Entries of the per-thread failed-subtree memo SolveFloorplanFeasibility
/// replays from (DESIGN.md §13); a query that fails more distinct states
/// keeps the first ones it stores and searches the rest.
inline constexpr std::size_t kFloorplanMemoSlots = 4096;

/// Optimizing variant: among floorplans found within the budget, keeps the
/// one occupying the fewest grid cells (the compactness objective of the
/// original MILP floorplanner — less footprint leaves more static logic
/// room and shrinks partial bitstreams in practice). `feasible` is set as
/// for FindFloorplan; `budget_exhausted` means the returned plan may not
/// be the global optimum. Total-cell count of the result is reported in
/// `nodes_explored`-independent field `occupied_cells`.
struct CompactFloorplanResult : FloorplanResult {
  std::size_t occupied_cells = 0;
};
CompactFloorplanResult FindCompactFloorplan(
    const FpgaDevice& device, const std::vector<ResourceVec>& regions,
    const FloorplanOptions& options = {});

/// Checks that `rects` is a valid floorplan for `regions` (non-overlap,
/// inside the fabric, resource-sufficient). Used by the validator and tests.
bool IsValidFloorplan(const FpgaDevice& device,
                      const std::vector<ResourceVec>& regions,
                      const std::vector<Rect>& rects);

}  // namespace resched
