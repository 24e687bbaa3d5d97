// Tests for the floorplanning substrate: fabric queries, placement
// enumeration and the feasibility search.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>

#include "core/pa_scheduler.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "floorplan/floorplanner.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"
#include "util/timeline.hpp"

namespace resched {
namespace {

using testing::MakeSmallDevice;

FpgaDevice MakeTinyDevice() {
  // 6 columns x 2 rows: CLB CLB BRAM CLB CLB DSP (explicit layout).
  const ResourceModel model = MakeClbBramDspModel();
  FabricGeometry geom;
  geom.rows = 2;
  geom.columns = {
      ColumnSpec{0, 100}, ColumnSpec{0, 100}, ColumnSpec{1, 10},
      ColumnSpec{0, 100}, ColumnSpec{0, 100}, ColumnSpec{2, 20},
  };
  return FpgaDevice("tiny", model, std::move(geom));
}

// ---------------------------------------------------------------- fabric

TEST(FabricTest, RowSlicePrefixSums) {
  const Fabric fabric(MakeTinyDevice());
  EXPECT_EQ(fabric.Columns(), 6u);
  EXPECT_EQ(fabric.Rows(), 2u);
  EXPECT_EQ(fabric.RowSlice(0, 2), ResourceVec({200, 0, 0}));
  EXPECT_EQ(fabric.RowSlice(0, 3), ResourceVec({200, 10, 0}));
  EXPECT_EQ(fabric.RowSlice(2, 4), ResourceVec({200, 10, 20}));
  EXPECT_EQ(fabric.RowSlice(0, 6), ResourceVec({400, 10, 20}));
  EXPECT_EQ(fabric.RowSlice(3, 0), ResourceVec({0, 0, 0}));
}

TEST(FabricTest, RectScalesByHeight) {
  const Fabric fabric(MakeTinyDevice());
  EXPECT_EQ(fabric.RectResources(0, 3, 2), ResourceVec({400, 20, 0}));
}

TEST(FabricTest, CapacityMatchesDevice) {
  const FpgaDevice device = MakeTinyDevice();
  const Fabric fabric(device);
  EXPECT_EQ(fabric.Capacity(), device.Capacity());
  EXPECT_EQ(fabric.Capacity(), ResourceVec({800, 20, 40}));
}

TEST(FabricTest, OutOfRangeQueriesThrow) {
  const Fabric fabric(MakeTinyDevice());
  EXPECT_THROW((void)fabric.RowSlice(5, 3), InternalError);
  EXPECT_THROW((void)fabric.RectResources(0, 2, 5), InternalError);
}

// ---------------------------------------------------------------- Rect

TEST(RectTest, OverlapSemantics) {
  const Rect a{0, 0, 2, 2};
  EXPECT_TRUE(a.Overlaps(Rect{1, 1, 2, 2}));
  EXPECT_FALSE(a.Overlaps(Rect{2, 0, 2, 2}));  // touching edges do not overlap
  EXPECT_FALSE(a.Overlaps(Rect{0, 2, 2, 2}));
  EXPECT_TRUE(a.Overlaps(a));
}

// ---------------------------------------------------------------- placements

TEST(PlacementTest, FindsMinimalWidths) {
  const Fabric fabric(MakeTinyDevice());
  // 150 CLB at height 1 needs 2 CLB columns from col 0.
  const auto placements =
      EnumerateFeasiblePlacements(fabric, ResourceVec({150, 0, 0}));
  ASSERT_FALSE(placements.empty());
  for (const Rect& r : placements) {
    // Every returned placement must actually satisfy the requirement.
    EXPECT_TRUE(ResourceVec({150, 0, 0})
                    .FitsWithin(fabric.RectResources(r.col0, r.width,
                                                     r.height)));
  }
  // The minimal one: col0=0, width 2, height 1.
  bool found_minimal = false;
  for (const Rect& r : placements) {
    if (r.col0 == 0 && r.width == 2 && r.height == 1) found_minimal = true;
  }
  EXPECT_TRUE(found_minimal);
}

TEST(PlacementTest, BramRequirementForcesBramColumn) {
  const Fabric fabric(MakeTinyDevice());
  const auto placements =
      EnumerateFeasiblePlacements(fabric, ResourceVec({0, 5, 0}));
  ASSERT_FALSE(placements.empty());
  for (const Rect& r : placements) {
    // Must span column 2 (the only BRAM column).
    EXPECT_LE(r.col0, 2u);
    EXPECT_GT(r.col0 + r.width, 2u);
  }
}

TEST(PlacementTest, ImpossibleRequirementYieldsNothing) {
  const Fabric fabric(MakeTinyDevice());
  EXPECT_TRUE(
      EnumerateFeasiblePlacements(fabric, ResourceVec({10000, 0, 0})).empty());
  EXPECT_TRUE(
      EnumerateFeasiblePlacements(fabric, ResourceVec({0, 100, 0})).empty());
}

TEST(PlacementTest, WholeFabricRequirementHasOnePlacement) {
  const Fabric fabric(MakeTinyDevice());
  const auto placements =
      EnumerateFeasiblePlacements(fabric, ResourceVec({800, 20, 40}));
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].width, 6u);
  EXPECT_EQ(placements[0].height, 2u);
}

TEST(PlacementTest, CapIsRespected) {
  const Fabric fabric(MakeSmallDevice());
  const auto placements =
      EnumerateFeasiblePlacements(fabric, ResourceVec({100, 0, 0}), 5);
  EXPECT_EQ(placements.size(), 5u);
}

// ---------------------------------------------------------------- floorplanner

TEST(FloorplannerTest, EmptyRegionSetIsFeasible) {
  const auto result = FindFloorplan(MakeTinyDevice(), {});
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.rects.empty());
}

TEST(FloorplannerTest, SingleRegionFeasible) {
  const FpgaDevice device = MakeTinyDevice();
  const auto result = FindFloorplan(device, {ResourceVec({150, 0, 0})});
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(
      IsValidFloorplan(device, {ResourceVec({150, 0, 0})}, result.rects));
}

TEST(FloorplannerTest, TwoRegionsSideBySide) {
  const FpgaDevice device = MakeTinyDevice();
  const std::vector<ResourceVec> regions{ResourceVec({300, 0, 0}),
                                         ResourceVec({300, 0, 0})};
  const auto result = FindFloorplan(device, regions);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(IsValidFloorplan(device, regions, result.rects));
  EXPECT_FALSE(result.rects[0].Overlaps(result.rects[1]));
}

TEST(FloorplannerTest, AggregateOverflowIsInfeasible) {
  const FpgaDevice device = MakeTinyDevice();
  const std::vector<ResourceVec> regions{ResourceVec({500, 0, 0}),
                                         ResourceVec({500, 0, 0})};
  const auto result = FindFloorplan(device, regions);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.budget_exhausted);  // certain "no", not a timeout
}

TEST(FloorplannerTest, GeometricContentionDetected) {
  // Two regions that each need BRAM: the tiny device has ONE BRAM column
  // with 2 rows, so both must stack vertically over column 2 — each with
  // height 1. Each also needs 150 CLB which a 1-row slice around column 2
  // can provide (cols 0..4 at h=1 = 400 CLB). So this IS feasible.
  const FpgaDevice device = MakeTinyDevice();
  const std::vector<ResourceVec> both_bram{ResourceVec({150, 5, 0}),
                                           ResourceVec({150, 5, 0})};
  const auto ok = FindFloorplan(device, both_bram);
  ASSERT_TRUE(ok.feasible);
  EXPECT_TRUE(IsValidFloorplan(device, both_bram, ok.rects));

  // Three BRAM regions cannot fit over a 2-row single BRAM column even
  // though aggregate BRAM (15 <= 20) would allow it.
  const std::vector<ResourceVec> three{ResourceVec({100, 5, 0}),
                                       ResourceVec({100, 5, 0}),
                                       ResourceVec({100, 5, 0})};
  const auto bad = FindFloorplan(device, three);
  EXPECT_FALSE(bad.feasible);
}

TEST(FloorplannerTest, ManySmallRegionsOnZynq) {
  const FpgaDevice device = MakeXc7z020();
  std::vector<ResourceVec> regions(8, ResourceVec({800, 0, 0}));
  const auto result = FindFloorplan(device, regions);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(IsValidFloorplan(device, regions, result.rects));
}

TEST(FloorplannerTest, NodeBudgetReportsExhaustion) {
  const FpgaDevice device = MakeXc7z020();
  // Nearly fill the device so the search has to work, with a 1-node budget.
  std::vector<ResourceVec> regions(6, ResourceVec({2100, 20, 30}));
  FloorplanOptions options;
  options.max_nodes = 1;
  const auto result = FindFloorplan(device, regions, options);
  if (!result.feasible) {
    EXPECT_TRUE(result.budget_exhausted);
  }
}

TEST(FloorplannerTest, IsValidFloorplanRejectsBadInputs) {
  const FpgaDevice device = MakeTinyDevice();
  const std::vector<ResourceVec> regions{ResourceVec({150, 0, 0})};
  // Wrong count.
  EXPECT_FALSE(IsValidFloorplan(device, regions, {}));
  // Out of fabric.
  EXPECT_FALSE(
      IsValidFloorplan(device, regions, {Rect{5, 0, 3, 1}}));
  // Insufficient resources.
  EXPECT_FALSE(IsValidFloorplan(device, regions, {Rect{0, 0, 1, 1}}));
  // Degenerate rect.
  EXPECT_FALSE(IsValidFloorplan(device, regions, {Rect{0, 0, 0, 1}}));
  // Overlap between two rects.
  const std::vector<ResourceVec> two{ResourceVec({100, 0, 0}),
                                     ResourceVec({100, 0, 0})};
  EXPECT_FALSE(IsValidFloorplan(device, two,
                                {Rect{0, 0, 2, 1}, Rect{1, 0, 2, 1}}));
}

TEST(FloorplannerTest, ResultRectsMatchRegionOrder) {
  const FpgaDevice device = MakeTinyDevice();
  // One DSP-needing region, one BRAM-needing region: rects must cover the
  // right columns in the right order.
  const std::vector<ResourceVec> regions{ResourceVec({0, 0, 10}),
                                         ResourceVec({0, 5, 0})};
  const auto result = FindFloorplan(device, regions);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.rects.size(), 2u);
  const Fabric fabric(device);
  EXPECT_TRUE(regions[0].FitsWithin(fabric.RectResources(
      result.rects[0].col0, result.rects[0].width, result.rects[0].height)));
  EXPECT_TRUE(regions[1].FitsWithin(fabric.RectResources(
      result.rects[1].col0, result.rects[1].width, result.rects[1].height)));
}


// ------------------------------------------------- differential oracles
//
// Test-only copies of the pre-bitset forms of the two floorplan hot spots:
// the O(n^2) dominance prune and the candidate-by-candidate scan DFS.
// Production must match them exactly: catalogs, verdicts, rectangles and
// node counts, budget stops included.

/// For each placement, the index of the first other placement of the
/// list that it strictly contains (the list size when there is none), by
/// pairwise comparison. The pruned form of a prefix of the list keeps
/// placement i iff that index lies past the prefix.
std::vector<std::size_t> OracleFirstContained(
    const std::vector<Rect>& placements) {
  auto contains = [](const Rect& outer, const Rect& inner) {
    return outer.col0 <= inner.col0 && outer.row0 <= inner.row0 &&
           outer.col0 + outer.width >= inner.col0 + inner.width &&
           outer.row0 + outer.height >= inner.row0 + inner.height &&
           outer.Area() > inner.Area();
  };
  std::vector<std::size_t> first(placements.size(), placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    for (std::size_t j = 0; j < placements.size(); ++j) {
      if (contains(placements[i], placements[j])) {
        first[i] = j;
        break;
      }
    }
  }
  return first;
}

/// What a catalog entry must carry for `rects`, derived rectangle by
/// rectangle: per-rect footprints, their componentwise minimum, the
/// minimal area and the union of covered cells.
PlacementSet OraclePlacementSet(const Fabric& fabric,
                                const std::vector<Rect>& rects) {
  PlacementSet set;
  const std::size_t cols = fabric.Columns();
  set.rects = rects;
  set.union_mask.assign(timeline::WordsFor(cols * fabric.Rows()), 0);
  set.min_area = cols * fabric.Rows();
  set.min_res = fabric.Capacity();
  for (const Rect& r : rects) {
    for (std::size_t row = r.row0; row < r.row0 + r.height; ++row) {
      const std::size_t base = row * cols + r.col0;
      timeline::RangeSet(set.union_mask.data(), base, base + r.width);
    }
    const ResourceVec res = fabric.RectResources(r.col0, r.width, r.height);
    for (std::size_t k = 0; k < res.size(); ++k) {
      set.min_res[k] = std::min(set.min_res[k], res[k]);
      set.rect_res.push_back(res[k]);
    }
    set.min_area = std::min(set.min_area, r.Area());
  }
  if (rects.empty()) {
    set.min_res = fabric.Model().ZeroVec();
    set.min_area = 0;
  }
  return set;
}

/// The scan DFS: each candidate costs one `++nodes`, the budget is checked
/// whenever that lands on a multiple of 1024, and the area, per-kind,
/// clash (Rect::Overlaps against every placed rectangle) and union-mask
/// prunes reject candidates one at a time.
class ScanSearch {
 public:
  ScanSearch(const Fabric& fabric,
             const std::vector<const PlacementSet*>& candidates,
             const FloorplanOptions& options)
      : candidates_(candidates),
        options_(options),
        capacity_(fabric.Capacity()),
        columns_(fabric.Columns()),
        total_cells_(fabric.Columns() * fabric.Rows()),
        mask_words_(timeline::WordsFor(total_cells_)),
        kinds_(capacity_.size()) {}

  FloorplanResult Run() {
    FloorplanResult result;
    const std::size_t n = candidates_.size();
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return candidates_[a]->rects.size() <
                              candidates_[b]->rects.size();
                     });
    suffix_area_.assign(n + 1, 0);
    suffix_res_.assign((n + 1) * kinds_, 0);
    for (std::size_t d = n; d-- > 0;) {
      const PlacementSet& set = *candidates_[order_[d]];
      suffix_area_[d] = suffix_area_[d + 1] + set.min_area;
      for (std::size_t k = 0; k < kinds_; ++k) {
        suffix_res_[d * kinds_ + k] =
            suffix_res_[(d + 1) * kinds_ + k] + set.min_res[k];
      }
    }
    if (suffix_area_[0] > total_cells_) return result;
    for (std::size_t k = 0; k < kinds_; ++k) {
      if (suffix_res_[k] > capacity_[k]) return result;
    }
    chosen_.assign(n, Rect{});
    used_.assign((n + 1) * mask_words_, 0);
    consumed_.assign((n + 1) * kinds_, 0);
    result.feasible = Dfs(0, 0);
    result.budget_exhausted = exhausted_;
    result.nodes_explored = nodes_;
    if (result.feasible) result.rects = chosen_;
    return result;
  }

  /// Records up to `limit` distinct failed (depth, occupancy) states.
  void TrackFailedStates(std::size_t limit) { failed_limit_ = limit; }
  std::size_t DistinctFailedStates() const { return failed_.size(); }

 private:
  bool Dfs(std::size_t depth, std::size_t used_cells) {
    if (depth == order_.size()) return true;
    if (exhausted_) return false;
    const std::size_t region = order_[depth];
    const PlacementSet& set = *candidates_[region];
    const std::uint64_t* used = used_.data() + depth * mask_words_;
    std::uint64_t* next = used_.data() + (depth + 1) * mask_words_;
    const std::int64_t* consumed = consumed_.data() + depth * kinds_;
    const std::int64_t* suffix = suffix_res_.data() + (depth + 1) * kinds_;
    for (std::size_t j = 0; j < set.rects.size(); ++j) {
      const Rect& rect = set.rects[j];
      if (++nodes_ % 1024 == 0 && options_.max_nodes != 0 &&
          nodes_ >= options_.max_nodes) {
        exhausted_ = true;
        return false;
      }
      if (used_cells + rect.Area() + suffix_area_[depth + 1] > total_cells_) {
        continue;
      }
      bool over = false;
      for (std::size_t k = 0; k < kinds_ && !over; ++k) {
        over = consumed[k] + set.Footprint(j)[k] + suffix[k] > capacity_[k];
      }
      if (over) continue;
      bool clash = false;
      for (std::size_t d = 0; d < depth && !clash; ++d) {
        clash = rect.Overlaps(chosen_[order_[d]]);
      }
      if (clash) continue;
      std::copy_n(used, mask_words_, next);
      for (std::size_t row = rect.row0; row < rect.row0 + rect.height; ++row) {
        const std::size_t base = row * columns_ + rect.col0;
        timeline::RangeSet(next, base, base + rect.width);
      }
      bool barren = false;
      for (std::size_t d2 = depth + 1; d2 < order_.size() && !barren; ++d2) {
        const PlacementSet& rest = *candidates_[order_[d2]];
        std::size_t free_cells = 0;
        for (std::size_t w = 0; w < mask_words_; ++w) {
          free_cells += static_cast<std::size_t>(
              std::popcount(rest.union_mask[w] & ~next[w]));
        }
        barren = free_cells < rest.min_area;
      }
      if (barren) continue;
      chosen_[region] = rect;
      for (std::size_t k = 0; k < kinds_; ++k) {
        consumed_[(depth + 1) * kinds_ + k] = consumed[k] + set.Footprint(j)[k];
      }
      if (Dfs(depth + 1, used_cells + rect.Area())) return true;
      if (exhausted_) return false;
    }
    // A fully searched, failed subtree below the root: the kind of state
    // the production search memoizes.
    if (depth > 0 && failed_.size() < failed_limit_) {
      std::vector<std::uint64_t> key{depth};
      key.insert(key.end(), used, used + mask_words_);
      failed_.insert(std::move(key));
    }
    return false;
  }

  const std::vector<const PlacementSet*>& candidates_;
  const FloorplanOptions& options_;
  ResourceVec capacity_;
  std::size_t columns_;
  std::size_t total_cells_;
  std::size_t mask_words_;
  std::size_t kinds_;
  std::vector<std::size_t> order_;
  std::vector<Rect> chosen_;
  std::vector<std::size_t> suffix_area_;
  std::vector<std::int64_t> suffix_res_;
  std::vector<std::int64_t> consumed_;
  std::vector<std::uint64_t> used_;
  std::size_t nodes_ = 0;
  bool exhausted_ = false;
  std::size_t failed_limit_ = 0;
  std::set<std::vector<std::uint64_t>> failed_;
};

bool SameRect(const Rect& a, const Rect& b) {
  return a.col0 == b.col0 && a.row0 == b.row0 && a.width == b.width &&
         a.height == b.height;
}

bool SameRects(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameRect);
}

/// Every floorplan query deterministic PA makes on a paper-style suite,
/// region lists in canonical order: a twin of SchedulePa's §V-H shrink
/// loop that records what it asks. Checks the twin against SchedulePa's
/// own query count.
std::vector<std::vector<ResourceVec>> SuiteQueries(const Platform& platform,
                                                   std::size_t per_group) {
  SuiteSpec spec;
  spec.graphs_per_group = per_group;
  spec.base_seed = 3;
  PaOptions options;
  options.floorplan.time_budget_seconds = 0.0;
  std::vector<std::vector<ResourceVec>> queries;
  for (std::size_t n = spec.min_tasks; n <= spec.max_tasks; n += spec.step) {
    for (const Instance& inst : GenerateSuiteGroup(platform, spec, n)) {
      FloorplanCache cache(inst.platform.Device());
      Rng rng(options.seed);
      ResourceVec avail = inst.platform.Device().Capacity();
      std::size_t asked = 0;
      for (std::size_t round = 0; round <= options.max_shrink_rounds;
           ++round) {
        if (round == options.max_shrink_rounds) avail = avail.ScaledDown(0.0);
        const Schedule s = RunPaCore(inst, options, avail, rng);
        const std::vector<ResourceVec> regions = s.RegionRequirements();
        ++asked;
        std::vector<ResourceVec> canonical;
        for (const std::size_t i : CanonicalRegionOrder(regions)) {
          canonical.push_back(regions[i]);
        }
        if (!regions.empty()) queries.push_back(std::move(canonical));
        if (cache.Query(regions, options.floorplan).feasible) break;
        avail = avail.ScaledDown(options.shrink_factor);
      }
      EXPECT_EQ(asked, SchedulePa(inst, options).floorplan_cache.queries)
          << inst.name;
    }
  }
  return queries;
}

const std::vector<std::vector<ResourceVec>>& ZedSuiteQueries() {
  static const auto* queries = new std::vector<std::vector<ResourceVec>>(
      SuiteQueries(MakeZedBoard(), 3));
  return *queries;
}

struct FabricCase {
  const char* name;
  FpgaDevice (*make)();
};

void PrintTo(const FabricCase& fabric_case, std::ostream* os) {
  *os << fabric_case.name;
}

class CatalogOracleTest : public ::testing::TestWithParam<FabricCase> {};

/// Caps that end a list inside a same-height run: part-way through the
/// rows of the second and of the last start column of each height with
/// more than one row choice, so a candidate whose one-column-narrower
/// neighbour is cut off must survive.
std::vector<std::size_t> RunCuttingCaps(const std::vector<Rect>& raw,
                                        std::size_t rows) {
  std::vector<std::size_t> caps;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::size_t h = raw[i].height;
    const std::size_t choices = rows - h + 1;
    if (choices < 2 || (i > 0 && raw[i - 1].height == h)) continue;
    std::size_t end = i;
    while (end < raw.size() && raw[end].height == h) ++end;
    if (end - i >= 2 * choices) caps.push_back(i + choices + 1);
    if (end - i >= choices + 1) caps.push_back(end - choices + 1);
  }
  return caps;
}

TEST_P(CatalogOracleTest, MatchesQuadraticPruneAtEveryCap) {
  std::vector<ResourceVec> reqs;
  for (const auto& query : ZedSuiteQueries()) {
    reqs.insert(reqs.end(), query.begin(), query.end());
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const ResourceVec& a, const ResourceVec& b) {
              return LexicographicallyBefore(a, b);
            });
  reqs.erase(std::unique(reqs.begin(), reqs.end()), reqs.end());
  ASSERT_GT(reqs.size(), 50u);

  const FpgaDevice device = GetParam().make();
  const Fabric fabric(device);
  std::size_t pruned_some = 0;
  std::size_t run_cuts = 0;
  for (const ResourceVec& req : reqs) {
    const std::vector<Rect> full = EnumerateFeasiblePlacements(fabric, req, 0);
    const std::vector<std::size_t> first_contained =
        OracleFirstContained(full);
    std::vector<std::size_t> caps{0, 4096, 100, 37};
    const std::vector<std::size_t> cuts =
        RunCuttingCaps(full, fabric.Rows());
    caps.insert(caps.end(), cuts.begin(), cuts.end());
    run_cuts += cuts.size();
    for (const std::size_t cap : caps) {
      const std::vector<Rect> raw =
          EnumerateFeasiblePlacements(fabric, req, cap);
      // A capped list is a prefix of the full one.
      ASSERT_LE(raw.size(), full.size());
      ASSERT_TRUE(std::equal(raw.begin(), raw.end(), full.begin(), SameRect));
      std::vector<Rect> want;
      for (std::size_t i = 0; i < raw.size(); ++i) {
        if (first_contained[i] >= raw.size()) want.push_back(raw[i]);
      }
      const PlacementSet got = EnumeratePrunedPlacementSet(fabric, req, cap);
      ASSERT_TRUE(SameRects(got.rects, want))
          << device.Name() << " cap " << cap << " req " << req.ToString()
          << ": " << got.rects.size() << " kept vs oracle " << want.size();
      const PlacementSet derived = OraclePlacementSet(fabric, want);
      ASSERT_EQ(got.rect_res, derived.rect_res) << "cap " << cap;
      ASSERT_EQ(got.min_res, derived.min_res) << "cap " << cap;
      ASSERT_EQ(got.min_area, derived.min_area) << "cap " << cap;
      ASSERT_EQ(got.union_mask, derived.union_mask) << "cap " << cap;
      if (want.size() < raw.size()) ++pruned_some;
    }
  }
  EXPECT_GT(pruned_some, reqs.size());  // the prune really prunes
  EXPECT_GT(run_cuts, reqs.size());     // and the cut caps really cut
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, CatalogOracleTest,
    ::testing::Values(FabricCase{"ZedBoard", &MakeXc7z020},
                      FabricCase{"PynqZ1", &MakeXc7z010},
                      FabricCase{"Kintex7", &MakeKintex7_160},
                      FabricCase{"ZCU102", &MakeZu9eg}),
    [](const ::testing::TestParamInfo<FabricCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(FloorplanOracleTest, DfsMatchesScanSearchAtEveryBudget) {
  const FpgaDevice device = MakeXc7z020();
  FloorplanCache catalog(device);
  const Fabric& fabric = catalog.fabric();
  std::map<std::size_t, std::size_t> exhausted_at;
  std::map<std::size_t, std::size_t> stopped_in_replay_at;
  std::size_t feasible = 0;
  std::size_t searched = 0;
  std::size_t replayed = 0;
  for (const auto& query : ZedSuiteQueries()) {
    std::vector<std::shared_ptr<const PlacementSet>> owned;
    std::vector<const PlacementSet*> sets;
    for (const ResourceVec& req : query) {
      owned.push_back(catalog.Placements(req, 4096));
      sets.push_back(owned.back().get());
    }
    if (std::any_of(sets.begin(), sets.end(), [](const PlacementSet* s) {
          return s->rects.empty();
        })) {
      continue;  // no search runs: FloorplanCache answers "no" first
    }
    for (const std::size_t budget :
         {std::size_t{1024}, std::size_t{1025}, std::size_t{3000},
          std::size_t{100'000}, std::size_t{2'000'000}}) {
      FloorplanOptions options;
      options.time_budget_seconds = 0.0;
      options.max_nodes = budget;
      const FloorplanResult got =
          SolveFloorplanFeasibility(fabric, sets, options);
      const FloorplanResult want = ScanSearch(fabric, sets, options).Run();
      ASSERT_EQ(got.feasible, want.feasible) << "budget " << budget;
      ASSERT_EQ(got.budget_exhausted, want.budget_exhausted)
          << "budget " << budget;
      ASSERT_EQ(got.nodes_explored, want.nodes_explored) << "budget " << budget;
      ASSERT_TRUE(SameRects(got.rects, want.rects)) << "budget " << budget;
      ASSERT_LE(got.replayed_nodes, got.nodes_explored);
      ASSERT_TRUE(!got.stopped_in_replay || got.budget_exhausted);
      if (got.budget_exhausted) ++exhausted_at[budget];
      if (got.stopped_in_replay) ++stopped_in_replay_at[budget];
      if (got.feasible) ++feasible;
      if (got.nodes_explored > 0) ++searched;
      replayed += got.replayed_nodes;
    }
  }
  // Transposition replays fired, and budget stops landed inside replayed
  // subtrees, where only exact bulk accounting keeps the stop node.
  EXPECT_GT(replayed, 0u);
  for (const std::size_t budget :
       {std::size_t{3000}, std::size_t{100'000}, std::size_t{2'000'000}}) {
    EXPECT_GT(stopped_in_replay_at[budget], 0u) << "budget " << budget;
  }
  // The sample must exercise every outcome: budget stops at each budget,
  // found floorplans and searches that ran.
  for (const std::size_t budget :
       {std::size_t{1024}, std::size_t{1025}, std::size_t{3000},
        std::size_t{100'000}, std::size_t{2'000'000}}) {
    EXPECT_GT(exhausted_at[budget], 0u) << "budget " << budget;
  }
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(searched, 0u);
}

/// Test fabric of `rows` rows whose columns read left to right from
/// `layout`: 'C' a CLB column (100 per cell), 'D' a DSP column (20).
FpgaDevice MakeStripDevice(const std::string& layout, std::size_t rows) {
  FabricGeometry geom;
  geom.rows = rows;
  for (const char kind : layout) {
    geom.columns.push_back(kind == 'D' ? ColumnSpec{2, 20}
                                       : ColumnSpec{0, 100});
  }
  return FpgaDevice("strip", MakeClbBramDspModel(), std::move(geom));
}

/// Runs `sets` through SolveFloorplanFeasibility and the scan at budgets
/// 1024 through 2M and requires the same verdict and node count; returns
/// the 2M-budget result.
FloorplanResult ExpectScanAtEveryBudget(
    const Fabric& fabric, const std::vector<const PlacementSet*>& sets) {
  FloorplanResult last;
  for (const std::size_t budget :
       {std::size_t{1024}, std::size_t{1025}, std::size_t{3000},
        std::size_t{100'000}, std::size_t{2'000'000}}) {
    FloorplanOptions options;
    options.time_budget_seconds = 0.0;
    options.max_nodes = budget;
    last = SolveFloorplanFeasibility(fabric, sets, options);
    const FloorplanResult want = ScanSearch(fabric, sets, options).Run();
    EXPECT_EQ(last.feasible, want.feasible) << "budget " << budget;
    EXPECT_EQ(last.budget_exhausted, want.budget_exhausted)
        << "budget " << budget;
    EXPECT_EQ(last.nodes_explored, want.nodes_explored) << "budget " << budget;
    EXPECT_TRUE(SameRects(last.rects, want.rects)) << "budget " << budget;
  }
  return last;
}

TEST(FloorplanOracleTest, TranspositionsReplayExactly) {
  {
    // Eleven identical regions share one candidate list, so placing X
    // then Y and Y then X reach the same occupancy. The query is
    // infeasible, yet no root bound proves it.
    const FpgaDevice device = MakeStripDevice("DDCCCC", 6);
    const Fabric fabric(device);
    const PlacementSet set =
        EnumeratePrunedPlacementSet(fabric, ResourceVec({200, 0, 20}), 4096);
    ASSERT_FALSE(set.rects.empty());
    const std::vector<const PlacementSet*> sets(11, &set);
    const FloorplanResult proof = ExpectScanAtEveryBudget(fabric, sets);
    EXPECT_FALSE(proof.feasible);
    EXPECT_FALSE(proof.budget_exhausted);  // a full proof
    EXPECT_GT(proof.nodes_explored, 10'000u);
    EXPECT_GT(proof.replayed_nodes, proof.nodes_explored / 2);
  }
  {
    // A suite query whose 2M-node search fails more distinct states than
    // the memo holds: once the table is full the search runs on without
    // storing, and still matches the scan.
    const FpgaDevice device = MakeXc7z020();
    FloorplanCache catalog(device);
    bool found = false;
    for (const auto& query : ZedSuiteQueries()) {
      std::vector<std::shared_ptr<const PlacementSet>> owned;
      std::vector<const PlacementSet*> sets;
      for (const ResourceVec& req : query) {
        owned.push_back(catalog.Placements(req, 4096));
        sets.push_back(owned.back().get());
      }
      if (std::any_of(sets.begin(), sets.end(), [](const PlacementSet* s) {
            return s->rects.empty();
          })) {
        continue;
      }
      FloorplanOptions options;
      options.time_budget_seconds = 0.0;
      ScanSearch scan(catalog.fabric(), sets, options);
      scan.TrackFailedStates(kFloorplanMemoSlots + 1);
      (void)scan.Run();
      if (scan.DistinctFailedStates() <= kFloorplanMemoSlots) continue;
      const FloorplanResult last =
          ExpectScanAtEveryBudget(catalog.fabric(), sets);
      EXPECT_GT(last.replayed_nodes, 0u);
      found = true;
      break;
    }
    EXPECT_TRUE(found);
  }
}

TEST(FloorplanOracleTest, FindFloorplanMatchesScanSearch) {
  // The public entry point runs the same engine: same verdict, rectangles
  // (mapped back to query order) and node count as the scan.
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  FloorplanOptions options;
  options.time_budget_seconds = 0.0;
  options.max_nodes = 100'000;
  std::size_t checked = 0;
  for (const auto& query : ZedSuiteQueries()) {
    if (checked == 40) break;
    std::vector<PlacementSet> owned;
    for (const ResourceVec& req : query) {
      owned.push_back(EnumeratePrunedPlacementSet(fabric, req, 4096));
    }
    if (std::any_of(owned.begin(), owned.end(), [](const PlacementSet& s) {
          return s.rects.empty();
        })) {
      continue;
    }
    std::vector<const PlacementSet*> sets;
    for (const PlacementSet& set : owned) sets.push_back(&set);
    const FloorplanResult want = ScanSearch(fabric, sets, options).Run();
    // Reverse the canonical list: FindFloorplan must canonicalize it back.
    std::vector<ResourceVec> reversed(query.rbegin(), query.rend());
    const FloorplanResult got = FindFloorplan(device, reversed, options);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
    EXPECT_EQ(got.nodes_explored, want.nodes_explored);
    if (got.feasible) {
      EXPECT_TRUE(IsValidFloorplan(device, reversed, got.rects));
      const std::vector<std::size_t> order = CanonicalRegionOrder(reversed);
      for (std::size_t k = 0; k < order.size(); ++k) {
        EXPECT_TRUE(SameRect(got.rects[order[k]], want.rects[k]));
      }
    }
    ++checked;
  }
  EXPECT_EQ(checked, 40u);
}

}  // namespace
}  // namespace resched
