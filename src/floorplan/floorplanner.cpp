#include "floorplan/floorplanner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "util/check.hpp"
#include "util/timeline.hpp"
#include "util/timer.hpp"

namespace resched {

namespace {

void SetBit(std::uint64_t* words, std::size_t i) {
  words[i / timeline::kWordBits] |= std::uint64_t{1}
                                    << (i % timeline::kWordBits);
}

/// Candidates of one region whose value is at most a bound, for every
/// bound: `bits` row t holds the candidates with value <= values[t]
/// (`values` sorted, distinct). Bit j stands for the region's rects[j].
struct Threshold {
  std::vector<std::int64_t> values;
  std::vector<std::uint64_t> bits;

  void Build(const std::vector<std::int64_t>& per_candidate,
             std::size_t words) {
    values = per_candidate;
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    bits.assign(values.size() * words, 0);
    for (std::size_t j = 0; j < per_candidate.size(); ++j) {
      const std::size_t t = static_cast<std::size_t>(
          std::lower_bound(values.begin(), values.end(), per_candidate[j]) -
          values.begin());
      SetBit(bits.data() + t * words, j);
    }
    for (std::size_t t = 1; t < values.size(); ++t) {
      timeline::OrInto(bits.data() + t * words, bits.data() + (t - 1) * words,
                       words);
    }
  }

  /// The candidates with value <= `bound`; nullptr when there are none.
  const std::uint64_t* AtMost(std::int64_t bound, std::size_t words) const {
    const auto it = std::upper_bound(values.begin(), values.end(), bound);
    if (it == values.begin()) return nullptr;
    return bits.data() +
           static_cast<std::size_t>(it - values.begin() - 1) * words;
  }
};

/// Candidates of one region whose span on one axis meets [a, b), for every
/// a and b: the span [s, e) of candidate j meets it iff s < b and e > a, so
/// the answer is starts_before(b) & ends_after(a). Rows 0..n of `bits` are
/// starts_before, rows n+1..2n+1 are ends_after.
struct SpanCover {
  std::size_t n = 0;
  std::vector<std::uint64_t> bits;

  void Build(const std::vector<Rect>& rects, bool columns, std::size_t extent,
             std::size_t words) {
    n = extent;
    bits.assign(2 * (n + 1) * words, 0);
    for (std::size_t j = 0; j < rects.size(); ++j) {
      const std::size_t s = columns ? rects[j].col0 : rects[j].row0;
      const std::size_t e = s + (columns ? rects[j].width : rects[j].height);
      SetBit(bits.data() + (s + 1) * words, j);
      SetBit(bits.data() + (n + 1 + e - 1) * words, j);
    }
    for (std::size_t b = 1; b <= n; ++b) {
      timeline::OrInto(bits.data() + b * words, bits.data() + (b - 1) * words,
                       words);
    }
    for (std::size_t a = n; a-- > 0;) {
      timeline::OrInto(bits.data() + (n + 1 + a) * words,
                       bits.data() + (n + 2 + a) * words, words);
    }
  }

  const std::uint64_t* StartsBefore(std::size_t b, std::size_t words) const {
    return bits.data() + b * words;
  }
  const std::uint64_t* EndsAfter(std::size_t a, std::size_t words) const {
    return bits.data() + (n + 1 + a) * words;
  }
};

/// The bitset domain of one candidate list, built per query (never stored
/// in the catalog, whose entries stay at their PlacementSet size).
///
/// The tables cost a sort per value column, far more than a query that
/// touches the region a few times spends on it. So a domain answers its
/// first kTablesAfterUses requests by scanning its live candidates and
/// builds the tables on the next one. Both ways yield the same bitsets.
class Domain {
 public:
  static constexpr std::size_t kTablesAfterUses = 32;

  Domain(const Fabric& fabric, const PlacementSet& set)
      : fabric_(&fabric),
        set_(&set),
        words_(timeline::WordsFor(set.rects.size())) {}

  std::size_t Words() const { return words_; }

  /// out = the candidates of `live` whose area is at most `area_slack` and
  /// whose kind-k footprint is at most kind_slack[k], for every kind k.
  void Pass(const std::uint64_t* live, std::int64_t area_slack,
            const std::int64_t* kind_slack, std::uint64_t* out) {
    const std::size_t kinds = fabric_->Capacity().size();
    if (!UseTables()) {
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t pass = 0;
        for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
          const int b = std::countr_zero(bits);
          const std::size_t j = w * timeline::kWordBits +
                                static_cast<std::size_t>(b);
          bool fits =
              static_cast<std::int64_t>(set_->rects[j].Area()) <= area_slack;
          const std::int64_t* footprint = set_->Footprint(j);
          for (std::size_t k = 0; k < kinds && fits; ++k) {
            fits = footprint[k] <= kind_slack[k];
          }
          if (fits) pass |= std::uint64_t{1} << b;
        }
        out[w] = pass;
      }
      return;
    }
    std::array<const std::uint64_t*, kMaxResourceKinds + 1> at_most{};
    at_most[0] = limits_[0].AtMost(area_slack, words_);
    bool any = at_most[0] != nullptr;
    for (std::size_t k = 0; k < kinds && any; ++k) {
      at_most[k + 1] = limits_[k + 1].AtMost(kind_slack[k], words_);
      any = at_most[k + 1] != nullptr;
    }
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = any ? live[w] : 0;
      for (std::size_t t = 0; t <= kinds && bits != 0; ++t) {
        bits &= at_most[t][w];
      }
      out[w] = bits;
    }
  }

  /// dst = src minus the candidates that overlap `placed`.
  void Restrict(const std::uint64_t* src, const Rect& placed,
                std::uint64_t* dst) {
    if (!UseTables()) {
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t keep = src[w];
        for (std::uint64_t bits = src[w]; bits != 0; bits &= bits - 1) {
          const int b = std::countr_zero(bits);
          const Rect& r =
              set_->rects[w * timeline::kWordBits + static_cast<std::size_t>(b)];
          if (r.col0 < placed.col0 + placed.width &&
              r.col0 + r.width > placed.col0 &&
              r.row0 < placed.row0 + placed.height &&
              r.row0 + r.height > placed.row0) {
            keep &= ~(std::uint64_t{1} << b);
          }
        }
        dst[w] = keep;
      }
      return;
    }
    const std::uint64_t* c_before =
        cols_.StartsBefore(placed.col0 + placed.width, words_);
    const std::uint64_t* c_after = cols_.EndsAfter(placed.col0, words_);
    const std::uint64_t* r_before =
        rows_.StartsBefore(placed.row0 + placed.height, words_);
    const std::uint64_t* r_after = rows_.EndsAfter(placed.row0, words_);
    for (std::size_t w = 0; w < words_; ++w) {
      dst[w] =
          src[w] & ~(c_before[w] & c_after[w] & r_before[w] & r_after[w]);
    }
  }

 private:
  /// Counts one request; true once the tables exist (building them on the
  /// request that crosses kTablesAfterUses).
  bool UseTables() {
    if (tables_) return true;
    if (++uses_ <= kTablesAfterUses) return false;
    BuildTables();
    return true;
  }

  void BuildTables() {
    const std::vector<Rect>& rects = set_->rects;
    const std::size_t count = rects.size();
    cols_.Build(rects, /*columns=*/true, fabric_->Columns(), words_);
    rows_.Build(rects, /*columns=*/false, fabric_->Rows(), words_);
    const std::size_t kinds = fabric_->Capacity().size();
    limits_.resize(kinds + 1);
    std::vector<std::int64_t> values(count);
    for (std::size_t j = 0; j < count; ++j) {
      values[j] = static_cast<std::int64_t>(rects[j].Area());
    }
    limits_[0].Build(values, words_);
    for (std::size_t k = 0; k < kinds; ++k) {
      for (std::size_t j = 0; j < count; ++j) {
        values[j] = set_->Footprint(j)[k];
      }
      limits_[k + 1].Build(values, words_);
    }
    tables_ = true;
  }

  const Fabric* fabric_;
  const PlacementSet* set_;
  std::size_t words_ = 0;
  std::size_t uses_ = 0;
  bool tables_ = false;
  SpanCover cols_;
  SpanCover rows_;
  /// limits_[0] bounds the rectangle area in cells, limits_[1 + k] the
  /// footprint in resource kind k.
  std::vector<Threshold> limits_;
};

/// Failed-subtree memo of the DFS: (depth, occupancy image) -> the node
/// count of a subtree that was searched to the end without success.
///
/// That pair fixes everything below it: a candidate is live iff it misses
/// the image, consumption per kind and used cells are sums over the
/// image's cells, and the union-mask prune reads only the image. So a
/// failed subtree fails again from the same key, after exactly as many
/// nodes. One table per thread serves every query that thread runs: a
/// query starts a new generation, which hides older entries without
/// clearing them, so a query that never fails a subtree pays nothing. A
/// full probe window stores nothing; a replay is only ever a shortcut.
class TranspositionTable {
 public:
  static constexpr std::size_t kSlots = kFloorplanMemoSlots;
  static_assert(std::has_single_bit(kSlots));
  static constexpr std::size_t kProbes = 4;

  /// Starts a query whose images are `words` words long.
  void Begin(std::size_t words) {
    ++generation_;
    words_ = words;
  }

  static std::uint64_t Hash(std::size_t depth, const std::uint64_t* image,
                            std::size_t words) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL * (depth + 1);
    for (std::size_t w = 0; w < words; ++w) {
      h = (h ^ image[w]) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// The stored node count of (depth, image), or 0 when there is none (a
  /// failed subtree always counts its region's candidates, so >= 1).
  std::size_t Find(std::uint64_t hash, std::size_t depth,
                   const std::uint64_t* image) const {
    if (slots_.empty()) return 0;
    for (std::size_t p = 0; p < kProbes; ++p) {
      const std::size_t i = (hash + p) & (kSlots - 1);
      const Slot& slot = slots_[i];
      if (slot.generation == generation_ && slot.hash == hash &&
          slot.depth == depth &&
          std::equal(image, image + words_, images_.data() + i * words_)) {
        return slot.nodes;
      }
    }
    return 0;
  }

  void Store(std::uint64_t hash, std::size_t depth,
             const std::uint64_t* image, std::size_t nodes) {
    if (slots_.empty()) slots_.resize(kSlots);
    if (images_.size() < kSlots * words_) images_.resize(kSlots * words_);
    for (std::size_t p = 0; p < kProbes; ++p) {
      const std::size_t i = (hash + p) & (kSlots - 1);
      Slot& slot = slots_[i];
      if (slot.generation == generation_) continue;
      slot = Slot{generation_, hash, depth, nodes};
      std::copy_n(image, words_, images_.data() + i * words_);
      return;
    }
  }

 private:
  struct Slot {
    std::uint64_t generation = 0;
    std::uint64_t hash = 0;
    std::size_t depth = 0;
    std::size_t nodes = 0;
  };

  std::uint64_t generation_ = 0;
  std::size_t words_ = 0;
  std::vector<Slot> slots_;
  /// Image of slot i at [i * words_, (i + 1) * words_).
  std::vector<std::uint64_t> images_;
};

/// The §V-H feasibility DFS over bitset domains. At each depth the region's
/// *live set* holds its candidates that clash with no placed rectangle
/// (maintained on descent); AND-ing it with the area and per-kind
/// threshold sets gives the *pass set*, the candidates that survive every
/// prune but the union-mask one. The DFS walks the pass set in ascending
/// index order.
///
/// Node accounting contract: every candidate counts as one node whether it
/// passes or not, in index order, and the node/time budget is checked at
/// every multiple of kCheckEvery nodes, stopping there. A subtree replayed
/// from the TranspositionTable counts its recorded nodes the same way. So
/// the search visits, reports and stops exactly as a
/// candidate-by-candidate scan with `if (++nodes % kCheckEvery == 0)
/// check()` would.
class Search {
 public:
  static constexpr std::size_t kCheckEvery = 1024;

  Search(const Fabric& fabric,
         const std::vector<const PlacementSet*>& candidates,
         const FloorplanOptions& options)
      : fabric_(fabric),
        candidates_(candidates),
        options_(options),
        capacity_(fabric.Capacity()),
        deadline_(options.time_budget_seconds),
        columns_(fabric.Columns()),
        total_cells_(fabric.Columns() * fabric.Rows()),
        mask_words_(timeline::WordsFor(total_cells_)),
        kinds_(capacity_.size()) {}

  /// Runs the DFS; fills `solution` (indexed like candidates_) on success.
  bool Run(std::vector<Rect>& solution, bool& budget_exhausted,
           std::size_t& nodes) {
    const std::size_t n = candidates_.size();
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    // MRV: most constrained region (fewest placements) first. Stable, so
    // the search tree is a pure function of the candidate-list sequence
    // (the canonicalization contract of the header).
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return candidates_[a]->rects.size() <
                              candidates_[b]->rects.size();
                     });
    budget_exhausted = false;
    nodes = 0;

    // Suffix sums of minimum areas in search order: after placing depth d
    // regions, the rest need at least suffix_min_area_[d] free cells.
    suffix_min_area_.assign(n + 1, 0);
    for (std::size_t d = n; d-- > 0;) {
      suffix_min_area_[d] =
          suffix_min_area_[d + 1] + candidates_[order_[d]]->min_area;
    }
    if (suffix_min_area_[0] > total_cells_) return false;  // proven "no"

    // Per-kind analogue over the candidates' minimum resource footprints.
    // Each rectangle consumes at least min_res of its region (a footprint
    // always covers the requirement), and rectangles never overlap, so
    // consumption is additive per kind — a suffix that exceeds capacity
    // in any kind is a certain "no". Strictly stronger than the aggregate
    // requirement pre-check because min footprints exceed requirements.
    suffix_min_res_.assign((n + 1) * kinds_, 0);
    for (std::size_t d = n; d-- > 0;) {
      const ResourceVec& mr = candidates_[order_[d]]->min_res;
      for (std::size_t k = 0; k < kinds_; ++k) {
        suffix_min_res_[d * kinds_ + k] =
            suffix_min_res_[(d + 1) * kinds_ + k] + mr[k];
      }
    }
    for (std::size_t k = 0; k < kinds_; ++k) {
      if (suffix_min_res_[k] > capacity_[k]) return false;  // proven "no"
    }

    BuildDomains();
    chosen_.assign(n, Rect{});
    // Occupancy image per depth: row d holds the cells of the first d
    // placed rectangles, so backtracking needs no undo.
    used_stack_.assign((n + 1) * mask_words_, 0);
    consumed_stack_.assign((n + 1) * kinds_, 0);

    memo_.Begin(mask_words_);
    const bool ok = Dfs(0, /*used_cells=*/0);
    budget_exhausted = budget_exhausted_;
    nodes = nodes_;
    if (ok) solution = chosen_;
    return ok;
  }

  std::size_t ReplayedNodes() const { return replayed_nodes_; }
  bool StoppedInReplay() const { return stopped_in_replay_; }

 private:
  /// Builds one Domain per distinct candidate list (duplicate regions share
  /// their list) and the depth-0 live sets: every candidate.
  void BuildDomains() {
    const std::size_t n = order_.size();
    domain_of_.resize(n);
    live_offset_.resize(n);
    live_words_ = 0;
    domains_.reserve(n);
    for (std::size_t d = 0; d < n; ++d) {
      const PlacementSet* set = candidates_[order_[d]];
      std::size_t found = domains_.size();
      for (std::size_t e = 0; e < d; ++e) {
        if (candidates_[order_[e]] == set) found = domain_of_[e];
      }
      if (found == domains_.size()) domains_.emplace_back(fabric_, *set);
      domain_of_[d] = found;
      live_offset_[d] = live_words_;
      live_words_ += domains_[found].Words();
    }
    live_.assign((n + 1) * live_words_, 0);
    pass_.assign(live_words_, 0);
    for (std::size_t d = 0; d < n; ++d) {
      timeline::RangeSet(live_.data() + live_offset_[d], 0,
                         candidates_[order_[d]]->rects.size());
    }
  }

  /// Counts the next `count` candidates as visited nodes; false (with
  /// budget_exhausted_ set and nodes_ on the multiple where the check
  /// fired) when the budget runs out on the way. The node budget stops on
  /// the first crossed multiple >= max_nodes, as a per-multiple check
  /// would; the clock is read once, and an expired deadline stops on the
  /// first crossed multiple.
  bool CountNodes(std::size_t count) {
    const std::size_t target = nodes_ + count;
    const std::size_t first = (nodes_ / kCheckEvery + 1) * kCheckEvery;
    if (first > target) {
      nodes_ = target;
      return true;
    }
    std::size_t stop = target + 1;  // no node-budget stop in this run
    if (options_.max_nodes != 0) {
      stop = std::max(first, (options_.max_nodes + kCheckEvery - 1) /
                                 kCheckEvery * kCheckEvery);
    }
    if (stop != first && deadline_.Expired()) stop = first;
    if (stop <= target) {
      nodes_ = stop;
      budget_exhausted_ = true;
      return false;
    }
    nodes_ = target;
    return true;
  }

  /// Credits the node count the memo holds for state (depth, image), if
  /// any; true when it did.
  bool Replay(std::uint64_t key, std::size_t depth,
              const std::uint64_t* image) {
    const std::size_t stored = memo_.Find(key, depth, image);
    if (stored == 0) return false;
    const std::size_t before = nodes_;
    stopped_in_replay_ = !CountNodes(stored);
    replayed_nodes_ += nodes_ - before;
    return true;
  }

  /// next = used plus the cells of `rect`, which the live set guarantees
  /// to be free.
  void Occupy(const Rect& rect, const std::uint64_t* used,
              std::uint64_t* next) const {
    std::copy_n(used, mask_words_, next);
    for (std::size_t row = rect.row0; row < rect.row0 + rect.height; ++row) {
      const std::size_t base = row * columns_ + rect.col0;
      RESCHED_DCHECK_MSG(!timeline::RangeAny(used, base, base + rect.width),
                         "live set holds a clashing candidate");
      timeline::RangeSet(next, base, base + rect.width);
    }
  }

  /// Union-mask prune: a remaining region whose candidate-cell union
  /// retains fewer free cells than its minimum footprint has no live
  /// candidate left, so the subtree under `image` is barren. (Sound and
  /// order-preserving: only subtrees with no full assignment are cut.)
  bool Barren(std::size_t depth, const std::uint64_t* image) const {
    for (std::size_t d2 = depth + 1; d2 < order_.size(); ++d2) {
      const PlacementSet& rest = *candidates_[order_[d2]];
      std::size_t free_cells = 0;
      for (std::size_t w = 0; w < mask_words_; ++w) {
        free_cells += static_cast<std::size_t>(
            std::popcount(rest.union_mask[w] & ~image[w]));
      }
      if (free_cells < rest.min_area) return true;
    }
    return false;
  }

  bool Dfs(std::size_t depth, std::size_t used_cells) {
    if (depth == order_.size()) return true;
    if (budget_exhausted_) return false;
    const std::size_t region = order_[depth];
    const PlacementSet& set = *candidates_[region];
    Domain& domain = domains_[domain_of_[depth]];
    const std::uint64_t* used = used_stack_.data() + depth * mask_words_;
    std::uint64_t* next = used_stack_.data() + (depth + 1) * mask_words_;
    const std::int64_t* consumed = consumed_stack_.data() + depth * kinds_;
    const std::int64_t* suffix = suffix_min_res_.data() + (depth + 1) * kinds_;

    // Pass set = live & (area <= area slack) & (kind-k footprint <= kind-k
    // slack) for every k. Area and per-kind consumption are additive
    // because rectangles never overlap, and every remaining region needs
    // at least its minimum. Each depth owns its slot of pass_, which
    // deeper levels never write.
    std::array<std::int64_t, kMaxResourceKinds> kind_slack{};
    for (std::size_t k = 0; k < kinds_; ++k) {
      kind_slack[k] = capacity_[k] - consumed[k] - suffix[k];
    }
    std::uint64_t* pass = pass_.data() + live_offset_[depth];
    domain.Pass(live_.data() + depth * live_words_ + live_offset_[depth],
                static_cast<std::int64_t>(total_cells_) -
                    static_cast<std::int64_t>(used_cells +
                                              suffix_min_area_[depth + 1]),
                kind_slack.data(), pass);

    std::size_t counted = 0;  // candidates [0, counted) are already nodes
    for (std::size_t w = 0; w < domain.Words(); ++w) {
      std::uint64_t bits = pass[w];
      while (bits != 0) {
        const std::size_t j =
            w * timeline::kWordBits +
            static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (!CountNodes(j + 1 - counted)) return false;
        counted = j + 1;
        const Rect& rect = set.rects[j];
        Occupy(rect, used, next);
        if (Barren(depth, next)) continue;
        // Only inner states are memoized (a full assignment never fails).
        // A replay skips the live-set updates too.
        const bool inner = depth + 1 < order_.size();
        const std::uint64_t key =
            inner ? TranspositionTable::Hash(depth + 1, next, mask_words_)
                  : 0;
        if (inner && Replay(key, depth + 1, next)) {
          if (budget_exhausted_) return false;
          continue;
        }
        chosen_[region] = rect;
        std::int64_t* next_consumed =
            consumed_stack_.data() + (depth + 1) * kinds_;
        for (std::size_t k = 0; k < kinds_; ++k) {
          next_consumed[k] = consumed[k] + set.Footprint(j)[k];
        }
        // Live sets one level down: drop what clashes with `rect`.
        const std::uint64_t* live = live_.data() + depth * live_words_;
        std::uint64_t* live_next = live_.data() + (depth + 1) * live_words_;
        for (std::size_t d2 = depth + 1; d2 < order_.size(); ++d2) {
          domains_[domain_of_[d2]].Restrict(live + live_offset_[d2], rect,
                                            live_next + live_offset_[d2]);
        }
        const std::size_t before = nodes_;
        if (Dfs(depth + 1, used_cells + rect.Area())) return true;
        if (budget_exhausted_) return false;
        if (inner) memo_.Store(key, depth + 1, next, nodes_ - before);
      }
    }
    CountNodes(set.rects.size() - counted);
    return false;
  }

  const Fabric& fabric_;
  const std::vector<const PlacementSet*>& candidates_;
  const FloorplanOptions& options_;
  ResourceVec capacity_;
  Deadline deadline_;
  std::size_t columns_ = 0;
  std::size_t total_cells_ = 0;
  std::size_t mask_words_ = 0;
  std::size_t kinds_ = 0;
  std::vector<std::size_t> order_;
  std::vector<Rect> chosen_;
  std::vector<std::size_t> suffix_min_area_;
  std::vector<std::int64_t> suffix_min_res_;
  std::vector<std::int64_t> consumed_stack_;
  std::vector<std::uint64_t> used_stack_;
  /// Domains, the domain of each depth, and the live sets: row d of live_
  /// (live_words_ words) holds, at live_offset_[d2], depth d2's live set
  /// given the rectangles placed at depths < d.
  std::vector<Domain> domains_;
  std::vector<std::size_t> domain_of_;
  std::vector<std::size_t> live_offset_;
  std::size_t live_words_ = 0;
  std::vector<std::uint64_t> live_;
  std::vector<std::uint64_t> pass_;  ///< pass set of depth d at live_offset_[d]
  std::size_t nodes_ = 0;
  bool budget_exhausted_ = false;
  TranspositionTable& memo_ = ThreadTable();
  std::size_t replayed_nodes_ = 0;
  bool stopped_in_replay_ = false;

  static TranspositionTable& ThreadTable() {
    thread_local TranspositionTable table;
    return table;
  }
};

}  // namespace

std::vector<std::size_t> CanonicalRegionOrder(
    const std::vector<ResourceVec>& regions) {
  std::vector<std::size_t> order(regions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return LexicographicallyBefore(regions[a], regions[b]);
                   });
  return order;
}

PlacementSet EnumeratePrunedPlacementSet(const Fabric& fabric,
                                         const ResourceVec& req,
                                         std::size_t max_placements) {
  const std::size_t rows = fabric.Rows();
  const std::size_t cols = fabric.Columns();
  const std::size_t kinds = fabric.Capacity().size();
  std::array<const std::int64_t*, kMaxResourceKinds> prefix{};
  for (std::size_t k = 0; k < kinds; ++k) prefix[k] = fabric.KindPrefix(k);

  // The grid: end_of[(h - 1) * cols + c] = E[h][c], the least exclusive
  // end column e > c for which columns [c, e) over h rows cover `req`.
  // Dropping a leading column never adds resources, so E[h][.] is
  // non-decreasing and its defined entries form a prefix of
  // feasible_cols[h - 1] start columns; adding a row never removes any,
  // so E[.][c] is non-increasing. One two-pointer pass per height.
  std::vector<std::size_t> end_of(rows * cols, 0);
  std::vector<std::size_t> feasible_cols(rows, 0);
  for (std::size_t h = 1; h <= rows; ++h) {
    const auto height = static_cast<std::int64_t>(h);
    const auto covers = [&](std::size_t c, std::size_t e) {
      for (std::size_t k = 0; k < kinds; ++k) {
        if (req[k] > height * (prefix[k][e] - prefix[k][c])) return false;
      }
      return true;
    };
    std::size_t* row_ends = end_of.data() + (h - 1) * cols;
    std::size_t e = 0;
    std::size_t c = 0;
    for (; c < cols; ++c) {
      e = std::max(e, c + 1);
      while (e <= cols && !covers(c, e)) ++e;
      if (e > cols) break;
      row_ends[c] = e;
    }
    feasible_cols[h - 1] = c;
  }

  // EnumerateFeasiblePlacements emits (c, r, h) for every defined E[h][c]
  // in (h, c, r) order, the first max_placements of them. Candidate
  // (c, r, h) strictly contains another emitted candidate iff
  //   * E[h - 1][c] == E[h][c]: (c, r, h - 1) has the same columns, one
  //     row fewer, and precedes it; or
  //   * E[h][c + 1] == E[h][c] and (c + 1, r, h) is emitted: the same rows,
  //     one column fewer.
  // Any other contained rectangle would start at c' >= c and end at
  // E[h'][c'] >= E[h - 1][c] > E[h][c] (h' < h) or at E[h][c'] > E[h][c]
  // (h' = h, c' > c + 1 past the run of equal ends). So per (h, c) the
  // survivors are one run of rows [row_begin, row_end).
  struct GridRun {
    std::size_t height, col0, end, row_begin, row_end;
  };
  std::vector<GridRun> runs;
  runs.reserve(rows * cols);
  const std::size_t limit = max_placements == 0 ? SIZE_MAX : max_placements;
  // Rows of the (c, ., h) block at enumeration index `index` under the cap.
  const auto capped_rows = [limit](std::size_t index, std::size_t choices) {
    return index >= limit ? std::size_t{0} : std::min(choices, limit - index);
  };
  std::size_t kept = 0;
  std::size_t first = 0;  // enumeration index of (c, 0, h)
  for (std::size_t h = 1; h <= rows && first < limit; ++h) {
    const std::size_t row_choices = rows - h + 1;
    const std::size_t* row_ends = end_of.data() + (h - 1) * cols;
    const std::size_t* shorter =
        h > 1 ? end_of.data() + (h - 2) * cols : nullptr;
    for (std::size_t c = 0; c < feasible_cols[h - 1] && first < limit;
         ++c, first += row_choices) {
      const std::size_t e = row_ends[c];
      if (h > 1 && c < feasible_cols[h - 2] && shorter[c] == e) continue;
      const std::size_t row_end = capped_rows(first, row_choices);
      const std::size_t row_begin =
          c + 1 < feasible_cols[h - 1] && row_ends[c + 1] == e
              ? capped_rows(first + row_choices, row_choices)
              : 0;
      if (row_begin >= row_end) continue;
      runs.push_back(GridRun{h, c, e, row_begin, row_end});
      kept += row_end - row_begin;
    }
  }

  // Emit the survivors in enumeration order. Every row of one (h, c)
  // shares its footprint, and the union mask is a per-row column
  // coverage count (+1 at a run's first column, -1 past its last).
  PlacementSet set;
  set.rects.reserve(kept);
  set.rect_res.reserve(kept * kinds);
  set.min_res = fabric.Capacity();
  set.min_area = cols * rows;
  std::vector<std::int32_t> cover(rows * (cols + 1), 0);
  std::array<std::int64_t, kMaxResourceKinds> footprint{};
  for (const GridRun& run : runs) {
    const std::size_t width = run.end - run.col0;
    for (std::size_t k = 0; k < kinds; ++k) {
      footprint[k] = static_cast<std::int64_t>(run.height) *
                     (prefix[k][run.end] - prefix[k][run.col0]);
      set.min_res[k] = std::min(set.min_res[k], footprint[k]);
    }
    set.min_area = std::min(set.min_area, width * run.height);
    for (std::size_t r = run.row_begin; r < run.row_end; ++r) {
      set.rects.push_back(Rect{run.col0, r, width, run.height});
      set.rect_res.insert(
          set.rect_res.end(), footprint.begin(),
          footprint.begin() + static_cast<std::ptrdiff_t>(kinds));
    }
    for (std::size_t row = run.row_begin; row < run.row_end - 1 + run.height;
         ++row) {
      ++cover[row * (cols + 1) + run.col0];
      --cover[row * (cols + 1) + run.end];
    }
  }
  set.union_mask.assign(timeline::WordsFor(cols * rows), 0);
  for (std::size_t row = 0; row < rows; ++row) {
    std::int32_t depth = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      depth += cover[row * (cols + 1) + c];
      if (depth > 0) SetBit(set.union_mask.data(), row * cols + c);
    }
  }
  if (set.rects.empty()) {
    set.min_res = fabric.Model().ZeroVec();
    set.min_area = 0;
  }
  return set;
}

FloorplanResult SolveFloorplanFeasibility(
    const Fabric& fabric, const std::vector<const PlacementSet*>& candidates,
    const FloorplanOptions& options) {
  FloorplanResult result;
  Search search(fabric, candidates, options);
  std::vector<Rect> solution;
  const bool ok =
      search.Run(solution, result.budget_exhausted, result.nodes_explored);
  result.feasible = ok;
  result.replayed_nodes = search.ReplayedNodes();
  result.stopped_in_replay = search.StoppedInReplay();
  if (ok) result.rects = std::move(solution);
  return result;
}

FloorplanResult FindFloorplan(const FpgaDevice& device,
                              const std::vector<ResourceVec>& regions,
                              const FloorplanOptions& options) {
  WallTimer timer;
  FloorplanResult result;
  if (regions.empty()) {
    result.feasible = true;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  const Fabric fabric(device);

  // Aggregate-capacity pre-check: cheap certain "no".
  ResourceVec total = device.Model().ZeroVec();
  for (const ResourceVec& r : regions) total += r;
  if (!total.FitsWithin(fabric.Capacity())) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Canonical order: the search result becomes a pure function of the
  // requirement multiset, so cached answers can be replayed bit-for-bit
  // against any permutation of the same regions.
  const std::vector<std::size_t> order = CanonicalRegionOrder(regions);

  std::vector<PlacementSet> owned;
  owned.reserve(regions.size());
  for (const std::size_t i : order) {
    PlacementSet placements = EnumeratePrunedPlacementSet(
        fabric, regions[i], options.max_placements_per_region);
    if (placements.rects.empty()) {
      result.seconds = timer.ElapsedSeconds();
      return result;  // some region fits nowhere: certain "no"
    }
    owned.push_back(std::move(placements));
  }
  std::vector<const PlacementSet*> candidates;
  candidates.reserve(owned.size());
  for (const PlacementSet& c : owned) candidates.push_back(&c);

  FloorplanResult canonical =
      SolveFloorplanFeasibility(fabric, candidates, options);
  result.feasible = canonical.feasible;
  result.budget_exhausted = canonical.budget_exhausted;
  result.nodes_explored = canonical.nodes_explored;
  result.replayed_nodes = canonical.replayed_nodes;
  result.stopped_in_replay = canonical.stopped_in_replay;
  if (canonical.feasible) {
    result.rects.resize(regions.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      result.rects[order[k]] = canonical.rects[k];
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

namespace {

/// Branch-and-bound minimizing total occupied cells. Reuses the candidate
/// enumeration of the feasibility search; candidates are visited smallest
/// first so the first full assignment is already good and the suffix
/// min-area bound prunes aggressively.
class CompactSearch {
 public:
  CompactSearch(std::vector<std::vector<Rect>> candidates,
                const FloorplanOptions& options)
      : candidates_(std::move(candidates)),
        options_(options),
        deadline_(options.time_budget_seconds) {
    for (auto& c : candidates_) {
      std::sort(c.begin(), c.end(), [](const Rect& a, const Rect& b) {
        return a.Area() < b.Area();
      });
    }
    order_.resize(candidates_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a,
                                                std::size_t b) {
      return candidates_[a].size() < candidates_[b].size();
    });
    suffix_min_area_.assign(order_.size() + 1, 0);
    for (std::size_t d = order_.size(); d-- > 0;) {
      std::size_t min_area = SIZE_MAX;
      for (const Rect& r : candidates_[order_[d]]) {
        min_area = std::min(min_area, r.Area());
      }
      suffix_min_area_[d] = suffix_min_area_[d + 1] + min_area;
    }
    chosen_.assign(candidates_.size(), Rect{});
  }

  bool Run(std::vector<Rect>& solution, std::size_t& cells,
           bool& budget_exhausted, std::size_t& nodes) {
    Dfs(0, 0);
    budget_exhausted = budget_exhausted_;
    nodes = nodes_;
    if (best_cells_ == SIZE_MAX) return false;
    solution = best_;
    cells = best_cells_;
    return true;
  }

 private:
  void Dfs(std::size_t depth, std::size_t used_cells) {
    if (depth == order_.size()) {
      if (used_cells < best_cells_) {
        best_cells_ = used_cells;
        best_ = chosen_;
      }
      return;
    }
    if (budget_exhausted_) return;
    const std::size_t region = order_[depth];
    for (const Rect& rect : candidates_[region]) {
      if (++nodes_ % 1024 == 0) {
        if ((options_.max_nodes != 0 && nodes_ >= options_.max_nodes) ||
            deadline_.Expired()) {
          budget_exhausted_ = true;
          return;
        }
      }
      const std::size_t lower =
          used_cells + rect.Area() + suffix_min_area_[depth + 1];
      if (lower >= best_cells_) {
        // Candidates are area-sorted: every later one is at least as big.
        break;
      }
      bool clash = false;
      for (std::size_t d = 0; d < depth; ++d) {
        if (rect.Overlaps(chosen_[order_[d]])) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      chosen_[region] = rect;
      Dfs(depth + 1, used_cells + rect.Area());
      if (budget_exhausted_) return;
    }
  }

  std::vector<std::vector<Rect>> candidates_;
  const FloorplanOptions& options_;
  Deadline deadline_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> suffix_min_area_;
  std::vector<Rect> chosen_;
  std::vector<Rect> best_;
  std::size_t best_cells_ = SIZE_MAX;
  std::size_t nodes_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace

CompactFloorplanResult FindCompactFloorplan(
    const FpgaDevice& device, const std::vector<ResourceVec>& regions,
    const FloorplanOptions& options) {
  WallTimer timer;
  CompactFloorplanResult result;
  if (regions.empty()) {
    result.feasible = true;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  const Fabric fabric(device);
  ResourceVec total = device.Model().ZeroVec();
  for (const ResourceVec& r : regions) total += r;
  if (!total.FitsWithin(fabric.Capacity())) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  std::vector<std::vector<Rect>> candidates;
  candidates.reserve(regions.size());
  for (const ResourceVec& req : regions) {
    PlacementSet placements = EnumeratePrunedPlacementSet(
        fabric, req, options.max_placements_per_region);
    if (placements.rects.empty()) {
      result.seconds = timer.ElapsedSeconds();
      return result;
    }
    candidates.push_back(std::move(placements.rects));
  }
  CompactSearch search(std::move(candidates), options);
  std::vector<Rect> solution;
  result.feasible = search.Run(solution, result.occupied_cells,
                               result.budget_exhausted,
                               result.nodes_explored);
  if (result.feasible) result.rects = std::move(solution);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

bool IsValidFloorplan(const FpgaDevice& device,
                      const std::vector<ResourceVec>& regions,
                      const std::vector<Rect>& rects) {
  if (regions.size() != rects.size()) return false;
  const Fabric fabric(device);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Rect& r = rects[i];
    if (r.width == 0 || r.height == 0) return false;
    if (r.col0 + r.width > fabric.Columns()) return false;
    if (r.row0 + r.height > fabric.Rows()) return false;
    if (!regions[i].FitsWithin(
            fabric.RectResources(r.col0, r.width, r.height))) {
      return false;
    }
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      if (r.Overlaps(rects[j])) return false;
    }
  }
  return true;
}

}  // namespace resched
