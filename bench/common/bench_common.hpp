// Shared infrastructure for the per-table/per-figure benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper's §VII
// on the synthetic suite (10 groups x graphs_per_group pseudo-random task
// graphs, 10..100 tasks, ZedBoard target). Absolute numbers differ from
// the paper (different hardware, MILPs replaced by exact searches — see
// DESIGN.md), but each harness prints the same rows/series the paper
// reports so the shapes can be compared directly.
//
// Environment knobs:
//   RESCHED_BENCH_SCALE   (default 1.0) scales graphs_per_group (x10) and
//                         the IS-5 node budget; use 0.2 for a quick pass.
//   RESCHED_BENCH_OUT     output directory for CSV dumps (default
//                         "bench_results").
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "arch/zynq.hpp"
#include "baseline/isk_scheduler.hpp"
#include "core/pa_scheduler.hpp"
#include "core/randomized.hpp"
#include "sched/validator.hpp"
#include "taskgraph/generator.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace resched::bench {

struct BenchConfig {
  double scale = 1.0;
  std::size_t graphs_per_group = 10;
  std::vector<std::size_t> group_sizes;  ///< {10, 20, ..., 100}
  std::size_t is5_node_budget = 20'000;
  std::size_t is1_node_budget = 0;  ///< exhaustive (k=1 is cheap)
  std::string out_dir = "bench_results";
  Platform platform = MakeZedBoard();
  SuiteSpec suite;
};

/// Reads RESCHED_BENCH_SCALE / RESCHED_BENCH_OUT and builds the config.
BenchConfig LoadConfig();

/// The suite group for one size (deterministic).
std::vector<Instance> Group(const BenchConfig& config, std::size_t num_tasks);

/// Per-instance results of all four §VII algorithms.
struct ComparisonRow {
  std::string instance;
  std::size_t num_tasks = 0;
  TimeT pa_makespan = 0;
  TimeT par_makespan = 0;
  TimeT is1_makespan = 0;
  TimeT is5_makespan = 0;
  double pa_sched_seconds = 0.0;
  double pa_floorplan_seconds = 0.0;
  double is1_seconds = 0.0;
  double is5_seconds = 0.0;
  double par_seconds = 0.0;  ///< budget actually used (== IS-5 time)
};

/// Which algorithms RunComparison should execute.
struct ComparisonSelect {
  bool pa = true;
  bool par = false;
  bool is1 = false;
  bool is5 = false;
};

/// Runs the selected algorithms over one suite group, validating every
/// schedule (aborts loudly on a validator violation — a benchmark over
/// invalid schedules would be meaningless). PA-R gets the measured IS-5
/// time as its budget (the paper's equal-budget protocol); when IS-5 is
/// not selected, PA-R uses `fallback_par_budget` seconds.
std::vector<ComparisonRow> RunComparison(const BenchConfig& config,
                                         std::size_t num_tasks,
                                         const ComparisonSelect& select,
                                         double fallback_par_budget = 0.5);

/// Percent improvement of `ours` over `baseline` (positive = we are
/// faster), as plotted in Figs. 3-5.
double ImprovementPercent(TimeT baseline, TimeT ours);

/// Writes rows as CSV under config.out_dir (creating the directory); also
/// returns the path. Failures are reported but non-fatal.
std::string WriteCsv(const BenchConfig& config, const std::string& name,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<std::string>>& rows);

/// Prints a right-aligned text table row.
void PrintRow(const std::vector<std::string>& cells, std::size_t width = 14);

/// One call of a timed bench leg: how many operations it ran and the
/// seconds they took (the leg times itself, so set-up it does not want to
/// count stays out).
struct LegSample {
  double ops = 0.0;
  double seconds = 0.0;
};

/// Rate of a leg repeated to a minimum duration. A leg of a few
/// milliseconds swings several-fold between identical runs, so each
/// repetition calls the leg until `min_seconds` of timed work have
/// accumulated, and the reported rate is the median over the repetitions.
struct LegRate {
  double median = 0.0;  ///< ops/s
  double min = 0.0;
  double max = 0.0;
  std::size_t reps = 0;
  std::size_t calls = 0;  ///< leg calls over all repetitions
  double ops = 0.0;       ///< summed over all calls
  double seconds = 0.0;   ///< summed over all calls
};

LegRate RepeatLeg(const std::function<LegSample()>& leg,
                  double min_seconds = 0.05, std::size_t reps = 3);

}  // namespace resched::bench
