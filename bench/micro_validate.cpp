// Micro-benchmark for the validator overlap scan (ISSUE-6): full-schedule
// validations/second, comparing
//
//   interval — the sort-and-scan exclusivity check on every target
//              (fast_scan=false, the pre-ISSUE-6 code path),
//   bitset   — the word-packed bit-timeline proof that skips the scan on
//              provably clash-free targets (fast_scan=true, the default).
//
// Both legs validate the same PA-R schedules and must produce identical
// violation lists (the fast path falls back to the interval scan on any
// clash); the harness aborts on the first disagreement, so a speedup here
// can never hide a behaviour change. Schedules are valid by construction,
// which is the common case the fast path optimizes: production callers
// (reschedd admission, bench harnesses, the simulator) validate mostly
// valid schedules, where the scan is pure proof-of-absence work. Each leg
// repeats its batch of validations until 50 ms have accumulated, three
// times over, and reports the median rate with its min and max
// (RepeatLeg).
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

using namespace resched;
using namespace resched::bench;

int main() {
  const BenchConfig config = LoadConfig();
  const auto reps = static_cast<std::size_t>(
      std::max(40.0, 400.0 * config.scale));
  std::cout << "=== micro_validate: validator throughput (" << reps
            << " validations/batch, batches repeated to 50 ms, median of 3)"
               " ===\n";

  std::vector<std::vector<std::string>> csv_rows;
  double speedup_product = 1.0;
  std::size_t speedup_count = 0;
  for (const std::size_t n : {20u, 40u, 80u, 100u}) {
    const Instance instance = Group(config, n).front();

    // One representative PA-R schedule per size; the validator, not the
    // scheduler, is under test here.
    PaROptions opt;
    opt.max_iterations = 8;
    opt.time_budget_seconds = 0.0;
    opt.threads = 1;
    opt.seed = 2016;
    const PaRResult result = SchedulePaR(instance, opt);
    if (!result.found) {
      std::cerr << "FATAL: no schedule found for " << instance.name << "\n";
      return 1;
    }
    const Schedule& schedule = result.best;

    std::cout << "\n-- " << instance.name << " (" << n << " tasks, "
              << schedule.regions.size() << " regions) --\n";
    PrintRow({"scan", "validations/s", "min-max", "violations"});

    ValidationOptions vopt;
    vopt.fast_scan = false;
    const ValidationResult reference =
        ValidateSchedule(instance, schedule, vopt);
    vopt.fast_scan = true;
    const ValidationResult fast = ValidateSchedule(instance, schedule, vopt);
    if (fast.violations != reference.violations) {
      std::cerr << "FATAL: scan disagreement on " << instance.name
                << "\ninterval: " << reference.Summary()
                << "\nbitset:   " << fast.Summary() << "\n";
      return 1;
    }

    double interval_rate = 0.0;
    for (const bool fast_scan : {false, true}) {
      vopt.fast_scan = fast_scan;
      // Warm-up validation outside the timed region.
      (void)ValidateSchedule(instance, schedule, vopt);
      std::size_t violations = 0;
      const LegRate leg = RepeatLeg([&] {
        WallTimer timer;
        for (std::size_t r = 0; r < reps; ++r) {
          violations += ValidateSchedule(instance, schedule, vopt)
                            .violations.size();
        }
        return LegSample{static_cast<double>(reps), timer.ElapsedSeconds()};
      });
      const double rate = leg.median;
      const char* name = fast_scan ? "bitset" : "interval";
      if (!fast_scan) interval_rate = rate;

      PrintRow({name, StrFormat("%.0f", rate),
                StrFormat("%.0f-%.0f", leg.min, leg.max),
                std::to_string(violations)});
      csv_rows.push_back({instance.name, std::to_string(n), name,
                          StrFormat("%.0f", leg.ops),
                          StrFormat("%.6f", leg.seconds),
                          StrFormat("%.1f", rate),
                          std::to_string(violations),
                          simd::BackendName(simd::ActiveBackend()),
                          std::to_string(leg.reps),
                          StrFormat("%.1f", leg.min),
                          StrFormat("%.1f", leg.max)});
      if (fast_scan && interval_rate > 0.0) {
        const double speedup = rate / interval_rate;
        std::cout << "   speedup vs interval scan: "
                  << StrFormat("%.2fx", speedup) << "\n";
        speedup_product *= speedup;
        ++speedup_count;
      }
    }
  }
  WriteCsv(config, "micro_validate",
           {"instance", "num_tasks", "scan", "validations", "seconds",
            "validations_per_sec", "violations", "simd", "reps", "rate_min",
            "rate_max"},
           csv_rows);
  if (speedup_count > 0) {
    std::cout << "\ngeomean speedup (bitset vs interval): "
              << StrFormat("%.2fx",
                           std::pow(speedup_product,
                                    1.0 / static_cast<double>(speedup_count)))
              << "\n";
  }
  std::cout << "Expectation: the bitset proof validates valid schedules "
               "faster than the interval scan, with identical violation "
               "lists on every schedule.\n";
  return 0;
}
