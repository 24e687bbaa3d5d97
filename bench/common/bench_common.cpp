#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/csv.hpp"
#include "util/timer.hpp"

namespace resched::bench {

BenchConfig LoadConfig() {
  BenchConfig config;
  if (const char* env = std::getenv("RESCHED_BENCH_SCALE")) {
    config.scale = std::atof(env);
    if (config.scale <= 0.0) config.scale = 1.0;
  }
  if (const char* env = std::getenv("RESCHED_BENCH_OUT")) {
    config.out_dir = env;
  }
  config.graphs_per_group = std::max<std::size_t>(
      1, static_cast<std::size_t>(10.0 * config.scale + 0.5));
  config.is5_node_budget = std::max<std::size_t>(
      1000, static_cast<std::size_t>(20'000.0 * config.scale));
  for (std::size_t n = 10; n <= 100; n += 10) {
    config.group_sizes.push_back(n);
  }
  config.suite.graphs_per_group = config.graphs_per_group;
  return config;
}

std::vector<Instance> Group(const BenchConfig& config,
                            std::size_t num_tasks) {
  return GenerateSuiteGroup(config.platform, config.suite, num_tasks);
}

LegRate RepeatLeg(const std::function<LegSample()>& leg, double min_seconds,
                  std::size_t reps) {
  LegRate out;
  std::vector<double> rates;
  for (std::size_t r = 0; r < reps; ++r) {
    LegSample rep;
    do {
      const LegSample call = leg();
      RESCHED_CHECK_MSG(call.seconds > 0.0, "bench leg reported no time");
      rep.ops += call.ops;
      rep.seconds += call.seconds;
      ++out.calls;
    } while (rep.seconds < min_seconds);
    rates.push_back(rep.ops / rep.seconds);
    out.ops += rep.ops;
    out.seconds += rep.seconds;
  }
  out.reps = rates.size();
  out.median = Median(rates);
  out.min = *std::min_element(rates.begin(), rates.end());
  out.max = *std::max_element(rates.begin(), rates.end());
  return out;
}

namespace {

void CheckValid(const Instance& instance, const Schedule& schedule) {
  const ValidationResult r = ValidateSchedule(instance, schedule);
  if (!r.ok()) {
    std::cerr << "FATAL: invalid " << schedule.algorithm << " schedule on "
              << instance.name << ": " << r.Summary() << "\n";
    std::abort();
  }
}

}  // namespace

std::vector<ComparisonRow> RunComparison(const BenchConfig& config,
                                         std::size_t num_tasks,
                                         const ComparisonSelect& select,
                                         double fallback_par_budget) {
  std::vector<ComparisonRow> rows;
  for (const Instance& instance : Group(config, num_tasks)) {
    ComparisonRow row;
    row.instance = instance.name;
    row.num_tasks = num_tasks;

    if (select.pa) {
      const Schedule pa = SchedulePa(instance);
      CheckValid(instance, pa);
      row.pa_makespan = pa.makespan;
      row.pa_sched_seconds = pa.scheduling_seconds;
      row.pa_floorplan_seconds = pa.floorplanning_seconds;
    }
    if (select.is1) {
      IskOptions o1;
      o1.k = 1;
      o1.node_budget = config.is1_node_budget;
      WallTimer timer;
      const Schedule is1 = ScheduleIsk(instance, o1);
      row.is1_seconds = timer.ElapsedSeconds();
      CheckValid(instance, is1);
      row.is1_makespan = is1.makespan;
    }
    if (select.is5) {
      IskOptions o5;
      o5.k = 5;
      o5.node_budget = config.is5_node_budget;
      WallTimer timer;
      const Schedule is5 = ScheduleIsk(instance, o5);
      row.is5_seconds = timer.ElapsedSeconds();
      CheckValid(instance, is5);
      row.is5_makespan = is5.makespan;
    }
    if (select.par) {
      PaROptions par_opt;
      par_opt.time_budget_seconds =
          select.is5 ? row.is5_seconds : fallback_par_budget;
      par_opt.seed = 0xBADC0DE;
      const PaRResult par = SchedulePaR(instance, par_opt);
      // The warm start guarantees a result.
      CheckValid(instance, par.best);
      row.par_makespan = par.best.makespan;
      row.par_seconds = par.seconds;
    }
    rows.push_back(row);
  }
  return rows;
}

double ImprovementPercent(TimeT baseline, TimeT ours) {
  if (baseline <= 0) return 0.0;
  return 100.0 * static_cast<double>(baseline - ours) /
         static_cast<double>(baseline);
}

std::string WriteCsv(const BenchConfig& config, const std::string& name,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<std::string>>& rows) {
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  const std::string path = config.out_dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return path;
  }
  CsvWriter csv(out);
  csv.WriteRow(header);
  for (const auto& row : rows) csv.WriteRow(row);
  std::cout << "[csv] " << path << "\n";
  return path;
}

void PrintRow(const std::vector<std::string>& cells, std::size_t width) {
  for (const std::string& cell : cells) {
    std::cout << PadLeft(cell, width);
  }
  std::cout << "\n";
}

}  // namespace resched::bench
