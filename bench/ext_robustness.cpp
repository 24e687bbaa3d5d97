// Extension: schedule robustness under execution-time jitter and faults.
//
// The paper evaluates nominal makespans only; a deployed system sees
// per-frame variation and fabric faults. Part 1 Monte-Carlo-replays the
// PA, PA-R and IS-5 schedules through the discrete-event simulator with
// multiplicative task/reconfiguration jitter and reports the mean and
// 95th-percentile stretch (simulated / nominal makespan) per algorithm.
// Part 2 sweeps a scalar fault rate (sim::UniformFaultRates) over the PA
// schedules and reports, per recovery policy, the survival rate and the
// mean/p95 degraded stretch of the surviving runs. Every part-2
// as-executed schedule is re-checked by the independent validator with
// the scenario's outage windows; an invalid schedule or a stalled replay
// aborts the run with exit status 1.
#include <iostream>

#include "bench_common.hpp"
#include "sched/recovery.hpp"
#include "sched/validator.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"

using namespace resched;
using namespace resched::bench;

namespace {

struct Robustness {
  RunningStat stretch;
  std::vector<double> samples;
};

void Sample(const Instance& instance, const Schedule& schedule,
            double jitter, std::size_t trials, Robustness& out) {
  for (std::size_t i = 0; i < trials; ++i) {
    sim::SimOptions opt;
    opt.task_jitter = jitter;
    opt.reconf_jitter = jitter;
    opt.seed = DeriveSeed(kJitterSeedStream, i);
    const sim::SimResult r = sim::Simulate(instance, schedule, opt);
    out.stretch.Add(r.stretch);
    out.samples.push_back(r.stretch);
  }
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  const std::size_t n = 40;
  const double jitter = 0.25;
  const std::size_t trials = 50;

  std::cout << "=== Extension: robustness under ±25% execution-time jitter "
               "(n=" << n << ", " << trials << " trials/instance, suite "
               "scale " << config.scale << ") ===\n";
  PrintRow({"algorithm", "mean stretch", "p95 stretch"});

  Robustness pa_r, par_r, is5_r;
  for (const Instance& instance : Group(config, n)) {
    const Schedule pa = SchedulePa(instance);
    Sample(instance, pa, jitter, trials, pa_r);

    PaROptions par_opt;
    par_opt.time_budget_seconds = 0.2 * config.scale + 0.05;
    par_opt.seed = 11;
    const PaRResult par = SchedulePaR(instance, par_opt);
    Sample(instance, par.best, jitter, trials, par_r);

    IskOptions is5;
    is5.k = 5;
    is5.node_budget = config.is5_node_budget;
    const Schedule is = ScheduleIsk(instance, is5);
    Sample(instance, is, jitter, trials, is5_r);
  }

  std::vector<std::vector<std::string>> csv_rows;
  auto report = [&](const char* name, Robustness& r) {
    const double p95 = Percentile(r.samples, 95.0);
    PrintRow({name, StrFormat("%.3f", r.stretch.Mean()),
              StrFormat("%.3f", p95)});
    csv_rows.push_back({name, StrFormat("%.4f", r.stretch.Mean()),
                        StrFormat("%.4f", p95)});
  };
  report("PA", pa_r);
  report("PA-R", par_r);
  report("IS-5", is5_r);

  WriteCsv(config, "ext_robustness",
           {"algorithm", "mean_stretch", "p95_stretch"}, csv_rows);
  std::cout << "\nStretch < 1 means the event-driven replay compacts "
               "schedule slack faster than jitter consumes it.\n";

  // --- Part 2: fault-rate sweep over the PA schedules. The same seeded
  // scenarios are replayed under each recovery policy, so rows at one
  // rate differ only in how the runtime reacts.
  const std::size_t fault_trials = 30;
  std::cout << "\n=== Extension: fault-rate sweep (PA schedules, "
            << fault_trials << " trials/instance/rate) ===\n";
  PrintRow({"fault rate", "policy", "survival", "mean stretch",
            "p95 stretch"});

  std::vector<Instance> instances;
  std::vector<Schedule> pa_schedules;
  for (const Instance& instance : Group(config, n)) {
    instances.push_back(instance);
    pa_schedules.push_back(SchedulePa(instance));
  }

  const std::pair<RecoveryPolicy, const char*> policies[] = {
      {RecoveryPolicy::kRetry, "retry"},
      {RecoveryPolicy::kSoftwareFallback, "swfallback"},
      {RecoveryPolicy::kSuffixReschedule, "suffix"}};
  std::vector<std::vector<std::string>> fault_csv;
  for (const double rate : {0.05, 0.15, 0.30}) {
    for (const auto& [policy, policy_name] : policies) {
      std::size_t survived = 0;
      std::size_t total = 0;
      RunningStat stretch;
      std::vector<double> samples;
      std::size_t trial = 0;
      for (std::size_t k = 0; k < instances.size(); ++k) {
        for (std::size_t i = 0; i < fault_trials; ++i, ++trial) {
          sim::SimOptions opt;
          opt.task_jitter = jitter;
          opt.reconf_jitter = jitter;
          opt.seed = DeriveSeed(kJitterSeedStream, trial);
          opt.faults = sim::GenerateFaultScenario(
              pa_schedules[k], sim::UniformFaultRates(rate),
              DeriveSeed(kFaultSeedStream, trial));
          opt.recovery.policy = policy;
          ++total;
          sim::SimResult r;
          try {
            r = sim::Simulate(instances[k], pa_schedules[k], opt);
          } catch (const InstanceError&) {
            // Recovery had no software fallback left: counts as a loss.
            continue;
          } catch (const InternalError& e) {
            std::cerr << "FATAL: " << policy_name << " replay of "
                      << instances[k].name << " (trial " << trial
                      << ") failed: " << e.what() << "\n";
            return 1;
          }
          ValidationOptions vopt;
          vopt.executed = true;
          vopt.outages = sim::OutagesFromScenario(opt.faults);
          const ValidationResult v =
              ValidateSchedule(instances[k], r.executed, vopt);
          if (!v.ok()) {
            std::cerr << "FATAL: invalid as-executed " << policy_name
                      << " schedule on " << instances[k].name << " (trial "
                      << trial << "): " << v.Summary() << "\n";
            return 1;
          }
          if (!r.recovery.survived) continue;
          ++survived;
          stretch.Add(r.stretch);
          samples.push_back(r.stretch);
        }
      }
      const double survival =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(survived) /
                           static_cast<double>(total);
      const double p95 = Percentile(samples, 95.0);
      PrintRow({StrFormat("%.2f", rate), policy_name,
                StrFormat("%.1f%%", survival),
                StrFormat("%.3f", stretch.Mean()), StrFormat("%.3f", p95)});
      fault_csv.push_back({StrFormat("%.2f", rate), policy_name,
                           StrFormat("%.4f", survival / 100.0),
                           StrFormat("%.4f", stretch.Mean()),
                           StrFormat("%.4f", p95)});
    }
  }
  WriteCsv(config, "ext_robustness_faults",
           {"fault_rate", "policy", "survival", "mean_stretch",
            "p95_stretch"},
           fault_csv);
  std::cout << "\nSurvival is the fraction of faulted replays that finish "
               "every task; stretch statistics cover surviving runs only. "
               "Every as-executed schedule passed the validator.\n";
  return 0;
}
