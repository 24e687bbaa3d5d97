// Discrete-event execution simulator.
//
// Replays a schedule's *decisions* (implementation selection, mapping,
// per-resource task orders, reconfiguration-controller assignment order)
// under perturbed execution times, the way the static schedule would
// actually unfold on the SoC. One time-ordered event engine serves every
// replay. Each core, region and controller runs its work in the plan's
// own order: every task starts as soon as its predecessors (plus HW<->SW
// transfer gaps), its resource (previous occupant) and, for hardware
// tasks, its reconfiguration are done; every reconfiguration starts as
// soon as the region's previous task ends and its controller is free.
//
// Without faults the replay therefore starts every operation at exactly
// the latest end among its plan-order predecessors. With zero jitter the
// simulated times can only be earlier than the static schedule, which
// doubles as a strong cross-check of schedule consistency. With jitter it
// measures the *robustness* of a scheduler's decisions: how much a
// schedule degrades when execution times deviate from their estimates.
//
// A non-empty FaultScenario injects faults into the same engine, which
// recovers online per the configured policy (sim/faults.hpp,
// sched/recovery.hpp): failed reconfigurations retry with capped
// exponential backoff, transiently faulted regions go offline for their
// repair window, permanently lost regions hand their unstarted tasks to
// the recovery planner. The plan's orders hold until a fault forces a
// recovery decision (DESIGN.md §7).
#pragma once

#include "sched/recovery.hpp"
#include "sched/schedule.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace resched::sim {

struct SimOptions {
  /// Multiplicative task-duration noise: actual = nominal * U[1-j, 1+j].
  double task_jitter = 0.0;
  /// Same for reconfiguration durations.
  double reconf_jitter = 0.0;
  std::uint64_t seed = 1;
  /// Fault events to inject; empty = a fault-free replay of the plan.
  FaultScenario faults;
  /// Recovery policy and retry knobs (consulted only under faults).
  RecoveryOptions recovery;
};

struct ResourceUsage {
  std::string name;
  TimeT busy = 0;
  double utilization = 0.0;  ///< busy / makespan
};

/// Telemetry of the online-recovery machinery (all zero under an empty
/// scenario).
struct RecoveryStats {
  std::size_t reconf_retries = 0;    ///< failed reconfiguration attempts
  std::size_t task_restarts = 0;     ///< crash/kill re-executions
  std::size_t migrations = 0;        ///< tasks moved to a software fallback
  std::size_t rescheduled_tasks = 0; ///< tasks re-placed by suffix repair
  std::size_t abandoned_regions = 0; ///< regions permanently lost
  bool survived = true;              ///< every task completed
};

struct SimResult {
  TimeT makespan = 0;
  std::vector<TimeT> task_start;
  std::vector<TimeT> task_end;
  std::vector<ResourceUsage> usage;  ///< cores, regions, controllers

  /// makespan / schedule.makespan — the degradation factor (under faults:
  /// the degraded stretch).
  double stretch = 0.0;

  RecoveryStats recovery;

  /// The as-executed schedule: final targets/implementations (reflecting
  /// any recovery migrations) with simulated times and only the successful
  /// reconfiguration attempts. Passes ValidateSchedule with
  /// ValidationOptions{.executed = true, .outages = OutagesFromScenario(...)}.
  Schedule executed;
};

/// Simulates `schedule` on `instance`. Throws InternalError if the
/// schedule's decision structure is inconsistent (e.g. a hardware task in
/// a region that never hosts it) and InstanceError if recovery would
/// deadlock (a task lost its hardware home and has no software
/// implementation).
SimResult Simulate(const Instance& instance, const Schedule& schedule,
                   const SimOptions& options = {});

}  // namespace resched::sim
