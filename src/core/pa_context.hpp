// Build-once, instance-derived context shared by every PA restart.
//
// Everything the PA pipeline derives from the (instance, options) pair but
// NOT from the virtually available capacity is computed here exactly once
// and shared — read-only — by all worker threads of PA-R / PA-LS and by
// every round of PA's shrink loop:
//
//   * Eq.-(4) resource weights and the Eq.-(3) normalization horizon;
//   * the phase-A implementation selection (capacity never enters Eq. 3)
//     and a TimingContext holding its execution times, communication-
//     overhead gaps and exact windows, which every restart adopts instead
//     of sweeping;
//   * the phase-B criticality snapshot (taken on the phase-A windows,
//     which do not depend on capacity either);
//   * the phase-C processing orders (critical by descending efficiency;
//     non-critical pre-sorted for each NonCriticalOrder policy);
//   * per-task CSR tables of hardware implementations with their Eq.-(3)
//     costs, replacing the allocating TaskGraph::HardwareImpls() calls on
//     the phase-D hot path.
//
// Ownership rules (DESIGN.md §8): a PaContext borrows the Instance and the
// PaOptions — both must outlive it. The options are read through the
// pointer on every restart, because PA-LS legitimately mutates
// `explicit_order` between iterations; everything *precomputed* here
// depends only on fields that callers never mutate mid-run.
#pragma once

#include <utility>
#include <vector>

#include "core/options.hpp"
#include "taskgraph/taskgraph.hpp"
#include "taskgraph/timing.hpp"

namespace resched::pa {

class PaContext {
 public:
  PaContext(const Instance& instance, const PaOptions& options);

  const Instance& Inst() const { return *instance_; }
  const PaOptions& Options() const { return *options_; }
  std::size_t NumTasks() const { return initial_impl_.size(); }

  /// Eq. (4) weights against the *device* capacity (shrinking is a packing
  /// restriction, not a change of the device).
  const std::vector<double>& Weights() const { return weights_; }
  /// Eq. (3) normalization horizon (serial single-core lower bound).
  TimeT MaxT() const { return max_t_; }

  // ---- phase A/B precompute ---------------------------------------------
  const std::vector<std::size_t>& InitialImpls() const { return initial_impl_; }
  /// Phase-A execution times and communication gaps with their windows
  /// fully computed (read-only, so every worker may adopt it at once).
  const TimingContext& InitialTiming() const { return initial_timing_; }
  /// Byte mask (1 = critical) — not vector<bool>: hot-path code indexes
  /// it per task and the byte form avoids the proxy/bit-extract cost.
  const std::vector<char>& InitialCriticalMask() const {
    return initial_critical_;
  }

  // ---- phase C processing orders ----------------------------------------
  /// Critical hardware tasks, by descending Eq.-(5) efficiency (stable).
  const std::vector<TaskId>& CriticalByEfficiency() const {
    return critical_eff_;
  }
  /// Non-critical hardware tasks in task-id order (kGraphOrder directly;
  /// kRandom shuffles a copy of this).
  const std::vector<TaskId>& NonCriticalById() const {
    return non_critical_ids_;
  }
  /// ... by descending efficiency (kEfficiency; kExplicit's tie-break base).
  const std::vector<TaskId>& NonCriticalByEfficiency() const {
    return non_critical_eff_;
  }
  /// ... by ascending phase-A execution time (kFastestFirst).
  const std::vector<TaskId>& NonCriticalByExecTime() const {
    return non_critical_fastest_;
  }

  // ---- hardware-implementation tables (CSR over task ids) ---------------
  std::size_t NumHwImpls(TaskId t) const {
    const auto ti = static_cast<std::size_t>(t);
    return hw_impl_off_[ti + 1] - hw_impl_off_[ti];
  }
  /// i-th hardware implementation index of `t` (i < NumHwImpls(t)).
  std::size_t HwImplIndex(TaskId t, std::size_t i) const {
    return hw_impl_idx_[hw_impl_off_[static_cast<std::size_t>(t)] + i];
  }
  /// Its Eq.-(3) cost under Weights()/MaxT().
  double HwImplCost(TaskId t, std::size_t i) const {
    return hw_impl_cost_[hw_impl_off_[static_cast<std::size_t>(t)] + i];
  }
  /// Cached TaskGraph::FastestSoftwareImpl.
  std::size_t FastestSoftwareImpl(TaskId t) const {
    return fastest_sw_[static_cast<std::size_t>(t)];
  }

 private:
  const Instance* instance_;
  const PaOptions* options_;

  std::vector<double> weights_;
  TimeT max_t_ = 0;

  std::vector<std::size_t> initial_impl_;
  TimingContext initial_timing_;
  std::vector<char> initial_critical_;

  std::vector<TaskId> critical_eff_;
  std::vector<TaskId> non_critical_ids_;
  std::vector<TaskId> non_critical_eff_;
  std::vector<TaskId> non_critical_fastest_;

  std::vector<std::size_t> hw_impl_off_;
  std::vector<std::size_t> hw_impl_idx_;
  std::vector<double> hw_impl_cost_;
  std::vector<std::size_t> fastest_sw_;
};

}  // namespace resched::pa
