// PaContext construction: the capacity-independent prefix of the PA
// pipeline (§V-A implementation selection, §V-B critical path extraction,
// the §V-C processing orders) evaluated once per (instance, options) pair.
#include "core/pa_context.hpp"

#include <algorithm>

#include "core/cost_model.hpp"
#include "sched/comm.hpp"

namespace resched::pa {

PaContext::PaContext(const Instance& instance, const PaOptions& options)
    : instance_(&instance),
      options_(&options),
      weights_(ComputeResourceWeights(instance.platform.Device().Capacity())),
      max_t_(instance.graph.SerialLowerBoundTime()),
      initial_timing_(instance.graph) {
  const TaskGraph& graph = instance.graph;
  const ResourceVec& max_res = instance.platform.Device().Capacity();
  const std::size_t n = graph.NumTasks();

  // ---- hardware-implementation CSR tables + Eq.-(3) costs ---------------
  hw_impl_off_.assign(n + 1, 0);
  fastest_sw_.resize(n);
  for (std::size_t ti = 0; ti < n; ++ti) {
    const auto t = static_cast<TaskId>(ti);
    const Task& task = graph.GetTask(t);
    fastest_sw_[ti] = graph.FastestSoftwareImpl(t);
    for (std::size_t i = 0; i < task.impls.size(); ++i) {
      if (task.impls[i].IsHardware()) ++hw_impl_off_[ti + 1];
    }
  }
  for (std::size_t ti = 0; ti < n; ++ti) {
    hw_impl_off_[ti + 1] += hw_impl_off_[ti];
  }
  hw_impl_idx_.resize(hw_impl_off_[n]);
  hw_impl_cost_.resize(hw_impl_off_[n]);
  for (std::size_t ti = 0; ti < n; ++ti) {
    const auto t = static_cast<TaskId>(ti);
    const Task& task = graph.GetTask(t);
    std::size_t at = hw_impl_off_[ti];
    for (std::size_t i = 0; i < task.impls.size(); ++i) {
      if (!task.impls[i].IsHardware()) continue;
      hw_impl_idx_[at] = i;
      hw_impl_cost_[at] =
          ImplementationCost(task.impls[i], max_res, weights_, max_t_);
      ++at;
    }
  }

  // ---- §V-A: initial implementation selection (Eq. 3) -------------------
  // Capacity never enters Eq. (3), so this selection — and everything
  // derived from it below — is shared verbatim by every restart.
  initial_impl_.resize(n);
  for (std::size_t ti = 0; ti < n; ++ti) {
    const auto t = static_cast<TaskId>(ti);
    const Task& task = graph.GetTask(t);

    // Lowest-cost hardware implementation (Eq. 3)...
    std::size_t best_hw = task.impls.size();
    double best_hw_cost = 0.0;
    for (std::size_t i = 0; i < NumHwImpls(t); ++i) {
      const double cost = HwImplCost(t, i);
      if (best_hw == task.impls.size() || cost < best_hw_cost) {
        best_hw = HwImplIndex(t, i);
        best_hw_cost = cost;
      }
    }

    // ... versus the fastest software implementation; the faster of the
    // two wins (ties go to hardware: an accelerator at equal speed frees a
    // core).
    const std::size_t best_sw = fastest_sw_[ti];
    std::size_t chosen = best_sw;
    if (best_hw != task.impls.size() &&
        task.impls[best_hw].exec_time <= task.impls[best_sw].exec_time) {
      chosen = best_hw;
    }
    initial_impl_[ti] = chosen;
    initial_timing_.SetExecTime(t, task.impls[chosen].exec_time);
  }

  // Communication-overhead extension: transfer gaps on base edges under
  // the phase-A HW/SW domains.
  if (graph.HasEdgeData() && instance.platform.HwSwBandwidthBytesPerSec() > 0.0) {
    std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>> gaps;
    gaps.reserve(graph.NumEdges());
    for (std::size_t ti = 0; ti < n; ++ti) {
      const auto t = static_cast<TaskId>(ti);
      const bool t_hw = graph.GetImpl(t, initial_impl_[ti]).IsHardware();
      for (const TaskId s : graph.Successors(t)) {
        const auto si = static_cast<std::size_t>(s);
        const bool s_hw = graph.GetImpl(s, initial_impl_[si]).IsHardware();
        const TimeT gap = CommGap(instance.platform, graph, t, s, t_hw, s_hw);
        if (gap != 0) gaps.push_back({{t, s}, gap});
      }
    }
    initial_timing_.AssignBaseEdgeGaps(gaps);
  }

  // ---- §V-B: criticality snapshot on the phase-A windows ----------------
  // Computing the full windows here also leaves initial_timing_ with no
  // lazy state, so concurrent readers never mutate it.
  {
    const TimeWindows& win = initial_timing_.Windows();
    initial_critical_.assign(n, 0);
    for (std::size_t ti = 0; ti < n; ++ti) {
      initial_critical_[ti] = win.critical[ti] ? 1 : 0;
    }
  }

  // ---- §V-C processing orders -------------------------------------------
  for (std::size_t ti = 0; ti < n; ++ti) {
    const auto t = static_cast<TaskId>(ti);
    if (!graph.GetImpl(t, initial_impl_[ti]).IsHardware()) continue;
    (initial_critical_[ti] ? critical_eff_ : non_critical_ids_).push_back(t);
  }
  auto efficiency_desc = [&](TaskId a, TaskId b) {
    return EfficiencyIndex(
               graph.GetImpl(a, initial_impl_[static_cast<std::size_t>(a)]),
               weights_) >
           EfficiencyIndex(
               graph.GetImpl(b, initial_impl_[static_cast<std::size_t>(b)]),
               weights_);
  };
  std::stable_sort(critical_eff_.begin(), critical_eff_.end(),
                   efficiency_desc);
  non_critical_eff_ = non_critical_ids_;
  std::stable_sort(non_critical_eff_.begin(), non_critical_eff_.end(),
                   efficiency_desc);
  non_critical_fastest_ = non_critical_ids_;
  std::stable_sort(non_critical_fastest_.begin(), non_critical_fastest_.end(),
                   [&](TaskId a, TaskId b) {
                     return initial_timing_.ExecTime(a) <
                            initial_timing_.ExecTime(b);
                   });
}

}  // namespace resched::pa
