// Shared fixtures and builders for the test suite.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "arch/zynq.hpp"
#include "sched/comm.hpp"
#include "sched/schedule.hpp"
#include "taskgraph/taskgraph.hpp"
#include "util/string_util.hpp"

namespace resched::testing {

/// Small fast device (1/4-ish of an XC7Z020) so floorplan queries in tests
/// stay in the microsecond range.
inline FpgaDevice MakeSmallDevice() {
  const ResourceModel model = MakeClbBramDspModel();
  FabricGeometry geom = BuildInterleavedFabric(
      model, ResourceVec({3200, 40, 60}), {100, 10, 20}, /*rows=*/4);
  return FpgaDevice("test-device", model, std::move(geom));
}

inline Platform MakeSmallPlatform(std::size_t cores = 2,
                                  double recfreq = 2.56e8) {
  return Platform("test-platform", cores, MakeSmallDevice(), recfreq);
}

inline Implementation SwImpl(TimeT time, std::string name = "sw") {
  Implementation impl;
  impl.kind = ImplKind::kSoftware;
  impl.name = std::move(name);
  impl.exec_time = time;
  return impl;
}

inline Implementation HwImpl(TimeT time, std::int64_t clb,
                             std::int64_t bram = 0, std::int64_t dsp = 0,
                             std::int32_t module_id = -1,
                             std::string name = "hw") {
  Implementation impl;
  impl.kind = ImplKind::kHardware;
  impl.name = std::move(name);
  impl.exec_time = time;
  impl.res = ResourceVec({clb, bram, dsp});
  impl.module_id = module_id;
  return impl;
}

/// Linear chain t0 -> t1 -> ... -> t{n-1}; every task gets one SW and one
/// HW implementation.
inline TaskGraph MakeChain(std::size_t n, TimeT hw_time = 1000,
                           std::int64_t clb = 500, TimeT sw_time = 4000) {
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = g.AddTask(StrFormat("c%zu", i));
    g.AddImpl(t, SwImpl(sw_time));
    g.AddImpl(t, HwImpl(hw_time, clb));
    if (i > 0) g.AddEdge(static_cast<TaskId>(i - 1), t);
  }
  return g;
}

/// Diamond: a -> {b, c} -> d.
inline TaskGraph MakeDiamond(TimeT hw_time = 1000, std::int64_t clb = 500,
                             TimeT sw_time = 4000) {
  TaskGraph g;
  const TaskId a = g.AddTask("a");
  const TaskId b = g.AddTask("b");
  const TaskId c = g.AddTask("c");
  const TaskId d = g.AddTask("d");
  for (const TaskId t : {a, b, c, d}) {
    g.AddImpl(t, SwImpl(sw_time));
    g.AddImpl(t, HwImpl(hw_time, clb));
  }
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  return g;
}

/// Independent (edge-free) tasks.
inline TaskGraph MakeIndependent(std::size_t n, TimeT hw_time = 1000,
                                 std::int64_t clb = 500,
                                 TimeT sw_time = 4000) {
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = g.AddTask(StrFormat("p%zu", i));
    g.AddImpl(t, SwImpl(sw_time));
    g.AddImpl(t, HwImpl(hw_time, clb));
  }
  return g;
}

/// Tightness oracle for a fault-free replay of `plan`: every executed task
/// and reconfiguration must start at exactly the latest end among its
/// plan-order predecessors, or at 0 when it has none. A task's
/// predecessors are its data predecessors (plus the HW<->SW transfer gap),
/// the previous task on its core, and in a region its own
/// reconfiguration, or the previous region entry when it reuses the
/// loaded module. A reconfiguration's predecessors are the region entry
/// before the task it loads and the previous reconfiguration on its
/// controller. Returns one line per operation that starts anywhere else.
inline std::vector<std::string> ReplayTightnessViolations(
    const Instance& instance, const Schedule& plan,
    const Schedule& executed) {
  const TaskGraph& graph = instance.graph;
  const std::size_t n = graph.NumTasks();
  std::vector<std::string> out;
  std::vector<const ReconfSlot*> ran(n, nullptr);
  for (const ReconfSlot& r : executed.reconfigurations) {
    ran[static_cast<std::size_t>(r.loads_task)] = &r;
  }
  auto end_of = [&](TaskId t) {
    return executed.task_slots[static_cast<std::size_t>(t)].end;
  };
  std::vector<TimeT> task_ready(n, 0);
  std::vector<TimeT> reconf_ready(n, 0);  ///< by the task it loads
  auto raise = [](TimeT& at, TimeT bound) { at = std::max(at, bound); };

  for (std::size_t t = 0; t < n; ++t) {
    const auto task = static_cast<TaskId>(t);
    for (const TaskId p : graph.Predecessors(task)) {
      raise(task_ready[t],
            end_of(p) + CommGap(instance.platform, graph, p, task,
                                plan.task_slots[static_cast<std::size_t>(p)]
                                    .OnFpga(),
                                plan.task_slots[t].OnFpga()));
    }
  }
  for (std::size_t core = 0; core < instance.platform.NumProcessors();
       ++core) {
    std::vector<TaskId> order;
    for (const TaskSlot& slot : plan.task_slots) {
      if (!slot.OnFpga() && slot.target_index == core) {
        order.push_back(slot.task);
      }
    }
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return plan.task_slots[static_cast<std::size_t>(a)].start <
             plan.task_slots[static_cast<std::size_t>(b)].start;
    });
    for (std::size_t i = 1; i < order.size(); ++i) {
      raise(task_ready[static_cast<std::size_t>(order[i])],
            end_of(order[i - 1]));
    }
  }
  std::vector<char> planned(n, 0);
  for (const ReconfSlot& r : plan.reconfigurations) {
    planned[static_cast<std::size_t>(r.loads_task)] = 1;
  }
  for (const RegionInfo& region : plan.regions) {
    for (std::size_t i = 0; i < region.tasks.size(); ++i) {
      const auto t = static_cast<std::size_t>(region.tasks[i]);
      if (planned[t] != 0) {
        if (ran[t] != nullptr) raise(task_ready[t], ran[t]->end);
        if (i > 0) raise(reconf_ready[t], end_of(region.tasks[i - 1]));
      } else if (i > 0) {
        raise(task_ready[t], end_of(region.tasks[i - 1]));
      }
    }
  }
  for (std::size_t c = 0; c < instance.platform.NumReconfigurators(); ++c) {
    std::vector<const ReconfSlot*> order;
    for (const ReconfSlot& r : plan.reconfigurations) {
      if (r.controller == c) order.push_back(&r);
    }
    std::sort(order.begin(), order.end(),
              [](const ReconfSlot* a, const ReconfSlot* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < order.size(); ++i) {
      const ReconfSlot* prev = ran[static_cast<std::size_t>(
          order[i - 1]->loads_task)];
      if (prev != nullptr) {
        raise(reconf_ready[static_cast<std::size_t>(order[i]->loads_task)],
              prev->end);
      }
    }
  }

  for (std::size_t t = 0; t < n; ++t) {
    if (executed.task_slots[t].start != task_ready[t]) {
      out.push_back(StrFormat("task %zu starts at %lld, predecessors allow %lld",
                              t,
                              static_cast<long long>(
                                  executed.task_slots[t].start),
                              static_cast<long long>(task_ready[t])));
    }
  }
  for (const ReconfSlot& r : plan.reconfigurations) {
    const auto t = static_cast<std::size_t>(r.loads_task);
    if (ran[t] == nullptr) {
      out.push_back(StrFormat("reconfiguration for task %zu never ran", t));
    } else if (ran[t]->start != reconf_ready[t]) {
      out.push_back(StrFormat(
          "reconfiguration for task %zu starts at %lld, predecessors allow "
          "%lld",
          t, static_cast<long long>(ran[t]->start),
          static_cast<long long>(reconf_ready[t])));
    }
  }
  return out;
}

}  // namespace resched::testing
