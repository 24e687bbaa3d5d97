// Critical Path Method engine (§V-B) over the task graph plus the ordering
// edges the scheduler adds while building a solution.
//
// The paper manipulates three timing notions:
//   * a time window w_t = [T_MIN_t, T_MAX_t] per task (earliest start,
//     latest delay-free finish) recomputed "with respect to the current
//     tasks dependencies" whenever implementations or orderings change;
//   * extra dependencies inserted to serialize tasks sharing a
//     reconfigurable region or a processor;
//   * delay propagation when a task is forced to finish after T_MAX.
//
// TimingContext models all three: ordering edges carry a *gap* weight (the
// reconfiguration time that must elapse between two consecutive tasks in
// the same region — zero for processor ordering), and per-task release
// times encode externally imposed delays (reconfigurator contention).
//
// Incremental CPM (DESIGN.md §8). T_MIN is kept exact across edits:
//   * monotone edits — AddOrderingEdge, RaiseRelease, a rising
//     SetExecTime or SetBaseEdgeGap — can only raise earliest starts, so
//     the change is pushed from the edited task through its successors
//     only, each affected task relaxed once (visited by increasing pre-edit
//     T_MIN, which is a topological order of the affected set because
//     every edge strictly raises T_MIN: execution times are positive);
//   * every other edit (a falling execution time or base gap,
//     AssignBaseEdgeGaps, Reset) marks the state stale, and the next read
//     runs one full forward sweep in O(V + E) — also the first computation.
// T_MAX, the makespan-relative slack and criticality come from a backward
// sweep run only when a caller asks for Windows(). Exact T_MIN also proves
// most ordering edges acyclic in O(1): es[from] <= es[to] means `to`
// cannot reach `from`; only a failed proof pays for the reachability DFS.
//
// Hot-path note: a TimingContext sits inside every PaScratch and is Reset()
// once per PA-R restart, so all mutators and sweeps reuse member buffers
// (the propagation heap included) — after warm-up, no call here allocates.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "taskgraph/taskgraph.hpp"

namespace resched {

/// Ordering edge with a minimum time gap between from's end and to's start.
struct OrderingEdge {
  TaskId from = kInvalidTask;
  TaskId to = kInvalidTask;
  TimeT gap = 0;
};

/// CPM result. Windows follow the paper's convention: `earliest_start` is
/// T_MIN (earliest start instant) and `latest_finish` is T_MAX (latest
/// completion that does not delay the schedule).
struct TimeWindows {
  std::vector<TimeT> earliest_start;
  std::vector<TimeT> latest_finish;
  std::vector<bool> critical;
  TimeT makespan = 0;

  TimeT WindowLength(TaskId t) const {
    return latest_finish[static_cast<std::size_t>(t)] -
           earliest_start[static_cast<std::size_t>(t)];
  }
};

class TimingContext {
 public:
  /// Captures the graph topology; execution times start at 0 and must be
  /// set for every task before the first window read.
  explicit TimingContext(const TaskGraph& graph);

  std::size_t NumTasks() const { return exec_.size(); }

  /// Returns to the just-constructed state (no extra edges, zero releases,
  /// no base-edge gaps, execution times unset) while keeping every buffer's
  /// capacity — the restart-loop reset.
  void Reset();

  /// Installs `source`'s execution times, releases, base-edge gaps and
  /// exact T_MIN in one copy, so no sweep runs. Both contexts must share
  /// one graph and carry no ordering edges (this one freshly Reset), and
  /// `source` must have its T_MIN computed: it is only read, so one source
  /// may serve many threads.
  void AdoptBaseState(const TimingContext& source);

  void SetExecTime(TaskId t, TimeT exec);
  TimeT ExecTime(TaskId t) const;

  /// Serializes `from` before `to` with a minimum gap (reconfiguration
  /// time) between from's end and to's start. Throws InternalError if the
  /// edge would close a cycle.
  void AddOrderingEdge(TaskId from, TaskId to, TimeT gap);

  /// Raises the earliest admissible start of `t` (reconfigurator-contention
  /// delays); never lowers it.
  void RaiseRelease(TaskId t, TimeT release);
  TimeT Release(TaskId t) const;

  /// Communication-overhead extension: sets the minimum gap between the
  /// end of `from` and the start of `to` along the *base* graph edge
  /// (from, to). Unlike releases this may be lowered again — the gap
  /// depends on the endpoints' current HW/SW domains, which the scheduler
  /// revises. Requires the base edge to exist.
  void SetBaseEdgeGap(TaskId from, TaskId to, TimeT gap);
  TimeT BaseEdgeGap(TaskId from, TaskId to) const;

  /// Bulk variant: replaces the whole base-gap table with `gaps` (sorted or
  /// not; entries must reference existing edges and non-negative gaps).
  /// Used to build the phase-A gap state in one assignment.
  void AssignBaseEdgeGaps(
      const std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>>& gaps);

  const std::vector<OrderingEdge>& ExtraEdges() const { return extra_; }

  /// Exact T_MIN of every task (the forward half of the windows; never runs
  /// the backward sweep). The reference stays valid, and tracks later
  /// edits, for the context's lifetime.
  const std::vector<TimeT>& EarliestStarts() const {
    if (stale_) RecomputeForward();
    return windows_.earliest_start;
  }
  TimeT EarliestStart(TaskId t) const {
    return EarliestStarts()[static_cast<std::size_t>(t)];
  }
  TimeT Makespan() const {
    if (stale_) RecomputeForward();
    return windows_.makespan;
  }

  /// Full CPM windows: T_MIN plus T_MAX and criticality (runs the lazy
  /// backward sweep when an edit has invalidated it).
  const TimeWindows& Windows() const;

  /// Monotonic stamp of the windows, never reset: it moves whenever any
  /// T_MIN or execution time may have changed (a stale state counts), so
  /// callers caching window-derived state compare stamps to detect
  /// staleness. Reading it computes nothing.
  std::uint64_t WindowsVersion() const { return version_; }

  /// Work counters since construction (never reset): full forward sweeps
  /// run, and reachability searches AddOrderingEdge fell back to because
  /// the O(1) T_MIN proof did not apply.
  std::uint64_t FullSweeps() const { return full_sweeps_; }
  std::uint64_t CycleSearches() const { return cycle_searches_; }

  /// Topological order over base + extra edges (by value; see
  /// CombinedTopologicalOrderRef for the allocation-free variant).
  std::vector<TaskId> CombinedTopologicalOrder() const;

  /// Allocation-free variant, cached until the next AddOrderingEdge or
  /// Reset (only the edge set shapes it): the returned reference stays
  /// valid until then.
  const std::vector<TaskId>& CombinedTopologicalOrderRef() const;

 private:
  /// Full forward sweep: T_MIN and makespan from scratch.
  void RecomputeForward() const;
  /// Marks T_MIN for a full recompute (non-monotone edit).
  void MarkStale();
  /// True when a path `from` ~> `to` exists over base + extra edges.
  bool Reaches(TaskId from, TaskId to) const;
  /// Monotone-edit propagation: Raise lifts T_MIN of `t` to `start` (when
  /// that is higher) and queues `t`; RelaxSuccessors raises every successor
  /// from the finish of `t`; Propagate drains the queue. Each edit opens a
  /// fresh queue epoch first (RaiseAndPropagate does all three steps).
  void Raise(TaskId t, TimeT start);
  void RelaxSuccessors(TaskId t);
  void Propagate();
  void RaiseAndPropagate(TaskId t, TimeT start);
  /// Fresh epoch for visit_stamp_ (DFS marks and queue membership).
  std::uint32_t NextStamp() const;
  /// Mirrors one base-gap table entry into the CSR gap arrays.
  void WriteCsrGap(TaskId from, TaskId to, TimeT gap);
  /// Zeroes the CSR gap arrays iff any entry may be non-zero.
  void ClearCsrGaps();

  const TaskGraph* graph_;
  std::vector<TimeT> exec_;
  std::vector<TimeT> release_;
  /// Sparse base-edge gap table, sorted by (from, to); nearly always empty
  /// (only the communication-overhead extension populates it).
  std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>> base_gaps_;
  // Flat CSR image of the base graph, built once at construction. The CPM
  // sweeps and the propagation are the scheduler's innermost loop, so they
  // walk these contiguous arrays instead of chasing per-task adjacency
  // vectors and doing a gap lookup per edge. `pred_gap_`/`succ_gap_`
  // mirror base_gaps_ entry-for-entry and are all zero whenever base_gaps_
  // is empty (the common case).
  std::vector<std::size_t> pred_off_;  // n + 1
  std::vector<std::size_t> succ_off_;  // n + 1
  std::vector<TaskId> pred_task_;
  std::vector<TaskId> succ_task_;
  std::vector<TimeT> pred_gap_;
  std::vector<TimeT> succ_gap_;
  /// True while any CSR gap slot may be non-zero (cleared lazily on Reset).
  bool have_base_gaps_ = false;
  std::vector<OrderingEdge> extra_;
  // Extra-edge adjacency for fast sweeps.
  std::vector<std::vector<std::size_t>> extra_out_;
  std::vector<std::vector<std::size_t>> extra_in_;

  // Reusable sweep/DFS/propagation scratch (sized once to NumTasks()).
  mutable std::vector<std::size_t> kahn_indegree_;
  mutable std::vector<TaskId> kahn_order_;
  mutable std::vector<std::uint32_t> visit_stamp_;
  mutable std::uint32_t stamp_ = 0;
  mutable std::vector<TaskId> dfs_stack_;
  /// Min-heap of (pre-edit T_MIN, task) for the monotone propagation.
  std::vector<std::pair<TimeT, TaskId>> heap_;
  /// visit_stamp_ epoch marking the tasks queued by the current edit.
  std::uint32_t queued_ = 0;

  mutable TimeWindows windows_;
  mutable std::uint64_t version_ = 0;
  mutable std::uint64_t full_sweeps_ = 0;
  std::uint64_t cycle_searches_ = 0;
  /// T_MIN/makespan need a full forward sweep.
  mutable bool stale_ = true;
  /// T_MAX/criticality need a backward sweep.
  mutable bool backward_stale_ = true;
  /// kahn_order_ no longer matches the edge set.
  mutable bool order_stale_ = true;
};

}  // namespace resched
