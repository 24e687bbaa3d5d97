#include "taskgraph/timing.hpp"

#include <algorithm>
#include <functional>

namespace resched {

namespace {

/// Ordering for the sparse base-gap table.
bool GapKeyLess(const std::pair<std::pair<TaskId, TaskId>, TimeT>& entry,
                const std::pair<TaskId, TaskId>& key) {
  return entry.first < key;
}

}  // namespace

TimingContext::TimingContext(const TaskGraph& graph)
    : graph_(&graph),
      exec_(graph.NumTasks(), 0),
      release_(graph.NumTasks(), 0),
      extra_out_(graph.NumTasks()),
      extra_in_(graph.NumTasks()),
      visit_stamp_(graph.NumTasks(), 0) {
  // Flatten the base graph into CSR once; the topology never changes over
  // the context's lifetime, only the gap weights do.
  const std::size_t n = graph.NumTasks();
  pred_off_.resize(n + 1, 0);
  succ_off_.resize(n + 1, 0);
  std::size_t edges = 0;
  for (std::size_t t = 0; t < n; ++t) {
    edges += graph.Predecessors(static_cast<TaskId>(t)).size();
  }
  pred_task_.reserve(edges);
  succ_task_.reserve(edges);
  for (std::size_t t = 0; t < n; ++t) {
    pred_off_[t] = pred_task_.size();
    for (const TaskId p : graph.Predecessors(static_cast<TaskId>(t))) {
      pred_task_.push_back(p);
    }
  }
  pred_off_[n] = pred_task_.size();
  for (std::size_t t = 0; t < n; ++t) {
    succ_off_[t] = succ_task_.size();
    for (const TaskId s : graph.Successors(static_cast<TaskId>(t))) {
      succ_task_.push_back(s);
    }
  }
  succ_off_[n] = succ_task_.size();
  pred_gap_.assign(pred_task_.size(), 0);
  succ_gap_.assign(succ_task_.size(), 0);
  windows_.earliest_start.assign(n, 0);
  windows_.latest_finish.assign(n, 0);
  windows_.critical.assign(n, false);
  heap_.reserve(n);
}

void TimingContext::WriteCsrGap(TaskId from, TaskId to, TimeT gap) {
  const auto fi = static_cast<std::size_t>(from);
  const auto ti = static_cast<std::size_t>(to);
  for (std::size_t e = pred_off_[ti]; e < pred_off_[ti + 1]; ++e) {
    if (pred_task_[e] == from) {
      pred_gap_[e] = gap;
      break;
    }
  }
  for (std::size_t e = succ_off_[fi]; e < succ_off_[fi + 1]; ++e) {
    if (succ_task_[e] == to) {
      succ_gap_[e] = gap;
      break;
    }
  }
  if (gap != 0) have_base_gaps_ = true;
}

void TimingContext::ClearCsrGaps() {
  if (!have_base_gaps_) return;
  std::fill(pred_gap_.begin(), pred_gap_.end(), TimeT{0});
  std::fill(succ_gap_.begin(), succ_gap_.end(), TimeT{0});
  have_base_gaps_ = false;
}

void TimingContext::MarkStale() {
  stale_ = true;
  backward_stale_ = true;
  ++version_;
}

std::uint32_t TimingContext::NextStamp() const {
  if (++stamp_ == 0) {  // stamp wrapped: invalidate everything once
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0u);
    stamp_ = 1;
  }
  return stamp_;
}

void TimingContext::Reset() {
  std::fill(exec_.begin(), exec_.end(), TimeT{0});
  std::fill(release_.begin(), release_.end(), TimeT{0});
  base_gaps_.clear();
  ClearCsrGaps();
  extra_.clear();
  for (auto& out : extra_out_) out.clear();
  for (auto& in : extra_in_) in.clear();
  order_stale_ = true;
  MarkStale();
}

void TimingContext::AdoptBaseState(const TimingContext& source) {
  RESCHED_CHECK_MSG(source.graph_ == graph_,
                    "AdoptBaseState across different graphs");
  RESCHED_CHECK_MSG(!source.stale_, "AdoptBaseState from a stale source");
  RESCHED_CHECK_MSG(extra_.empty() && source.extra_.empty(),
                    "AdoptBaseState with ordering edges present");
  // Same-size vector copies reuse this context's storage.
  exec_ = source.exec_;
  release_ = source.release_;
  base_gaps_ = source.base_gaps_;
  if (source.have_base_gaps_) {
    pred_gap_ = source.pred_gap_;
    succ_gap_ = source.succ_gap_;
    have_base_gaps_ = true;
  } else {
    ClearCsrGaps();
  }
  windows_.earliest_start = source.windows_.earliest_start;
  windows_.makespan = source.windows_.makespan;
  stale_ = false;
  backward_stale_ = true;
  ++version_;
}

void TimingContext::SetExecTime(TaskId t, TimeT exec) {
  RESCHED_CHECK_MSG(exec > 0, "execution time must be positive");
  const auto ti = static_cast<std::size_t>(t);
  TimeT& slot = exec_.at(ti);
  if (exec == slot) return;
  const bool rising = exec > slot;
  slot = exec;
  if (stale_ || !rising) {
    MarkStale();
    return;
  }
  // A longer task keeps its own start and pushes its successors.
  ++version_;
  backward_stale_ = true;
  windows_.makespan =
      std::max(windows_.makespan, windows_.earliest_start[ti] + exec);
  queued_ = NextStamp();
  RelaxSuccessors(t);
  Propagate();
}

TimeT TimingContext::ExecTime(TaskId t) const {
  return exec_.at(static_cast<std::size_t>(t));
}

void TimingContext::Raise(TaskId t, TimeT start) {
  const auto ti = static_cast<std::size_t>(t);
  TimeT& es = windows_.earliest_start[ti];
  if (start <= es) return;
  if (visit_stamp_[ti] != queued_) {
    // Keyed by the pre-edit T_MIN: exact before the edit, strictly rising
    // along every edge, hence a topological order of the affected set.
    visit_stamp_[ti] = queued_;
    heap_.emplace_back(es, t);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  es = start;
  windows_.makespan = std::max(windows_.makespan, start + exec_[ti]);
  ++version_;
  backward_stale_ = true;
}

void TimingContext::RelaxSuccessors(TaskId t) {
  const auto ti = static_cast<std::size_t>(t);
  const TimeT finish = windows_.earliest_start[ti] + exec_[ti];
  for (std::size_t e = succ_off_[ti]; e < succ_off_[ti + 1]; ++e) {
    Raise(succ_task_[e], finish + succ_gap_[e]);
  }
  for (const std::size_t e : extra_out_[ti]) {
    Raise(extra_[e].to, finish + extra_[e].gap);
  }
}

void TimingContext::RaiseAndPropagate(TaskId t, TimeT start) {
  queued_ = NextStamp();
  Raise(t, start);
  Propagate();
}

void TimingContext::Propagate() {
  // Every predecessor of a popped task is either outside the affected set
  // (final before the edit) or has a smaller pre-edit key (popped first),
  // so each task is relaxed exactly once, with its final T_MIN.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const TaskId t = heap_.back().second;
    heap_.pop_back();
    RelaxSuccessors(t);
  }
}

bool TimingContext::Reaches(TaskId from, TaskId to) const {
  if (from == to) return true;
  // Epoch-stamped iterative DFS — no per-call allocation after warm-up.
  const std::uint32_t stamp = NextStamp();
  dfs_stack_.clear();
  dfs_stack_.push_back(from);
  visit_stamp_[static_cast<std::size_t>(from)] = stamp;
  while (!dfs_stack_.empty()) {
    const auto ui = static_cast<std::size_t>(dfs_stack_.back());
    dfs_stack_.pop_back();
    for (std::size_t e = succ_off_[ui]; e < succ_off_[ui + 1]; ++e) {
      const TaskId v = succ_task_[e];
      if (v == to) return true;
      auto& seen = visit_stamp_[static_cast<std::size_t>(v)];
      if (seen != stamp) {
        seen = stamp;
        dfs_stack_.push_back(v);
      }
    }
    for (const std::size_t e : extra_out_[ui]) {
      const TaskId v = extra_[e].to;
      if (v == to) return true;
      auto& seen = visit_stamp_[static_cast<std::size_t>(v)];
      if (seen != stamp) {
        seen = stamp;
        dfs_stack_.push_back(v);
      }
    }
  }
  return false;
}

void TimingContext::AddOrderingEdge(TaskId from, TaskId to, TimeT gap) {
  RESCHED_CHECK_MSG(gap >= 0, "negative ordering gap");
  RESCHED_CHECK_MSG(from != to, "self ordering edge");
  const auto fi = static_cast<std::size_t>(from);
  const auto ti = static_cast<std::size_t>(to);
  // The edge closes a cycle exactly when `to` already reaches `from`. Any
  // path to ~> from strictly raises T_MIN, so exact windows with
  // es[from] <= es[to] rule it out in O(1); otherwise search.
  const std::vector<TimeT>& es = windows_.earliest_start;
  if (stale_ || es.at(fi) > es.at(ti)) {
    ++cycle_searches_;
    RESCHED_CHECK_MSG(!Reaches(to, from),
                      "ordering edges introduced a cycle (scheduler bug)");
  }
  const std::size_t index = extra_.size();
  extra_.push_back(OrderingEdge{from, to, gap});
  extra_out_[fi].push_back(index);
  extra_in_[ti].push_back(index);
  order_stale_ = true;
  // The edge bounds T_MAX of `from` even when no T_MIN moves.
  backward_stale_ = true;
  if (!stale_) RaiseAndPropagate(to, es[fi] + exec_[fi] + gap);
}

void TimingContext::RaiseRelease(TaskId t, TimeT release) {
  auto& r = release_.at(static_cast<std::size_t>(t));
  if (release <= r) return;
  r = release;
  if (!stale_) RaiseAndPropagate(t, release);  // else the sweep reads it
}

TimeT TimingContext::Release(TaskId t) const {
  return release_.at(static_cast<std::size_t>(t));
}

void TimingContext::SetBaseEdgeGap(TaskId from, TaskId to, TimeT gap) {
  RESCHED_CHECK_MSG(gap >= 0, "negative base edge gap");
  RESCHED_CHECK_MSG(graph_->HasEdge(from, to),
                    "SetBaseEdgeGap on a missing edge");
  const std::pair<TaskId, TaskId> key{from, to};
  const auto it =
      std::lower_bound(base_gaps_.begin(), base_gaps_.end(), key, GapKeyLess);
  const bool present = it != base_gaps_.end() && it->first == key;
  const TimeT old = present ? it->second : 0;
  if (gap == old) return;
  if (gap == 0) {
    base_gaps_.erase(it);
  } else if (present) {
    it->second = gap;
  } else {
    base_gaps_.insert(it, {key, gap});
  }
  WriteCsrGap(from, to, gap);
  have_base_gaps_ = !base_gaps_.empty();
  if (stale_ || gap < old) {
    MarkStale();
    return;
  }
  backward_stale_ = true;
  const auto fi = static_cast<std::size_t>(from);
  RaiseAndPropagate(to, windows_.earliest_start[fi] + exec_[fi] + gap);
}

TimeT TimingContext::BaseEdgeGap(TaskId from, TaskId to) const {
  if (base_gaps_.empty()) return 0;  // the common case, checked first
  const std::pair<TaskId, TaskId> key{from, to};
  const auto it =
      std::lower_bound(base_gaps_.begin(), base_gaps_.end(), key, GapKeyLess);
  return it != base_gaps_.end() && it->first == key ? it->second : 0;
}

void TimingContext::AssignBaseEdgeGaps(
    const std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>>& gaps) {
  base_gaps_.assign(gaps.begin(), gaps.end());
  std::sort(base_gaps_.begin(), base_gaps_.end());
  ClearCsrGaps();
  for (const auto& [key, gap] : base_gaps_) {
    RESCHED_CHECK_MSG(gap >= 0, "negative base edge gap");
    RESCHED_CHECK_MSG(graph_->HasEdge(key.first, key.second),
                      "AssignBaseEdgeGaps on a missing edge");
    WriteCsrGap(key.first, key.second, gap);
  }
  MarkStale();
}

const std::vector<TaskId>& TimingContext::CombinedTopologicalOrderRef() const {
  if (!order_stale_) return kahn_order_;
  const std::size_t n = exec_.size();
  kahn_indegree_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    kahn_indegree_[t] = (pred_off_[t + 1] - pred_off_[t]) + extra_in_[t].size();
  }
  // Kahn's algorithm with the order vector doubling as the FIFO queue.
  kahn_order_.clear();
  for (std::size_t t = 0; t < n; ++t) {
    if (kahn_indegree_[t] == 0) kahn_order_.push_back(static_cast<TaskId>(t));
  }
  for (std::size_t head = 0; head < kahn_order_.size(); ++head) {
    const auto ti = static_cast<std::size_t>(kahn_order_[head]);
    for (std::size_t e = succ_off_[ti]; e < succ_off_[ti + 1]; ++e) {
      const TaskId s = succ_task_[e];
      if (--kahn_indegree_[static_cast<std::size_t>(s)] == 0) {
        kahn_order_.push_back(s);
      }
    }
    for (const std::size_t e : extra_out_[ti]) {
      const TaskId s = extra_[e].to;
      if (--kahn_indegree_[static_cast<std::size_t>(s)] == 0) {
        kahn_order_.push_back(s);
      }
    }
  }
  RESCHED_CHECK_MSG(kahn_order_.size() == n,
                    "ordering edges introduced a cycle (scheduler bug)");
  order_stale_ = false;
  return kahn_order_;
}

std::vector<TaskId> TimingContext::CombinedTopologicalOrder() const {
  return CombinedTopologicalOrderRef();
}

void TimingContext::RecomputeForward() const {
  const std::size_t n = exec_.size();
  for (std::size_t t = 0; t < n; ++t) {
    RESCHED_CHECK_MSG(exec_[t] > 0,
                      "Windows() before all execution times were set");
  }
  const std::vector<TaskId>& order = CombinedTopologicalOrderRef();

  // T_MIN. The CSR gap arrays are all-zero unless the
  // communication-overhead extension is active, so the common case is a
  // pure `es[p] + exec[p]` reduction over a contiguous slice.
  auto& es = windows_.earliest_start;
  TimeT makespan = 0;
  for (const TaskId t : order) {
    const auto ti = static_cast<std::size_t>(t);
    TimeT start = release_[ti];
    for (std::size_t e = pred_off_[ti]; e < pred_off_[ti + 1]; ++e) {
      const auto pi = static_cast<std::size_t>(pred_task_[e]);
      start = std::max(start, es[pi] + exec_[pi] + pred_gap_[e]);
    }
    for (const std::size_t e : extra_in_[ti]) {
      const auto pi = static_cast<std::size_t>(extra_[e].from);
      start = std::max(start, es[pi] + exec_[pi] + extra_[e].gap);
    }
    es[ti] = start;
    makespan = std::max(makespan, start + exec_[ti]);
  }
  windows_.makespan = makespan;
  stale_ = false;
  backward_stale_ = true;
  ++full_sweeps_;
}

const TimeWindows& TimingContext::Windows() const {
  if (stale_) RecomputeForward();
  if (!backward_stale_) return windows_;

  // T_MAX, against the current makespan.
  const std::vector<TaskId>& order = CombinedTopologicalOrderRef();
  const auto& es = windows_.earliest_start;
  auto& lf = windows_.latest_finish;
  lf.assign(lf.size(), windows_.makespan);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto ti = static_cast<std::size_t>(*it);
    TimeT finish = lf[ti];
    for (std::size_t e = succ_off_[ti]; e < succ_off_[ti + 1]; ++e) {
      const auto si = static_cast<std::size_t>(succ_task_[e]);
      finish = std::min(finish, lf[si] - exec_[si] - succ_gap_[e]);
    }
    for (const std::size_t e : extra_out_[ti]) {
      const auto si = static_cast<std::size_t>(extra_[e].to);
      finish = std::min(finish, lf[si] - exec_[si] - extra_[e].gap);
    }
    lf[ti] = finish;
  }
  for (std::size_t t = 0; t < lf.size(); ++t) {
    windows_.critical[t] = (lf[t] - es[t] == exec_[t]);
  }
  backward_stale_ = false;
  return windows_;
}

}  // namespace resched
