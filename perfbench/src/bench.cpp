#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <stdexcept>

#include "bench.hpp"

// ---- allocation counting ----------------------------------------------------
// Replacement global operator new/delete: a thread-local counter costs no
// cross-thread traffic, so it stays on in untraced runs too. Every
// unaligned form is replaced, so whichever form allocates, the matching
// delete frees the same malloc block (the over-aligned forms keep their
// defaults and pair among themselves).

namespace {
thread_local std::uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t ThreadAllocs() { return t_allocs; }

void Outcome::Fail(const std::string& why) { errors.push_back(why); }

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

// ---- statistics -----------------------------------------------------------

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- machine speed ----------------------------------------------------------

namespace {

/// 2^17 four-byte entries: 512 KiB, a quarter of a core's L2 on the
/// 4-vCPU Xeon VM the benchmark was tuned on. An untimed warm-up chase
/// pulls most of the ring back into L2 (the ops in between evict it); the
/// timed chase then runs mostly from L2, ~0.7 ms on that VM.
constexpr std::size_t kRingEntries = std::size_t{1} << 17;
constexpr int kWarmSteps = 16384;
constexpr int kChaseSteps = 100000;
/// Median chase time on that VM while its host was quiet: the slowdown is
/// 1 there, so the reported times read as on a quiet machine.
constexpr double kNominalChaseSeconds = 7.0e-4;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

SpeedProbe::SpeedProbe() : ring_(kRingEntries) {
  // One cycle through every entry in a fixed random order, so the chase
  // defeats the prefetchers.
  std::vector<std::uint32_t> order(kRingEntries);
  for (std::size_t i = 0; i < kRingEntries; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = kRingEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % i]);
  }
  for (std::size_t i = 0; i < kRingEntries; ++i) {
    ring_[order[i]] = order[(i + 1) % kRingEntries];
  }
}

void SpeedProbe::Sample() {
  if (!samples_.empty() &&
      NowSeconds() - samples_.back().first < kMinGapSeconds) {
    return;
  }
  // Thread CPU time: a chase preempted by the benchmark's own threads
  // would otherwise read as a slow machine.
  std::uint32_t p = pos_;
  for (int i = 0; i < kWarmSteps; ++i) p = ring_[p];
  const double start = ThreadCpuSeconds();
  for (int i = 0; i < kChaseSteps; ++i) p = ring_[p];
  const double seconds = ThreadCpuSeconds() - start;
  pos_ = p;  // a data dependency the compiler cannot drop
  samples_.emplace_back(NowSeconds(), seconds);
}

double SpeedProbe::SlowdownAt(double at) const {
  if (samples_.empty()) return 1.0;
  const auto by_time = [](const std::pair<double, double>& s, double t) {
    return s.first < t;
  };
  auto lo = std::lower_bound(samples_.begin(), samples_.end(),
                             at - kWindowSeconds, by_time);
  auto hi = std::lower_bound(lo, samples_.end(), at + kWindowSeconds, by_time);
  while (static_cast<std::size_t>(hi - lo) <
         std::min(kMinSamples, samples_.size())) {
    // Widen toward whichever neighbour is nearer in time.
    if (hi == samples_.end() ||
        (lo != samples_.begin() && at - (lo - 1)->first < hi->first - at)) {
      --lo;
    } else {
      ++hi;
    }
  }
  std::vector<double> seconds;
  for (auto it = lo; it != hi; ++it) seconds.push_back(it->second);
  return Median(std::move(seconds)) / kNominalChaseSeconds;
}

double SpeedProbe::Slowdown() const {
  if (samples_.empty()) return 1.0;
  std::vector<double> seconds;
  for (const auto& sample : samples_) seconds.push_back(sample.second);
  return Median(std::move(seconds)) / kNominalChaseSeconds;
}

void EndToEnd::RecordOp(double ms) {
  op_ms.push_back(ms);
  op_end.push_back(NowSeconds());
  probe.Sample();
}

void EndToEnd::RecordSetup(double seconds) {
  setup_s.push_back(seconds);
  setup_end.push_back(NowSeconds());
  probe.Sample();
}

// ---- tracer ---------------------------------------------------------------

std::int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, open_});
  open_ = id;
  return id;
}

void Tracer::End(std::int32_t id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals(
    const std::string& root) const {
  const std::size_t n = spans_.size();
  std::vector<std::int32_t> root_of(n);
  std::vector<std::int64_t> child_ns(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    root_of[i] = s.parent < 0 ? static_cast<std::int32_t>(i)
                              : root_of[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (!root.empty() &&
        root != spans_[static_cast<std::size_t>(root_of[i])].name) {
      continue;
    }
    NameTotals& t = totals[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    t.count += 1;
    t.total_us += dur / 1e3;
    t.self_us += (dur - static_cast<double>(child_ns[i])) / 1e3;
  }
  return totals;
}

void Tracer::Write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write span file " + path);
  file << "name,start_ns,end_ns,parent\n";
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    file << s.name << ',' << (s.start_ns - base) << ',' << (s.end_ns - base)
         << ',' << s.parent << '\n';
  }
  if (!file) throw std::runtime_error("short write to span file " + path);
}

namespace {

/// The per-layer metrics every traced run reports, with units.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.context_build_us", "us"},
      {"core.scratch_reset_us", "us"},
      {"core.impl_selection_us", "us"},
      {"core.critical_path_us", "us"},
      {"core.regions_definition_us", "us"},
      {"core.sw_balancing_us", "us"},
      {"core.sw_mapping_us", "us"},
      {"core.reconf_scheduling_us", "us"},
      {"core.assemble_us", "us"},
      {"core.pa_core_calls_per_solve", "count"},
      {"core.allocs_per_restart", "count"},
      {"floorplan.query_us", "us"},
      {"floorplan.queries_per_solve", "count"},
      {"floorplan.dfs_nodes_per_query", "count"},
      {"floorplan.budget_exhausted_per_solve", "count"},
      {"floorplan.proven_share", "share"},
      {"floorplan.verdict_hit_rate", "share"},
      {"floorplan.catalog_hit_rate", "share"},
      {"sched.validate_us", "us"},
      {"sim.nominal_replay_us", "us"},
      {"sim.faulted_replay_us", "us"},
      {"io.json_parse_us", "us"},
      {"io.instance_digest_us", "us"},
      {"io.schedule_to_json_us", "us"},
      {"service.parse_request_us", "us"},
      {"service.request_key_us", "us"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.result_cache_hit_share", "share"},
      {"service.journal_append_us", "us"},
      {"service.frame_roundtrip_us", "us"},
      {"router.ring_lookup_us", "us"},
      {"router.backend_imbalance", "ratio"},
      {"router.rerouted", "count"},
      {"bench.trace_overhead_share", "share"},
      {"layer.taskgraph.self_share", "share"},
      {"layer.core.self_share", "share"},
      {"layer.floorplan.self_share", "share"},
      {"layer.sched.self_share", "share"},
      {"layer.sim.self_share", "share"},
      {"layer.io.self_share", "share"},
      {"layer.service.self_share", "share"},
      {"layer.router.self_share", "share"},
      {"layer.util.self_share", "share"},
  };
  return kMetrics;
}

/// The nine library modules time is attributed to.
const std::vector<std::string>& Layers() {
  static const std::vector<std::string> kLayers = {
      "taskgraph", "core", "floorplan", "sched", "sim",
      "io",        "service", "router", "util"};
  return kLayers;
}

/// Emits every per-layer metric from `values` (missing names read 0).
void AddPerLayer(const std::map<std::string, double>& values, Outcome& out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    out.Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void AddSpanMetrics(const Tracer& tracer, const std::string& root,
                    std::map<std::string, double>& values) {
  for (const auto& [name, t] : tracer.Totals("")) {
    if (name.rfind("bench.", 0) != 0 && t.count > 0) {
      values[name + "_us"] = t.self_us / static_cast<double>(t.count);
    }
  }
  double root_us = 0.0;
  std::map<std::string, double> layer_us;
  for (const auto& [name, t] : tracer.Totals(root)) {
    if (name == root) root_us += t.total_us;
    layer_us[name.substr(0, name.find('.'))] += t.self_us;
  }
  if (root_us <= 0.0) return;
  for (const std::string& layer : Layers()) {
    values["layer." + layer + ".self_share"] = layer_us[layer] / root_us;
  }
}

}  // namespace

void AddEndToEnd(const EndToEnd& e2e, Outcome& out) {
  const SpeedProbe& probe = e2e.probe;
  std::vector<double> op_ms;
  for (std::size_t i = 0; i < e2e.op_ms.size(); ++i) {
    op_ms.push_back(e2e.op_ms[i] / probe.SlowdownAt(e2e.op_end[i]));
  }
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < e2e.setup_s.size(); ++i) {
    setup_s.push_back(e2e.setup_s[i] / probe.SlowdownAt(e2e.setup_end[i]));
  }
  const double wall_rate =
      static_cast<double>(e2e.timed_ops) / e2e.timed_seconds;

  out.Add("ops_per_s", wall_rate * probe.Slowdown(), "1/s");
  out.Add("op_p50_ms", Quantile(op_ms, 0.50), "ms");
  out.Add("op_p99_ms", Quantile(op_ms, 0.99), "ms");
  out.Add("makespan_geomean_us", GeoMean(e2e.makespans), "us");
  out.Add("ok_share",
          out.attempted == 0 ? 0.0
                             : static_cast<double>(out.succeeded) /
                                   static_cast<double>(out.attempted),
          "share");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");

  out.notes["wall.ops_per_s"] = wall_rate;
  out.notes["wall.op_p50_ms"] = Quantile(e2e.op_ms, 0.50);
  out.notes["wall.op_p99_ms"] = Quantile(e2e.op_ms, 0.99);
  out.notes["wall.setup_s"] = Median(e2e.setup_s);
  out.notes["probe.slowdown"] = probe.Slowdown();
  out.notes["probe.samples"] = static_cast<double>(probe.SampleCount());
}

void FinishTrace(const Tracer& tracer, const std::string& root,
                 const Args& args, std::map<std::string, double> values,
                 Outcome& out) {
  AddSpanMetrics(tracer, root, values);
  tracer.Write(args.work_dir + "/spans-" + args.workload + "-" +
               std::to_string(args.seed) + ".csv");
  out.notes["spans"] = static_cast<double>(tracer.SpanCount());
  AddPerLayer(values, out);
}

}  // namespace perfbench
