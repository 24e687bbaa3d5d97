// Shared plumbing of the repository benchmark: run arguments, the result
// record every workload fills, the in-memory span tracer that attributes
// time to layers from outside the library, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "taskgraph/taskgraph.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// `git describe` of the checkout the binary was built from (run.py).
  std::string git = "unknown";
  /// Digest of the source tree the binary was built from (run.py).
  std::string src_digest = "unknown";
  /// Directory for journals and span files (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// What one run reports: correctness, failure accounting and metrics.
struct Outcome {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  /// Refusals by error code (overloaded, deadline_exceeded, internal...).
  std::map<std::string, std::uint64_t> refused;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Extra per-run facts written next to the provenance line.
  std::map<std::string, double> notes;

  bool Correct() const { return errors.empty(); }
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);
};

/// How fast the machine runs at the moment, measured by timing a fixed
/// pointer chase between ops. The host shares its cores' caches with other
/// tenants: on a 4-vCPU Xeon VM the same solve loop ran up to 1.9x slower
/// while they were busy, and so did a chase through a 512 KiB ring (a
/// quarter of a core's L2), while a register-only loop moved <20%. Over
/// eight 12 s suite_pa runs of one seed, dividing by the chase's slowdown
/// cut the spread (IQR over median) of the solve rate from 0.25 to 0.06
/// and of its p99 from 0.25 to 0.09. The chase calls no resched code, so
/// every change to the program still shows in full.
class SpeedProbe {
 public:
  SpeedProbe();

  /// Times one chase, unless one ran less than kMinGapSeconds ago.
  void Sample();
  /// Chase time over its nominal time: the median over the samples taken
  /// within kWindowSeconds of `at` (a NowSeconds() value), or over the
  /// kMinSamples nearest when fewer lie there; 1 without samples.
  double SlowdownAt(double at) const;
  /// The same median over the whole run.
  double Slowdown() const;
  std::size_t SampleCount() const { return samples_.size(); }

 private:
  static constexpr double kMinGapSeconds = 0.05;
  static constexpr double kWindowSeconds = 0.5;
  static constexpr std::size_t kMinSamples = 5;

  std::vector<std::uint32_t> ring_;
  std::uint32_t pos_ = 0;
  /// (NowSeconds() at the end of the chase, chase seconds), in time order.
  std::vector<std::pair<double, double>> samples_;
};

/// Raw material of the end-to-end metrics every untraced run reports. An
/// op is the workload's unit of work: one PA solve (suite_pa), one PA-R
/// run (par_restarts) or one request (fleet_mix). Every time recorded
/// here is wall time; AddEndToEnd divides each by the probe's slowdown at
/// the moment it was taken.
struct EndToEnd {
  /// Succeeded ops and the seconds they took: the sum of the ops' own
  /// times where each op runs alone (suite_pa, par_restarts), the wall
  /// time of the timed loop where requests overlap (fleet_mix).
  std::uint64_t timed_ops = 0;
  double timed_seconds = 0.0;
  /// Latency of every attempted op; +inf for a failed one.
  std::vector<double> op_ms;
  /// NowSeconds() at the end of each op of op_ms.
  std::vector<double> op_end;
  /// Makespans of the workload's schedules (a pure function of the seed).
  std::vector<double> makespans;
  /// Each set-up repetition of the run, and NowSeconds() at its end.
  std::vector<double> setup_s;
  std::vector<double> setup_end;
  SpeedProbe probe;

  /// Records an op's latency (+inf when it failed) and samples the probe.
  void RecordOp(double ms);
  /// Records a set-up repetition and samples the probe.
  void RecordSetup(double seconds);
};

/// Emits ops_per_s, op_p50_ms, op_p99_ms, makespan_geomean_us, ok_share,
/// setup_s and peak_rss_mb, the times divided by the probe's slowdown;
/// the wall-time readings and the slowdown go to the notes.
void AddEndToEnd(const EndToEnd& e2e, Outcome& out);

// ---- statistics ------------------------------------------------------------

double Median(std::vector<double> xs);
/// Nearest-rank quantile, q in [0, 1]; +inf entries (failed operations)
/// sort last.
double Quantile(std::vector<double> xs, double q);
double GeoMean(const std::vector<double>& xs);
double PeakRssMb();

/// Heap allocations made by the calling thread so far (counted by the
/// benchmark's replacement operator new).
std::uint64_t ThreadAllocs();

inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed in LIFO order on
/// one thread; a disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Switch only between spans (with none open).
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  std::int32_t Begin(const char* name);
  void End(std::int32_t id);
  std::size_t SpanCount() const { return spans_.size(); }

  struct NameTotals {
    std::uint64_t count = 0;
    double self_us = 0.0;
    double total_us = 0.0;
  };
  /// Per span name: count, self time (duration minus the time covered by
  /// child spans) and total time, over spans under roots named `root`
  /// (every span when `root` is empty).
  std::map<std::string, NameTotals> Totals(const std::string& root) const;

  /// Writes the spans as CSV (name,start_ns,end_ns,parent).
  void Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };
  static std::int64_t NowNs();

  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Ends a traced run: writes the spans under Args::work_dir and emits
/// every per-layer metric, zero where the layer did no work. Span-derived
/// values join `values`: `<name>_us` is the mean self time per call of
/// each span name, and `layer.<module>.self_share` each module's self
/// time over the total time of the `root` spans (the workload's ops).
void FinishTrace(const Tracer& tracer, const std::string& root,
                 const Args& args, std::map<std::string, double> values,
                 Outcome& out);

// ---- workloads --------------------------------------------------------------

/// `suites` copies of the §VII synthetic suite on the ZedBoard (ten
/// instances per task count 10, 20, ..., max_tasks). Suite 0 has
/// SuiteSpec::base_seed = `seed`; the others derive from it. Sizes are
/// interleaved (10, 20, ..., max_tasks, 10, 20, ...), so any prefix of
/// the result mixes sizes like the whole.
std::vector<resched::Instance> GenerateSuites(std::uint64_t seed,
                                              std::size_t suites,
                                              std::size_t max_tasks);

void RunSuitePa(const Args& args, Outcome& out);
void RunParRestarts(const Args& args, Outcome& out);
void RunFleetMix(const Args& args, Outcome& out);

}  // namespace perfbench
