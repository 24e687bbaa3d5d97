// suite_pa: the CLI solve path. Deterministic PA with default options,
// single-threaded, once per instance of ten §VII suites (1000 instances,
// 10..100 tasks) per pass, each solve with its private floorplan cache as
// `resched_cli schedule` does. Validation runs outside the timed call.
//
// Why ten suites: floorplan DFS cost is heavy-tailed per instance, so the
// solve rate and p99 of two 100-instance suites move 10-14% from seed to
// seed; over a thousand instances, 2-5%.

#include <limits>

#include "arch/zynq.hpp"
#include "checks.hpp"
#include "core/pa_scheduler.hpp"
#include "io/instance_hash.hpp"
#include "mirror.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace resched;

std::vector<Instance> GenerateSuites(std::uint64_t seed, std::size_t suites,
                                     std::size_t max_tasks) {
  constexpr std::uint64_t kSuiteStream = 0x5017'0000'0000'0001ULL;
  const Platform platform = MakeZedBoard();
  SuiteSpec spec;
  spec.max_tasks = max_tasks;
  // groups[g]: every instance with spec.min_tasks + g * spec.step tasks.
  std::vector<std::vector<Instance>> groups;
  for (std::size_t k = 0; k < suites; ++k) {
    spec.base_seed = k == 0 ? seed : DeriveSeed(kSuiteStream ^ seed, k);
    std::size_t g = 0;
    for (std::size_t n = spec.min_tasks; n <= spec.max_tasks;
         n += spec.step, ++g) {
      if (groups.size() <= g) groups.emplace_back();
      for (Instance& inst : GenerateSuiteGroup(platform, spec, n)) {
        inst.name = "s" + std::to_string(k) + "_" + inst.name;
        groups[g].push_back(std::move(inst));
      }
    }
  }
  std::vector<Instance> order;
  for (std::size_t r = 0; r < groups.front().size(); ++r) {
    for (std::vector<Instance>& group : groups) {
      order.push_back(std::move(group[r]));
    }
  }
  return order;
}

namespace {

constexpr std::size_t kSuiteMaxTasks = 100;
constexpr std::size_t kSuites = 10;
/// Solves between set-up repetitions.
constexpr std::size_t kSetupEvery = 200;

/// Counts the solve as succeeded or failed; true when it passed.
bool CheckSolve(const Instance& instance, const Schedule& schedule,
                TimeT expected_makespan, Outcome& out) {
  std::string why = CheckSchedule(instance, schedule);
  if (why.empty() && expected_makespan >= 0 &&
      schedule.makespan != expected_makespan) {
    why = "makespan changed between repeats of one instance";
  }
  if (why.empty()) {
    ++out.succeeded;
    return true;
  }
  ++out.failed;
  out.Fail(instance.name + ": " + why);
  return false;
}

void TracedSuite(const Args& args, const std::vector<Instance>& suite,
                 Outcome& out) {
  // The library's own entry point is the reference the twin must match.
  std::vector<std::string> reference;
  for (const Instance& inst : suite) {
    reference.push_back(ScheduleFingerprint(inst, SchedulePa(inst)));
  }

  // Tracing overhead: each solve runs through the twin with spans off,
  // then on, interleaved so drift in machine speed hits both sides.
  Tracer quiet(false);
  Mirror quiet_mirror(quiet);
  double quiet_seconds = 0.0;
  Tracer tracer(true);
  Mirror mirror(tracer);
  double traced_seconds = 0.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Instance& inst = suite[i];
    const double quiet_start = NowSeconds();
    (void)quiet_mirror.SchedulePa(inst, PaOptions{}, nullptr, nullptr);
    quiet_seconds += NowSeconds() - quiet_start;

    ++out.attempted;
    Schedule schedule;
    const double start = NowSeconds();
    {
      ScopedSpan root(tracer, "bench.solve");
      schedule = mirror.SchedulePa(inst, PaOptions{}, nullptr, nullptr);
    }
    traced_seconds += NowSeconds() - start;
    if (ScheduleFingerprint(inst, schedule) != reference[i]) {
      out.Fail(inst.name + ": traced PA twin differs from SchedulePa");
    }
    std::string why;
    {
      ScopedSpan root(tracer, "bench.check");
      ScopedSpan span(tracer, "sched.validate");
      why = CheckSchedule(inst, schedule);
    }
    if (why.empty()) {
      ++out.succeeded;
    } else {
      ++out.failed;
      out.Fail(inst.name + ": " + why);
    }
  }
  for (const std::string& m : mirror.Mismatches()) out.Fail("reconcile: " + m);

  std::map<std::string, double> values;
  mirror.AddMetrics(static_cast<double>(suite.size()), values);
  values["bench.trace_overhead_share"] = traced_seconds / quiet_seconds - 1.0;
  FinishTrace(tracer, "bench.solve", args, std::move(values), out);
}

}  // namespace

void RunSuitePa(const Args& args, Outcome& out) {
  EndToEnd e2e;
  const auto set_up = [&] {
    const double start = NowSeconds();
    std::vector<Instance> suite =
        GenerateSuites(args.seed, kSuites, kSuiteMaxTasks);
    e2e.RecordSetup(NowSeconds() - start);
    return suite;
  };
  const std::vector<Instance> suite = set_up();

  if (args.trace) {
    TracedSuite(args, suite, out);
    return;
  }

  // Passes over the whole set until the time is up, finishing the first
  // pass regardless: the makespan metric needs every instance once. The
  // set-up is repeated (and discarded) every kSetupEvery solves, so its
  // median samples the machine across the run like the other metrics do.
  std::vector<TimeT> makespans(suite.size(), -1);
  const double deadline = NowSeconds() + args.seconds;
  for (std::size_t k = 0; k < suite.size() || NowSeconds() < deadline; ++k) {
    const std::size_t i = k % suite.size();
    WallTimer timer;
    const Schedule schedule = SchedulePa(suite[i]);
    const double seconds = timer.ElapsedSeconds();
    ++out.attempted;
    const bool first = makespans[i] < 0;
    if (first) makespans[i] = schedule.makespan;
    if (CheckSolve(suite[i], schedule, first ? -1 : makespans[i], out)) {
      ++e2e.timed_ops;
      e2e.timed_seconds += seconds;
      e2e.RecordOp(seconds * 1e3);
    } else {
      e2e.RecordOp(std::numeric_limits<double>::infinity());
    }
    if ((k + 1) % kSetupEvery == 0) (void)set_up();
  }

  const Schedule good = SchedulePa(suite.front());
  NegativeSelfTest(suite.front(), good,
                   ScheduleResponseBody(suite.front(),
                                        HashInstance(suite.front()).ToHex(),
                                        "pa", good, 0),
                   out);

  for (const TimeT m : makespans) {
    e2e.makespans.push_back(static_cast<double>(m));
  }
  AddEndToEnd(e2e, out);
}

}  // namespace perfbench
