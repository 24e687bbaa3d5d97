// par_restarts: PA-R with a fixed restart cap and no wall-clock budget, so
// the best makespan is deterministic. Sixteen instances per size 20..100,
// 256 restarts each, seeded from the workload seed, on nproc threads; the
// op is one PA-R run. (Eighty instances rather than one per size:
// per-instance restart cost and best makespan vary widely, and the
// metrics must hold still from seed to seed. Short runs give the 1000
// ops per run that a p99 needs.) Every PA-R run shares
// one long-lived floorplan cache, as the reschedd worker pool does; a
// first, untimed round fills it, so the timed rounds measure the restart
// loop (core phases, PaScratch reuse, timeline kernels, shared-cache
// concurrency) and floorplan DFS runs only on improvements the cache has
// not seen. Without the warm round, cold DFS cost (heavy-tailed per
// instance) swings the restart rate by ~30% from seed to seed.
#include <limits>
#include <memory>
#include <thread>

#include "arch/zynq.hpp"
#include "checks.hpp"
#include "io/instance_hash.hpp"
#include "mirror.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace perfbench {

using namespace resched;

namespace {

constexpr std::size_t kSizes[] = {20, 40, 60, 80, 100};
constexpr std::size_t kPerSize = 16;
constexpr std::size_t kRestarts = 256;
/// Shared-cache capacities: far above the distinct queries of a run, so
/// timed rounds replay the warm round's verdicts instead of evicting them.
constexpr std::size_t kVerdictCapacity = 1u << 16;
constexpr std::size_t kCatalogCapacity = 1u << 14;
/// DeriveSeed streams separating instance and PA-R seeds of one run.
constexpr std::uint64_t kInstanceStream = 0x9A12'0000'0000'0001ULL;
constexpr std::uint64_t kRestartStream = 0x9A12'0000'0000'0002ULL;

/// kPerSize instances per size; instance i has kSizes[i / kPerSize] tasks.
std::vector<Instance> GenerateInstances(std::uint64_t seed) {
  const Platform platform = MakeZedBoard();
  std::vector<Instance> instances;
  for (std::size_t i = 0; i < std::size(kSizes) * kPerSize; ++i) {
    GeneratorOptions options;
    options.num_tasks = kSizes[i / kPerSize];
    instances.push_back(GenerateInstance(
        platform, options, DeriveSeed(kInstanceStream ^ seed, i),
        StrFormat("par_n%zu_i%zu", options.num_tasks, i % kPerSize)));
  }
  return instances;
}

std::unique_ptr<FloorplanCache> SharedCache(const Instance& any) {
  return std::make_unique<FloorplanCache>(any.platform.Device(),
                                          kVerdictCapacity, kCatalogCapacity);
}

/// PA-R options of instance `index`.
PaROptions Options(std::uint64_t seed, std::size_t index,
                   std::size_t threads) {
  PaROptions options;
  options.time_budget_seconds = 0.0;
  options.max_iterations = kRestarts;
  options.threads = threads;
  options.seed = DeriveSeed(kRestartStream ^ seed, index);
  return options;
}

void TracedRestarts(const Args& args, const std::vector<Instance>& instances,
                    Outcome& out) {
  const auto options = [&](std::size_t i) {
    return Options(args.seed, i, 1);
  };
  // Reference: the library's SchedulePaR on its own shared cache, a warm
  // round then the measured round, single-threaded.
  const auto ref_cache = SharedCache(instances.front());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    (void)SchedulePaR(instances[i], options(i), ref_cache.get());
  }
  std::vector<std::string> reference;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const PaRResult r = SchedulePaR(instances[i], options(i), ref_cache.get());
    reference.push_back(ScheduleFingerprint(instances[i], r.best));
  }

  // The twin on two more caches, each warmed the same way: one replays
  // the measured round with spans off, the other with spans on
  // (interleaved per instance, see suite_pa).
  Tracer quiet(false);
  Mirror quiet_mirror(quiet);
  const auto quiet_cache = SharedCache(instances.front());
  FloorplanModel quiet_model;
  Tracer tracer(true);
  Mirror mirror(tracer);
  const auto cache = SharedCache(instances.front());
  FloorplanModel model;
  {
    Mirror warm(quiet);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      (void)warm.SchedulePaR(instances[i], options(i), quiet_cache.get(),
                             &quiet_model);
      (void)warm.SchedulePaR(instances[i], options(i), cache.get(), &model);
    }
  }

  double quiet_seconds = 0.0;
  double traced_seconds = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const double quiet_start = NowSeconds();
    (void)quiet_mirror.SchedulePaR(inst, options(i), quiet_cache.get(),
                                   &quiet_model);
    quiet_seconds += NowSeconds() - quiet_start;

    ++out.attempted;
    PaRResult result;
    const double start = NowSeconds();
    {
      ScopedSpan root(tracer, "bench.par_run");
      result = mirror.SchedulePaR(inst, options(i), cache.get(), &model);
    }
    traced_seconds += NowSeconds() - start;
    if (ScheduleFingerprint(inst, result.best) != reference[i]) {
      out.Fail(inst.name + ": traced PA-R twin differs from SchedulePaR");
    }
    std::string why;
    {
      ScopedSpan root(tracer, "bench.check");
      ScopedSpan span(tracer, "sched.validate");
      why = CheckSchedule(inst, result.best);
    }
    if (why.empty()) {
      ++out.succeeded;
    } else {
      ++out.failed;
      out.Fail(inst.name + ": " + why);
    }
  }
  mirror.Reconcile(*cache, model);
  for (const std::string& m : mirror.Mismatches()) out.Fail("reconcile: " + m);

  std::map<std::string, double> values;
  mirror.AddMetrics(static_cast<double>(instances.size()), values);
  values["bench.trace_overhead_share"] = traced_seconds / quiet_seconds - 1.0;
  FinishTrace(tracer, "bench.par_run", args, std::move(values), out);
}

}  // namespace

void RunParRestarts(const Args& args, Outcome& out) {
  EndToEnd e2e;
  const auto set_up = [&] {
    const double start = NowSeconds();
    std::vector<Instance> instances = GenerateInstances(args.seed);
    e2e.RecordSetup(NowSeconds() - start);
    return instances;
  };
  const std::vector<Instance> instances = set_up();

  if (args.trace) {
    TracedRestarts(args, instances, out);
    return;
  }

  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto cache = SharedCache(instances.front());
  std::vector<TimeT> best(instances.size(), -1);
  double deadline = 0.0;
  // Whole rounds over every instance until the time is up, at least one
  // timed. Round 0 warms the shared cache and is checked, not timed. The
  // set-up is repeated (and discarded) before every timed round, so its
  // median samples the machine across the run like the other metrics.
  for (int round = 0; round < 2 || NowSeconds() < deadline; ++round) {
    if (round > 0) (void)set_up();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& inst = instances[i];
      const double start = NowSeconds();
      PaRResult result =
          SchedulePaR(inst, Options(args.seed, i, threads), cache.get());
      const double seconds = NowSeconds() - start;
      ++out.attempted;

      const bool first = best[i] < 0;
      if (first) best[i] = result.best.makespan;
      std::string why = CheckSchedule(inst, result.best);
      if (why.empty() && result.iterations != kRestarts) {
        why = "ran " + std::to_string(result.iterations) + " restarts, not " +
              std::to_string(kRestarts);
      }
      if (why.empty() && result.best.makespan != best[i]) {
        why = "best makespan changed between repeats of one instance";
      }
      if (why.empty()) {
        ++out.succeeded;
      } else {
        ++out.failed;
        out.Fail(inst.name + ": " + why);
      }
      if (round == 0) e2e.probe.Sample();
      if (round > 0 && why.empty()) {
        ++e2e.timed_ops;
        e2e.timed_seconds += seconds;
        e2e.RecordOp(seconds * 1e3);
      } else if (round > 0) {
        e2e.RecordOp(std::numeric_limits<double>::infinity());
      }
    }
    if (round == 0) deadline = NowSeconds() + args.seconds;
  }

  const Instance& probe = instances.front();
  const PaRResult good = SchedulePaR(probe, Options(args.seed, 0, 1));
  NegativeSelfTest(probe, good.best,
                   ScheduleResponseBody(probe, HashInstance(probe).ToHex(),
                                        "par", good.best, good.iterations),
                   out);

  for (const TimeT m : best) e2e.makespans.push_back(static_cast<double>(m));
  AddEndToEnd(e2e, out);
  out.notes["threads"] = static_cast<double>(threads);
}

}  // namespace perfbench
