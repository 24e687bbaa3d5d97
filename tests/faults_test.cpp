// Tests for the fault-injection layer: deterministic scenario generation,
// JSON round-trips, the faulted discrete-event replay, and the recovery
// policies' survival + executed-schedule guarantees.
#include <gtest/gtest.h>

#include "core/pa_scheduler.hpp"
#include "io/fault_io.hpp"
#include "sched/validator.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"

namespace resched {
namespace {

using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultRates;
using sim::FaultScenario;
using sim::GenerateFaultScenario;
using sim::OutagesFromScenario;
using sim::SimOptions;
using sim::SimResult;
using sim::Simulate;
using sim::UniformFaultRates;

Instance MakeInstance(std::size_t n, std::uint64_t seed) {
  GeneratorOptions gen;
  gen.num_tasks = n;
  return GenerateInstance(MakeZedBoard(), gen, seed, "faults");
}

TEST(FaultScenarioTest, GenerationIsDeterministic) {
  const Instance inst = MakeInstance(30, 3);
  const Schedule s = SchedulePa(inst);
  const FaultRates rates = UniformFaultRates(0.3);
  const FaultScenario a = GenerateFaultScenario(s, rates, 42);
  const FaultScenario b = GenerateFaultScenario(s, rates, 42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.Empty());
}

TEST(FaultScenarioTest, ZeroRatesYieldEmptyScenario) {
  const Instance inst = MakeInstance(20, 4);
  const Schedule s = SchedulePa(inst);
  const FaultScenario empty = GenerateFaultScenario(s, FaultRates{}, 7);
  EXPECT_TRUE(empty.Empty());
}

TEST(FaultScenarioTest, UniformRatesMapping) {
  const FaultRates r = UniformFaultRates(0.2);
  EXPECT_DOUBLE_EQ(r.reconf_failure_prob, 0.2);
  EXPECT_DOUBLE_EQ(r.transient_region_prob, 0.2);
  EXPECT_DOUBLE_EQ(r.permanent_region_prob, 0.05);
  EXPECT_DOUBLE_EQ(r.task_crash_prob, 0.1);
  EXPECT_DOUBLE_EQ(r.task_overrun_prob, 0.2);
}

TEST(FaultScenarioTest, JsonRoundTrip) {
  const Instance inst = MakeInstance(30, 5);
  const Schedule s = SchedulePa(inst);
  const FaultScenario scenario =
      GenerateFaultScenario(s, UniformFaultRates(0.4), 99);
  ASSERT_FALSE(scenario.Empty());
  const std::string text = FaultScenarioToString(scenario);
  const FaultScenario back = FaultScenarioFromString(text);
  EXPECT_EQ(scenario, back);
}

TEST(FaultScenarioTest, RejectsForeignDocuments) {
  EXPECT_THROW(FaultScenarioFromString("{\"format\": \"nope\"}"),
               InstanceError);
}

TEST(FaultedSimTest, EmptyScenarioReplayIsTight) {
  // Without faults the replay keeps every resource's plan order and starts
  // each operation the moment its plan-order predecessors allow, with or
  // without jitter and whatever the recovery policy.
  const Instance inst = MakeInstance(30, 6);
  const Schedule s = SchedulePa(inst);
  for (const double jitter : {0.0, 0.25}) {
    SimOptions opt;
    opt.task_jitter = jitter;
    opt.reconf_jitter = jitter;
    opt.seed = 17;
    opt.recovery.policy = RecoveryPolicy::kSuffixReschedule;
    const SimResult r = Simulate(inst, s, opt);
    EXPECT_EQ(testing::ReplayTightnessViolations(inst, s, r.executed),
              std::vector<std::string>{})
        << "jitter " << jitter;
    EXPECT_EQ(r.recovery.reconf_retries, 0u);
    EXPECT_EQ(r.recovery.task_restarts, 0u);
    EXPECT_EQ(r.recovery.migrations, 0u);
    EXPECT_EQ(r.recovery.rescheduled_tasks, 0u);
    EXPECT_TRUE(r.recovery.survived);
  }
}

TEST(FaultedSimTest, SuffixRepairRedoesDisplacedReconfiguration) {
  // Hand-built plan: `a` runs in region 0; `b` (a's successor) is loaded
  // into region 1 early and waits for `a`. Region 0 dies while `a` runs,
  // and suffix repair moves `a` into region 1 ahead of `b`. `a`'s bitstream
  // overwrites `b`'s (loaded or still loading), so `b` must be
  // reconfigured again after `a` ends. Reusing the earlier reconfiguration
  // would run `b` on `a`'s configuration, which the validator rejects.
  TaskGraph g;
  const TaskId a = g.AddTask("a");
  g.AddImpl(a, testing::SwImpl(100'000));
  g.AddImpl(a, testing::HwImpl(10'000, 500));
  const TaskId b = g.AddTask("b");
  g.AddImpl(b, testing::SwImpl(100'000));
  g.AddImpl(b, testing::HwImpl(10'000, 500));
  g.AddEdge(a, b);
  Instance inst{"displaced", testing::MakeSmallPlatform(), std::move(g)};
  const ResourceVec res = inst.graph.GetImpl(a, 1).res;
  const TimeT rt = inst.platform.ReconfTicks(res);
  ASSERT_LT(rt, 10'000);

  Schedule s;
  auto hw_slot = [](TaskId t, std::size_t region, TimeT start) {
    TaskSlot slot;
    slot.task = t;
    slot.impl_index = 1;
    slot.target = TargetKind::kRegion;
    slot.target_index = region;
    slot.start = start;
    slot.end = start + 10'000;
    return slot;
  };
  s.task_slots = {hw_slot(a, 0, rt), hw_slot(b, 1, rt + 10'000)};
  for (const TaskId t : {a, b}) {
    RegionInfo region;
    region.res = res;
    region.reconf_time = rt;
    region.tasks = {t};
    s.regions.push_back(region);
  }
  s.reconfigurations = {ReconfSlot{0, a, 0, rt, 0},
                        ReconfSlot{1, b, rt, 2 * rt, 0}};
  s.makespan = rt + 20'000;

  // Region 0 dies while `a` runs: once while `b`'s bitstream is still
  // loading, once after it is loaded.
  for (const TimeT at : {rt + 1, 2 * rt + 1}) {
    FaultEvent loss;
    loss.kind = FaultKind::kPermanentRegionLoss;
    loss.index = 0;
    loss.at = at;
    SimOptions opt;
    opt.faults.events.push_back(loss);
    opt.recovery.policy = RecoveryPolicy::kSuffixReschedule;
    const SimResult r = Simulate(inst, s, opt);
    ASSERT_TRUE(r.recovery.survived) << "loss at " << at;
    EXPECT_EQ(r.recovery.rescheduled_tasks, 1u) << "loss at " << at;
    const TaskSlot& moved =
        r.executed.task_slots[static_cast<std::size_t>(a)];
    ASSERT_TRUE(moved.OnFpga()) << "loss at " << at;
    EXPECT_EQ(moved.target_index, 1u) << "loss at " << at;
    std::size_t b_loads = 0;
    for (const ReconfSlot& reconf : r.executed.reconfigurations) {
      if (reconf.loads_task != b) continue;
      ++b_loads;
      EXPECT_GE(reconf.start, moved.end) << "loss at " << at;
    }
    EXPECT_EQ(b_loads, 1u) << "loss at " << at;
    ValidationOptions vopt;
    vopt.executed = true;
    vopt.outages = OutagesFromScenario(opt.faults);
    const ValidationResult v = ValidateSchedule(inst, r.executed, vopt);
    EXPECT_TRUE(v.ok()) << "loss at " << at << "\n" << v.Summary();
  }
}

TEST(FaultedSimTest, SurvivesAndValidatesUnderAllPolicies) {
  // Nonzero fault rates: the run must finish every task and the
  // as-executed schedule must pass the independent validator with the
  // scenario's outage windows.
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRetry, RecoveryPolicy::kSoftwareFallback,
        RecoveryPolicy::kSuffixReschedule}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      const Instance inst = MakeInstance(30, seed);
      const Schedule s = SchedulePa(inst);
      SimOptions opt;
      opt.task_jitter = 0.2;
      opt.reconf_jitter = 0.2;
      opt.seed = DeriveSeed(kJitterSeedStream, seed);
      opt.faults = GenerateFaultScenario(s, UniformFaultRates(0.3),
                                         DeriveSeed(kFaultSeedStream, seed));
      opt.recovery.policy = policy;
      const SimResult r = Simulate(inst, s, opt);
      EXPECT_TRUE(r.recovery.survived);
      EXPECT_GT(r.makespan, 0);
      ValidationOptions vopt;
      vopt.executed = true;
      vopt.outages = OutagesFromScenario(opt.faults);
      const ValidationResult v = ValidateSchedule(inst, r.executed, vopt);
      EXPECT_TRUE(v.ok()) << "policy " << ToString(policy) << " seed "
                          << seed << "\n" << v.Summary();
    }
  }
}

TEST(FaultedSimTest, FaultedReplayIsDeterministic) {
  const Instance inst = MakeInstance(30, 8);
  const Schedule s = SchedulePa(inst);
  SimOptions opt;
  opt.task_jitter = 0.25;
  opt.reconf_jitter = 0.25;
  opt.seed = 23;
  opt.faults = GenerateFaultScenario(s, UniformFaultRates(0.3), 31);
  opt.recovery.policy = RecoveryPolicy::kSuffixReschedule;
  const SimResult a = Simulate(inst, s, opt);
  const SimResult b = Simulate(inst, s, opt);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.task_start, b.task_start);
  EXPECT_EQ(a.task_end, b.task_end);
  EXPECT_EQ(a.recovery.reconf_retries, b.recovery.reconf_retries);
  EXPECT_EQ(a.recovery.task_restarts, b.recovery.task_restarts);
  EXPECT_EQ(a.recovery.migrations, b.recovery.migrations);
  EXPECT_EQ(a.recovery.rescheduled_tasks, b.recovery.rescheduled_tasks);
}

TEST(FaultedSimTest, ReconfFailureCountsRetries) {
  // Find a schedule with at least one reconfiguration and fail its first
  // one twice: the telemetry must record exactly those two retries.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Instance inst = MakeInstance(30, seed);
    const Schedule s = SchedulePa(inst);
    if (s.reconfigurations.empty()) continue;
    FaultEvent event;
    event.kind = FaultKind::kReconfFailure;
    event.index = 0;
    event.count = 2;
    SimOptions opt;
    opt.faults.events.push_back(event);
    const SimResult r = Simulate(inst, s, opt);
    EXPECT_TRUE(r.recovery.survived);
    EXPECT_EQ(r.recovery.reconf_retries, 2u);
    EXPECT_EQ(r.recovery.abandoned_regions, 0u);
    return;
  }
  FAIL() << "no generated schedule used a reconfiguration";
}

TEST(FaultedSimTest, NoSoftwareImplementationTripsDeadlockGuard) {
  // A task whose only implementation is hardware loses its region for
  // good: no policy can recover, and the planner must say so loudly
  // rather than stall.
  // Hand-built schedule: the production schedulers refuse HW-only tasks
  // precisely because of this guarantee, so the scenario is constructed
  // directly.
  TaskGraph g;
  const TaskId t = g.AddTask("hw-only");
  g.AddImpl(t, testing::HwImpl(1000, 500));
  Instance inst{"hw-only", testing::MakeSmallPlatform(), std::move(g)};
  Schedule s;
  TaskSlot slot;
  slot.task = t;
  slot.impl_index = 0;
  slot.target = TargetKind::kRegion;
  slot.target_index = 0;
  slot.start = 0;
  slot.end = 1000;
  s.task_slots.push_back(slot);
  RegionInfo region;
  region.res = inst.graph.GetImpl(t, 0).res;
  region.reconf_time = 100;
  region.tasks.push_back(t);  // pre-loaded: no reconfiguration needed
  s.regions.push_back(region);
  s.makespan = 1000;
  FaultEvent loss;
  loss.kind = FaultKind::kPermanentRegionLoss;
  loss.index = 0;
  loss.at = 0;
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRetry, RecoveryPolicy::kSoftwareFallback,
        RecoveryPolicy::kSuffixReschedule}) {
    SimOptions opt;
    opt.faults.events.push_back(loss);
    opt.recovery.policy = policy;
    EXPECT_THROW(Simulate(inst, s, opt), InstanceError)
        << "policy " << ToString(policy);
  }
}

TEST(FaultedSimTest, ScenarioIndexOutOfRangeThrows) {
  const Instance inst = MakeInstance(10, 9);
  const Schedule s = SchedulePa(inst);
  FaultEvent bogus;
  bogus.kind = FaultKind::kTransientRegionFault;
  bogus.index = s.regions.size() + 10;
  bogus.at = 1;
  bogus.window = 5;
  SimOptions opt;
  opt.faults.events.push_back(bogus);
  EXPECT_THROW(Simulate(inst, s, opt), InstanceError);
}

}  // namespace
}  // namespace resched
