// Byte-identity gate for PA and PA-R. Hashes the JSON form of every
// schedule (wall-clock fields zeroed) over 60 generated instances and
// compares the digests with constants recorded from the reference
// implementation. Any change to the scheduling pipeline that moves a single
// start, region, reconfiguration or floorplan rectangle fails here; a
// change meant to alter schedules must re-record the constants and say why.
//
// Instances cycle through three variants so the module-reuse extension and
// the HW<->SW transfer-cost extension (the paths that lower gaps and
// execution times again) are covered alongside the paper's plain model.
#include <gtest/gtest.h>

#include "arch/zynq.hpp"
#include "core/pa_scheduler.hpp"
#include "core/randomized.hpp"
#include "io/instance_hash.hpp"
#include "io/schedule_io.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace resched {
namespace {

constexpr std::size_t kInstances = 60;
constexpr std::size_t kRestarts = 64;

enum class Variant { kPlain, kModuleReuse, kTransferCost };

Variant VariantOf(std::size_t i) { return static_cast<Variant>(i % 3); }

Instance MakeInstance(std::size_t i) {
  GeneratorOptions gen;
  gen.num_tasks = 10 + ((i / 3) % 6) * 10;  // 10..60 tasks per variant
  Platform platform = MakeZedBoard();
  switch (VariantOf(i)) {
    case Variant::kPlain:
      break;
    case Variant::kModuleReuse:
      gen.share_prob = 0.5;  // many same-module neighbours
      break;
    case Variant::kTransferCost:
      gen.comm_bytes_lo = 10'000;
      gen.comm_bytes_hi = 2'000'000;
      platform = platform.WithHwSwBandwidth(200e6);
      break;
  }
  return GenerateInstance(platform, gen, DeriveSeed(0xD16E57, i),
                          "digest" + std::to_string(i));
}

PaOptions PaOptionsFor(std::size_t i) {
  PaOptions options;
  options.module_reuse = VariantOf(i) == Variant::kModuleReuse;
  return options;
}

PaROptions PaROptionsFor(std::size_t i, std::size_t threads) {
  PaROptions options;
  options.time_budget_seconds = 0.0;
  options.max_iterations = kRestarts;
  options.threads = threads;
  options.seed = DeriveSeed(0xD16E58, i);
  options.base = PaOptionsFor(i);
  return options;
}

/// JSON text of `schedule` without its wall-clock fields.
std::string StableText(const Instance& instance, Schedule schedule) {
  schedule.scheduling_seconds = 0.0;
  schedule.floorplanning_seconds = 0.0;
  return ScheduleToJson(instance, schedule).Dump(0);
}

class ScheduleDigest {
 public:
  void Add(const Instance& instance, const Schedule& schedule) {
    text_ += StableText(instance, schedule);
    text_ += '\n';
  }
  std::string Hex() const { return HashCanonicalText(text_).ToHex(); }

 private:
  std::string text_;
};

TEST(ScheduleDigestTest, PaSchedulesAreByteIdentical) {
  ScheduleDigest digest;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance inst = MakeInstance(i);
    digest.Add(inst, SchedulePa(inst, PaOptionsFor(i)));
  }
  EXPECT_EQ(digest.Hex(), "45cc6e48bd7e7b7288ccb8b1faa0a983");
}

TEST(ScheduleDigestTest, PaRSchedulesAreByteIdenticalOneThread) {
  ScheduleDigest digest;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance inst = MakeInstance(i);
    digest.Add(inst, SchedulePaR(inst, PaROptionsFor(i, 1)).best);
  }
  EXPECT_EQ(digest.Hex(), "20aa32acd91297e446c556909757a479");
}

TEST(ScheduleDigestTest, PaRSchedulesAreByteIdenticalFourThreads) {
  ScheduleDigest digest;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance inst = MakeInstance(i);
    digest.Add(inst, SchedulePaR(inst, PaROptionsFor(i, 4)).best);
  }
  EXPECT_EQ(digest.Hex(), "20aa32acd91297e446c556909757a479");
}

}  // namespace
}  // namespace resched
