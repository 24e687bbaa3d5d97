// resched_perfbench: runs one workload of the repository benchmark and
// prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics. The line before it carries provenance
// (machine, build, SIMD backend, seed) and the failure accounting.
//
//   resched_perfbench --workload suite_pa|par_restarts|fleet_mix
//                     --seed N --seconds S --trace 0|1
//                     [--git REV] [--src-digest HEX] [--work-dir DIR]
//
// Exit status: 0 when every output check, determinism check and counter
// reconciliation passed, 1 when one failed, 2 on a usage error.
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "util/build_info.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

/// A later claim must also hold on this seed, which is never used while a
/// change is being written (see perfbench/README.md).
constexpr std::uint64_t kHeldOutSeed = 8675309;

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "resched_perfbench: " << why << "\n"
            << "usage: resched_perfbench --workload "
               "suite_pa|par_restarts|fleet_mix --seed N --seconds S "
               "--trace 0|1 [--git REV] [--src-digest HEX] [--work-dir DIR]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--git") {
        args.git = value;
      } else if (flag == "--src-digest") {
        args.src_digest = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Shortest text that reads back as the same double; JSON has no
/// infinity, so a latency made infinite by failed requests prints as the
/// largest finite double.
std::string Number(double value) {
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

void PrintReport(const Args& args, const Outcome& out) {
  using resched::JsonArray;
  using resched::JsonObject;
  using resched::JsonValue;
  const resched::BuildInfo& build = resched::GetBuildInfo();
  JsonObject provenance;
  provenance["workload"] = args.workload;
  provenance["seed"] = std::to_string(args.seed);
  provenance["held_out_seed"] = std::to_string(kHeldOutSeed);
  provenance["trace"] = args.trace;
  provenance["seconds"] = args.seconds;
  provenance["nproc"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  provenance["cpu_model"] = CpuModel();
  provenance["compiler"] = build.compiler;
  provenance["build_type"] = build.build_type;
  provenance["sanitizers"] = build.sanitizers;
  provenance["simd_backend"] =
      resched::simd::BackendName(resched::simd::ActiveBackend());
  provenance["git"] = args.git;
  provenance["src_digest"] = args.src_digest;

  // The refusal codes a client must plan for always appear, zero or not.
  JsonObject refused{{"overloaded", 0}, {"deadline_exceeded", 0},
                     {"internal", 0}};
  for (const auto& [code, n] : out.refused) {
    refused[code] = static_cast<std::int64_t>(n);
  }
  JsonObject accounting;
  accounting["attempted"] = static_cast<std::int64_t>(out.attempted);
  accounting["succeeded"] = static_cast<std::int64_t>(out.succeeded);
  accounting["failed"] = static_cast<std::int64_t>(out.failed);
  accounting["refused"] = JsonValue(std::move(refused));

  JsonArray errors;
  for (const std::string& e : out.errors) errors.push_back(e);
  JsonObject notes;
  for (const auto& [k, v] : out.notes) notes[k] = v;

  JsonObject report;
  report["provenance"] = JsonValue(std::move(provenance));
  report["accounting"] = JsonValue(std::move(accounting));
  report["errors"] = JsonValue(std::move(errors));
  report["notes"] = JsonValue(std::move(notes));
  std::cout << JsonValue(std::move(report)).Dump(-1) << "\n";

  std::string result = "{\"correct\": ";
  result += out.Correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(out.attempted);
  result += ", \"failed\": " + std::to_string(out.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Outcome::Metric& m = out.metrics[i];
    if (i > 0) result += ", ";
    result += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
  }
  result += "}}";
  std::cout << result << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "suite_pa") {
      perfbench::RunSuitePa(args, out);
    } else if (args.workload == "par_restarts") {
      perfbench::RunParRestarts(args, out);
    } else if (args.workload == "fleet_mix") {
      perfbench::RunFleetMix(args, out);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    out.Fail(std::string("run aborted: ") + e.what());
  }
  if (out.attempted == 0) out.Fail("no operation was attempted");
  for (const std::string& e : out.errors) std::cerr << "FAIL: " << e << "\n";
  PrintReport(args, out);
  return out.Correct() ? 0 : 1;
}
