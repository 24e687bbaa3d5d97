#include "checks.hpp"

#include <exception>

#include "io/schedule_io.hpp"
#include "sched/validator.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace resched;

std::string CheckSchedule(const Instance& instance, const Schedule& schedule) {
  ValidationOptions options;
  options.require_floorplan = !schedule.regions.empty();
  const ValidationResult result = ValidateSchedule(instance, schedule, options);
  if (!result.ok()) return "invalid schedule: " + result.Summary();
  if (schedule.makespan != schedule.ComputeMakespan()) {
    return "makespan " + std::to_string(schedule.makespan) +
           " disagrees with the task slots";
  }
  return {};
}

std::string CheckScheduleBody(const Instance& instance,
                              const std::string& body) {
  try {
    const JsonValue doc = JsonValue::Parse(body);
    if (!doc.GetBool("ok", false)) {
      return "error response: " + body.substr(0, 200);
    }
    const Schedule schedule = ScheduleFromJson(instance, doc.At("schedule"));
    if (doc.GetInt("makespan", -1) != schedule.makespan) {
      return "makespan field disagrees with the schedule body";
    }
    return CheckSchedule(instance, schedule);
  } catch (const std::exception& e) {
    return std::string("unreadable schedule body: ") + e.what();
  }
}

std::string CheckSimulateBody(const std::string& body, std::size_t trials,
                              bool nominal) {
  try {
    const JsonValue doc = JsonValue::Parse(body);
    if (!doc.GetBool("ok", false)) {
      return "error response: " + body.substr(0, 200);
    }
    const auto survived = doc.GetInt("survived", -1);
    const auto invalid = doc.GetInt("invalid", -1);
    const auto lost = doc.GetInt("lost", -1);
    if (doc.GetInt("trials", -1) != static_cast<std::int64_t>(trials) ||
        survived + invalid + lost != static_cast<std::int64_t>(trials)) {
      return "simulate trials do not add up: " + body.substr(0, 200);
    }
    if (invalid != 0) return "simulator produced an invalid executed schedule";
    if (nominal && survived != static_cast<std::int64_t>(trials)) {
      return "a fault-free replay did not survive";
    }
    return {};
  } catch (const std::exception& e) {
    return std::string("unreadable simulate body: ") + e.what();
  }
}

std::string ScheduleResponseBody(const Instance& instance,
                                 const std::string& instance_digest,
                                 const std::string& algo,
                                 const Schedule& schedule,
                                 std::size_t iterations) {
  JsonValue schedule_json = ScheduleToJson(instance, schedule);
  schedule_json.AsObject().erase("scheduling_seconds");
  schedule_json.AsObject().erase("floorplanning_seconds");
  JsonObject body;
  body["verb"] = "schedule";
  body["algo"] = algo;
  body["instance_digest"] = instance_digest;
  body["makespan"] = schedule.makespan;
  if (algo == "par") body["iterations"] = iterations;
  body["schedule"] = std::move(schedule_json);
  return service::OkBody(std::move(body));
}

Schedule CorruptSchedule(const Instance& instance, Schedule schedule) {
  const TaskGraph& graph = instance.graph;
  for (std::size_t v = 0; v < graph.NumTasks(); ++v) {
    const auto& preds = graph.Predecessors(static_cast<TaskId>(v));
    if (preds.empty()) continue;
    const TaskSlot& u =
        schedule.task_slots.at(static_cast<std::size_t>(preds[0]));
    TaskSlot& slot = schedule.task_slots.at(v);
    const TimeT length = slot.end - slot.start;
    slot.start = u.start;
    slot.end = u.start + length;
    return schedule;
  }
  // No edges at all: break the makespan instead.
  schedule.makespan += 1;
  return schedule;
}

std::string CorruptScheduleBody(const std::string& body) {
  const std::string marker = "\"start\":";
  const std::size_t at = body.find(marker, body.find("\"tasks\""));
  if (at == std::string::npos) return body + "}";
  const std::size_t num = at + marker.size();
  std::size_t end = num;
  while (end < body.size() && body[end] >= '0' && body[end] <= '9') ++end;
  const long long start = std::stoll(body.substr(num, end - num));
  return body.substr(0, num) + std::to_string(start + 1) + body.substr(end);
}

void NegativeSelfTest(const Instance& instance, const Schedule& good,
                      const std::string& good_body, Outcome& out) {
  if (CheckSchedule(instance, CorruptSchedule(instance, good)).empty()) {
    out.Fail("self-test: the schedule check accepted a corrupted schedule");
  }
  if (CheckScheduleBody(instance, CorruptScheduleBody(good_body)).empty()) {
    out.Fail("self-test: the body check accepted a corrupted response body");
  }
}

}  // namespace perfbench
