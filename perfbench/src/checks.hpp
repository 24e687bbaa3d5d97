// Output checks. Every check returns an empty string when the output is
// correct and a reason otherwise; the workloads turn reasons into run
// failures. The negative self-test feeds the checks deliberately
// corrupted outputs and fails the run if either is accepted.
#pragma once

#include <string>

#include "bench.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

/// ValidateSchedule (with the floorplan required whenever the schedule
/// has regions) plus a makespan recomputation.
std::string CheckSchedule(const resched::Instance& instance,
                          const resched::Schedule& schedule);

/// A reschedd `schedule` response body: ok, parsed back with
/// ScheduleFromJson, re-validated against its instance, and its makespan
/// field equal to the parsed schedule's.
std::string CheckScheduleBody(const resched::Instance& instance,
                              const std::string& body);

/// A reschedd `simulate` response body: ok, every trial accounted for,
/// no invalid executed schedule, and every nominal (fault-free) trial
/// survived.
std::string CheckSimulateBody(const std::string& body, std::size_t trials,
                              bool nominal);

/// The body reschedd answers a deterministic `schedule` request with
/// (the server's ExecuteSchedule, rebuilt from public functions):
/// `iterations` is written for PA-R only.
std::string ScheduleResponseBody(const resched::Instance& instance,
                                 const std::string& instance_digest,
                                 const std::string& algo,
                                 const resched::Schedule& schedule,
                                 std::size_t iterations);

/// Moves one task ahead of its predecessor (a precedence violation).
resched::Schedule CorruptSchedule(const resched::Instance& instance,
                                  resched::Schedule schedule);
/// Shifts the first task's start inside a schedule response body.
std::string CorruptScheduleBody(const std::string& body);

/// Requires CheckSchedule and CheckScheduleBody to reject corrupted
/// copies of a known-good schedule and body.
void NegativeSelfTest(const resched::Instance& instance,
                      const resched::Schedule& good,
                      const std::string& good_body, Outcome& out);

}  // namespace perfbench
