// Public entry points for the PA deterministic scheduler (the paper's
// primary contribution, §IV-§V).
#pragma once

#include "core/options.hpp"
#include "sched/schedule.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace resched {

class FloorplanCache;

namespace pa {
class PaContext;
class PaScratch;
}  // namespace pa

/// Runs the full PA pipeline: the eight phases of §V including the
/// feasibility-check loop of §V-H (floorplan; on failure shrink the
/// virtually available resources by options.shrink_factor and restart).
/// Always returns a complete schedule: if no floorplannable region set is
/// found within options.max_shrink_rounds, the final round runs with zero
/// virtual FPGA capacity, i.e. an all-software schedule, which is trivially
/// feasible.
///
/// `cache`: optional shared floorplan-feasibility cache. When null and
/// options.floorplan_cache is set, a private cache spans the shrink rounds
/// of this call. Results are bit-identical with or without a cache.
///
/// `cancel`: optional cooperative cancellation token, polled at the top of
/// every shrink round; when it fires, CancelledError is thrown (the
/// reschedd per-request deadline path). Cancellation lives outside
/// PaOptions deliberately: PaContext borrows its options across requests
/// (warm reuse), while a token is strictly per-call.
Schedule SchedulePa(const Instance& instance, const PaOptions& options = {},
                    FloorplanCache* cache = nullptr,
                    const CancelToken* cancel = nullptr);

/// Warm-path variant of SchedulePa: runs the full §V pipeline including the
/// §V-H shrink loop against an existing context and scratch, so a caller
/// serving many requests over the same (instance, options) pair — the
/// reschedd worker — skips the per-call precompute entirely. The caller
/// must have validated the instance (PaContext construction assumes it).
/// Bit-identical to SchedulePa for the same (instance, options).
Schedule SchedulePaWarm(const pa::PaContext& ctx, pa::PaScratch& scratch,
                        FloorplanCache* cache = nullptr,
                        const CancelToken* cancel = nullptr);

/// One pass of the phases of §V-A..§V-G (no floorplanning) against a given
/// virtually available capacity: the doSchedule() of Algorithm 1, in the
/// hot-path form. The scratch is Reset() internally; `out` is fully
/// overwritten (buffers reused). Zero heap allocation in steady state.
/// `rng` is consulted only when the context's ordering == kRandom.
void RunPaCore(const pa::PaContext& ctx, pa::PaScratch& scratch,
               const ResourceVec& avail_cap, Rng& rng, Schedule& out);

/// Convenience wrapper that rebuilds the context and scratch per call, for
/// one-shot callers.
Schedule RunPaCore(const Instance& instance, const PaOptions& options,
                   const ResourceVec& avail_cap, Rng& rng);

}  // namespace resched
