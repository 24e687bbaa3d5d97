// §V-A implementation selection and §V-B critical path extraction.
//
// Both phases are independent of the virtually available capacity, so the
// actual Eq.-(3) selection and the criticality snapshot are precomputed
// once in PaContext (pa_context.cpp); per restart the stages reduce to
// bulk installs into the scratch.
#include "core/pa_state.hpp"

namespace resched::pa {

void RunImplementationSelection(const PaContext& ctx, PaScratch& s) {
  (void)ctx;
  s.AdoptInitialImplementations();
}

void RunCriticalPathExtraction(const PaContext& ctx, PaScratch& s) {
  // The CPM windows themselves live in TimingContext (kept exact per edit);
  // here we pin the criticality labels that drive the phase-C processing
  // order, as the paper fixes them once after the initial schedule.
  (void)ctx;
  s.AdoptInitialCriticality();
}

}  // namespace resched::pa
