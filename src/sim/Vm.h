//===- sim/Vm.h - Bytecode simulation VM ------------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor of compiled simulation programs. `sim::execute` has the
/// same contract as `interp::interpret`: an input trace in, a
/// `Result`-wrapped output trace back, an optional `WaveSink` streamed the
/// settled state each cycle (flushed on abort), and counters reported
/// through the `obs::Context` (`sim.cycles` shared with the interpreter,
/// plus `sim.vm.cycles` and `sim.vm.ops`).
///
/// The VM verifies the program, then runs the `Init` segment once and the
/// `Eval`/`Commit` segments per cycle in a tight threaded loop over the
/// word table — no tree walking, no per-cycle allocation, no fixpoint
/// sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_SIM_VM_H
#define RETICLE_SIM_VM_H

#include "interp/Trace.h"
#include "interp/Wave.h"
#include "obs/Context.h"
#include "obs/Json.h"
#include "sim/Program.h"
#include "support/Result.h"

namespace reticle {
namespace sim {

/// Runs \p P over \p Inputs, one step per cycle, and returns the output
/// trace. The result matches the reference interpreter on the same
/// trace: equal for a program lowered from the IR, bit for bit on every
/// output port for one lowered from generated Verilog. \p Wave (may be
/// null) observes the settled state each cycle.
Result<interp::Trace> execute(const Program &P, const interp::Trace &Inputs,
                              WaveSink *Wave, const obs::Context &Ctx);

/// Unobserved form: records into sinks owned for the call.
Result<interp::Trace> execute(const Program &P, const interp::Trace &Inputs);

/// One profiled bytecode site: an instruction within a segment, its
/// dynamic execution count, and the source name the debug side table
/// attributes it to (empty when unattributed).
struct ProfileSite {
  unsigned Segment = 0; ///< 0 init, 1 eval, 2 commit
  uint32_t Offset = 0;  ///< word offset of the opcode
  Op Opcode = Op::EndSeg;
  uint64_t Count = 0;
  std::string Source;
};

/// The execution profile of one profiled run. Per-site counts are exact
/// (segments are straight-line, so every instruction executes once per
/// segment run); segment wall times are sampled on a subset of cycles.
struct VmProfile {
  uint64_t Cycles = 0;        ///< cycles completed
  uint64_t TotalOps = 0;      ///< dynamic instructions retired
  uint64_t AttributedOps = 0; ///< of which attributed to a named source
  uint64_t SampledCycles = 0; ///< cycles with segment timing sampled
  double EvalMs = 0.0;        ///< sampled wall time in the eval segment
  double CommitMs = 0.0;      ///< sampled wall time in the commit segment
  bool Aborted = false;       ///< the run failed; the profile is partial
  std::vector<ProfileSite> Sites; ///< segment/offset order
};

/// The profiled variant of execute(): identical semantics and output,
/// plus the per-op execution profile filled into \p Profile — also on a
/// failing run, so aborted simulations still report where time went.
Result<interp::Trace> execute(const Program &P, const interp::Trace &Inputs,
                              VmProfile &Profile, WaveSink *Wave,
                              const obs::Context &Ctx);

/// Renders \p Prof as a `reticle-profile-v1` document: total/attributed
/// op counts, sampled segment times, the hottest-instructions ranking,
/// and the per-source hottest-signals aggregation.
obs::Json profileJson(const Program &P, const VmProfile &Prof);

} // namespace sim
} // namespace reticle

#endif // RETICLE_SIM_VM_H
