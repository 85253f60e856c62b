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

} // namespace sim
} // namespace reticle

#endif // RETICLE_SIM_VM_H
