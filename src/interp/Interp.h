//===- interp/Interp.h - The Reticle interpreter ----------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference interpreter of Algorithm 1 (Section 6.2). It steps a
/// function through an input trace and produces an output trace, giving
/// users a fast way to debug programs without programming an FPGA, and
/// giving this project a semantics oracle for translation validation.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_INTERP_INTERP_H
#define RETICLE_INTERP_INTERP_H

#include "interp/Trace.h"
#include "interp/Wave.h"
#include "ir/Function.h"
#include "obs/Context.h"
#include "support/Result.h"

namespace reticle {
namespace interp {

/// Interprets \p Fn over \p Input (Algorithm 1).
///
/// Each input step must provide a value for every function input with the
/// declared type. The result trace has one step per input step, holding all
/// declared outputs. Fails when the function is ill-formed or the trace is
/// incomplete or ill-typed.
///
/// Streams every value (inputs, internal instruction results, registers,
/// outputs) into \p Wave cycle by cycle (null for no waveform). The
/// verifier, the def-use analysis, the `interp.execute` span,
/// `sim.cycles` and `interp.*` record into \p Ctx. A failing run still
/// finishes the sink (aborted) so partial waveforms flush.
Result<Trace> interpret(const ir::Function &Fn, const Trace &Input,
                        sim::WaveSink *Wave, const obs::Context &Ctx);

/// Unobserved form: records into sinks owned for the call.
Result<Trace> interpret(const ir::Function &Fn, const Trace &Input);

} // namespace interp
} // namespace reticle

#endif // RETICLE_INTERP_INTERP_H
