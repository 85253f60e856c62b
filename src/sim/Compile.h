//===- sim/Compile.h - Lowering designs to sim programs ---------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two lowering passes of the compiled-simulation layer. Both produce
/// a verified `sim::Program`; executed, either one agrees with the
/// reference interpreter on every output port, every cycle:
///
///  - `compile(ir::Function)` lowers a verified function off the cached
///    `ir::DefUse` analysis, reusing the same register-aware topological
///    order the reference interpreter evaluates in. One table word per
///    lane, holding the canonical (sign-extended) `interp::Value` lane.
///  - `compile(verilog::Module)` lowers the generated netlist's assigns
///    and primitive instances (LUTk / CARRY8 / FDRE / DSP48E2). The
///    lowering topologically orders the items *once* at compile time
///    (signal writer -> reader edges; sequential outputs are sources), so
///    the VM evaluates each item exactly once per cycle. Signals store
///    flattened bits packed 64 per word.
///
/// Neither pass retains a reference to its input: the returned program
/// owns all its tables, so it stays valid across later mutations of the
/// function (which invalidate `DefUse`) or the module.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_SIM_COMPILE_H
#define RETICLE_SIM_COMPILE_H

#include "ir/Function.h"
#include "obs/Context.h"
#include "sim/Program.h"
#include "support/Result.h"
#include "verilog/Ast.h"

namespace reticle {
namespace sim {

/// Lowers \p Fn into a simulation program equivalent to
/// `interp::interpret`. Fails when the function is ill-formed (same
/// verifier as the interpreter).
Result<Program> compile(const ir::Function &Fn, const obs::Context &Ctx);

/// Lowers \p M, a structural netlist from code generation, into a
/// simulation program. Each input step must provide a value for every
/// input port (except the implicit clock); each output step holds all
/// output ports as iN values of the port width (width-1 ports become
/// bool). Fails on combinational loops, on unknown primitives, and on
/// expression forms outside the structural subset code generation emits.
Result<Program> compile(const verilog::Module &M, const obs::Context &Ctx);

/// Unobserved form: records into sinks owned for the call.
Result<Program> compile(const verilog::Module &M);

} // namespace sim
} // namespace reticle

#endif // RETICLE_SIM_COMPILE_H
