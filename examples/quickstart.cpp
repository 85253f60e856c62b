//===- examples/quickstart.cpp - Reticle in five minutes -----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The smallest end-to-end tour: write an intermediate-language program as
/// text, check it with the interpreter, compile it through instruction
/// selection, placement, and code generation, and look at every
/// intermediate artifact on the way down (paper Figure 7).
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Parser.h"

#include <cstdio>

using namespace reticle;

int main() {
  // A multiply-accumulate with a pipeline register (Figure 8 plus state).
  const char *Source = R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )";
  Result<ir::Function> Fn = ir::parseFunction(Source);
  if (!Fn) {
    std::printf("parse error: %s\n", Fn.error().c_str());
    return 1;
  }
  std::printf("== intermediate program ==\n%s\n", Fn.value().str().c_str());

  // Debug the program with the interpreter before touching hardware
  // (Section 6.2): drive a*b+c = 3*4+5 for three cycles.
  interp::Trace Input;
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    interp::Step &S = Input.appendStep();
    S["a"] = interp::Value::splat(ir::Type::makeInt(8), 3);
    S["b"] = interp::Value::splat(ir::Type::makeInt(8), 4);
    S["c"] = interp::Value::splat(ir::Type::makeInt(8), 5);
    S["en"] = interp::Value::makeBool(true);
  }
  Result<interp::Trace> Out = interp::interpret(Fn.value(), Input);
  if (!Out) {
    std::printf("interpreter error: %s\n", Out.error().c_str());
    return 1;
  }
  std::printf("== interpreter trace (y per cycle) ==\n");
  for (size_t Cycle = 0; Cycle < Out.value().size(); ++Cycle)
    std::printf("  cycle %zu: y = %s\n", Cycle,
                Out.value().get(Cycle, "y")->str().c_str());

  // Compile for the paper's device. The mul+add+reg fuses into a single
  // DSP with its post-adder and pipeline register. The session receives
  // the compile's counters, remarks and coverage.
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn.value(), {}, Session);
  if (!R) {
    std::printf("compile error: %s\n", R.error().c_str());
    return 1;
  }
  const core::CompileResult &C = R.value();
  std::printf("\n== selected assembly (family-specific) ==\n%s\n",
              C.Asm.str().c_str());
  std::printf("== placed assembly (device-specific) ==\n%s\n",
              C.Placed.str().c_str());
  std::printf("== structural Verilog with layout attributes ==\n%s\n",
              C.Verilog.str().c_str());
  std::printf("== statistics ==\n");
  std::printf("  DSPs %u, LUTs %u, FFs %u\n", C.Util.Dsps, C.Util.Luts,
              C.Util.Ffs);
  std::printf("  critical path %.2f ns (%.1f MHz)\n",
              C.Timing.CriticalPathNs, C.Timing.FmaxMhz);
  std::printf("  compile %.2f ms (select %.2f, place %.2f, codegen %.2f)\n",
              C.Times.TotalMs, C.Times.SelectMs, C.Times.PlaceMs, C.Times.CodegenMs);
  return 0;
}
