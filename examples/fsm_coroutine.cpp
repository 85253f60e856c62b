//===- examples/fsm_coroutine.cpp - Control-oriented programs ------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The paper's control-flow workload (Section 7.1): a coroutine
/// implemented as a hardware finite state machine. Conditional branching
/// needs multiplexing, which only LUT fabric provides, so the whole
/// design maps to LUTs — Reticle's pathological case, and still a
/// supported one. The example interprets the machine against a stimulus,
/// compiles it, and shows the resulting LUT-only utilization.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "frontend/Benchmarks.h"
#include "interp/Interp.h"

#include <cstdio>

using namespace reticle;

int main() {
  constexpr unsigned States = 5;
  ir::Function Fn = frontend::makeFsm(States);
  std::printf("== coroutine state machine over %u states ==\n%s\n", States,
              Fn.str().c_str());

  // Drive the machine: strong inputs advance it, weak inputs hold it.
  interp::Trace Input;
  int64_t Stimulus[] = {100, 100, 0, 0, 100, 100, 100, 100};
  for (int64_t In : Stimulus) {
    interp::Step &S = Input.appendStep();
    S["in"] = interp::Value::splat(ir::Type::makeInt(8), In);
    S["en"] = interp::Value::makeBool(true);
  }
  Result<interp::Trace> Out = interp::interpret(Fn, Input);
  if (!Out) {
    std::printf("interpreter error: %s\n", Out.error().c_str());
    return 1;
  }
  std::printf("stimulus -> state:\n");
  for (size_t Cycle = 0; Cycle < Out.value().size(); ++Cycle)
    std::printf("  cycle %zu: in=%3lld  state=%s\n", Cycle,
                static_cast<long long>(Stimulus[Cycle]),
                Out.value().get(Cycle, "state")->str().c_str());

  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn, {}, Session);
  if (!R) {
    std::printf("compile error: %s\n", R.error().c_str());
    return 1;
  }
  std::printf("\ncompiled: %u LUTs, %u FFs, %u DSPs (control logic "
              "cannot use DSPs)\n",
              R.value().Util.Luts, R.value().Util.Ffs, R.value().Util.Dsps);
  std::printf("critical path %.2f ns (%.1f MHz), compile %.1f ms\n",
              R.value().Timing.CriticalPathNs, R.value().Timing.FmaxMhz,
              R.value().Times.TotalMs);

  // Every compute instruction landed on a LUT slice.
  for (const rasm::AsmInstr &I : R.value().Placed.body())
    if (!I.isWire() && I.loc().Prim != ir::Resource::Lut) {
      std::printf("unexpected non-LUT instruction: %s\n", I.str().c_str());
      return 1;
    }
  return 0;
}
