//===- tests/sim_vm_race_check.cpp - Concurrent VM execution check --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// A plain-main (no gtest) check that one compiled `sim::Program` can be
/// executed from many threads at once: the program is immutable after
/// compilation, every mutable word of simulation state lives in
/// per-execution buffers, so N concurrent runs over the same program must
/// all produce the sequential reference trace. Built without a test
/// framework so it can also be compiled under ThreadSanitizer, where it
/// serves as the data-race detector for the compiled-simulation path (see
/// scripts/check.sh).
///
/// Exit code 0 on success, 1 on any mismatch or failure.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Parser.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace reticle;
using interp::Trace;
using interp::Value;

namespace {

const char *Source = R"(
def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
  t0:i8 = mul(a, b) @??;
  t1:i8 = add(t0, c) @??;
  y:i8 = reg[0](t1, en) @??;
}
)";

int fail(const char *What) {
  std::fprintf(stderr, "sim_vm_race_check: FAIL: %s\n", What);
  return 1;
}

Trace makeInput(size_t Cycles) {
  Trace T;
  ir::Type I8 = ir::Type::makeInt(8);
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    S["a"] = Value::splat(I8, static_cast<int64_t>(C % 17) - 8);
    S["b"] = Value::splat(I8, static_cast<int64_t>(C % 23) - 11);
    S["c"] = Value::splat(I8, static_cast<int64_t>(C % 13) - 6);
    S["en"] = Value::makeBool(C % 3 != 0);
  }
  return T;
}

} // namespace

int main() {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  if (!Fn)
    return fail(Fn.error().c_str());

  const size_t Cycles = 256;
  Trace Input = makeInput(Cycles);

  // Compile both program flavors once; all threads share them read-only.
  core::CompileSession Session;
  Result<sim::Program> IrProg = sim::compile(Fn.value(), Session.context());
  if (!IrProg)
    return fail(IrProg.error().c_str());

  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> Compiled =
      core::compile(Fn.value(), Options, Session);
  if (!Compiled)
    return fail(Compiled.error().c_str());
  Result<sim::Program> NetProg = sim::compile(Compiled.value().Verilog);
  if (!NetProg)
    return fail(NetProg.error().c_str());

  // Sequential references.
  Result<Trace> IrRef = sim::execute(IrProg.value(), Input);
  if (!IrRef)
    return fail(IrRef.error().c_str());
  Result<Trace> NetRef = sim::execute(NetProg.value(), Input);
  if (!NetRef)
    return fail(NetRef.error().c_str());

  const unsigned Threads = 8;
  std::vector<int> Bad(Threads, 0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      // Half the threads run the IR program, half the netlist program;
      // each execute call owns its word table and stack.
      const sim::Program &P = T % 2 == 0 ? IrProg.value() : NetProg.value();
      const Trace &Ref = T % 2 == 0 ? IrRef.value() : NetRef.value();
      for (int Round = 0; Round < 4; ++Round) {
        Result<Trace> Out = sim::execute(P, Input);
        if (!Out || !(Out.value() == Ref)) {
          Bad[T] = 1;
          return;
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();

  for (unsigned T = 0; T < Threads; ++T)
    if (Bad[T])
      return fail("concurrent run diverged from sequential reference");

  std::printf("sim_vm_race_check: ok (%u threads x 4 runs, %zu cycles, "
              "concurrent == sequential)\n",
              Threads, Cycles);
  return 0;
}
