//===- tests/batch_race_check.cpp - Concurrency determinism check ---------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// A plain-main (no gtest) check that two or more compilations of
/// different functions can run concurrently in one process and produce
/// byte-identical artifacts to sequential runs. Each item's remark stream
/// and coverage snapshot must match too: no observability state is shared
/// between sessions, so a concurrent item records exactly what it records
/// alone. Built without a test framework so it can also be compiled under
/// ThreadSanitizer, where it serves as the data-race detector for the
/// batch-compile path (see scripts/check.sh).
///
/// Exit code 0 on success, 1 on any mismatch or compile failure.
///
//===----------------------------------------------------------------------===//

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Session.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace reticle;

namespace {

const char *Programs[][2] = {
    {"mac.ret", R"(
def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
  t0:i8 = mul(a, b) @??;
  t1:i8 = add(t0, c) @??;
  y:i8 = reg[0](t1, en) @??;
}
)"},
    {"dot3.ret", R"(
def dot3(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (t2:i8) {
  m0:i8 = mul(a0, b0) @??;
  t0:i8 = add(m0, in) @??;
  m1:i8 = mul(a1, b1) @??;
  t1:i8 = add(m1, t0) @??;
  m2:i8 = mul(a2, b2) @??;
  t2:i8 = add(m2, t1) @??;
}
)"},
    {"adds.ret", R"(
def scalar_adds(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8)
    -> (y0:i8, y1:i8, y2:i8, y3:i8) {
  y0:i8 = add(a0, b0) @??;
  y1:i8 = add(a1, b1) @??;
  y2:i8 = add(a2, b2) @??;
  y3:i8 = add(a3, b3) @??;
}
)"},
    {"logic.ret", R"(
def logic(a:i8, b:i8, c:i8) -> (y:i8) {
  t0:i8 = and(a, b) @??;
  t1:i8 = xor(t0, c) @??;
  y:i8 = or(t1, a) @??;
}
)"},
};

int fail(const char *What) {
  std::fprintf(stderr, "batch_race_check: FAIL: %s\n", What);
  return 1;
}

} // namespace

int main() {
  std::vector<core::BatchInput> Inputs;
  for (const auto &P : Programs)
    Inputs.push_back({P[0], P[1]});

  core::BatchOptions Options;
  Options.Options.Dev = device::Device::small();
  // Exercise every per-session sink while the workers run, so the race
  // check covers telemetry, remarks, and snapshots, not just the
  // pipeline's data path.
  Options.CaptureSnapshots = true;
  Options.EnableRemarks = true;
  Options.EnableTracing = true;

  Options.Jobs = 1;
  std::vector<core::BatchItem> Sequential =
      core::compileBatch(Inputs, Options);

  Options.Jobs = 4;
  std::vector<core::BatchItem> Concurrent =
      core::compileBatch(Inputs, Options);

  if (Sequential.size() != Inputs.size() ||
      Concurrent.size() != Inputs.size())
    return fail("wrong item count");

  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (!Sequential[I].ok()) {
      std::fprintf(stderr, "batch_race_check: %s (sequential): %s\n",
                   Sequential[I].Name.c_str(),
                   Sequential[I].Outcome->error().c_str());
      return fail("sequential compile failed");
    }
    if (!Concurrent[I].ok()) {
      std::fprintf(stderr, "batch_race_check: %s (concurrent): %s\n",
                   Concurrent[I].Name.c_str(),
                   Concurrent[I].Outcome->error().c_str());
      return fail("concurrent compile failed");
    }
    const core::CompileResult &S = Sequential[I].Outcome->value();
    const core::CompileResult &C = Concurrent[I].Outcome->value();
    if (S.Asm.str() != C.Asm.str())
      return fail("assembly differs between sequential and concurrent");
    if (S.Placed.str() != C.Placed.str())
      return fail("placement differs between sequential and concurrent");
    if (S.Verilog.str() != C.Verilog.str())
      return fail("Verilog differs between sequential and concurrent");
    const core::CompileSession &SS = *Sequential[I].Session;
    const core::CompileSession &CS = *Concurrent[I].Session;
    if (SS.snapshots().stages().size() != CS.snapshots().stages().size())
      return fail("snapshot stage lists differ");
    if (SS.remarks().count() == 0)
      return fail("no remarks recorded");
    if (SS.remarks().jsonl(Inputs[I].Name) !=
        CS.remarks().jsonl(Inputs[I].Name))
      return fail("remark streams differ between sequential and concurrent");
    if (SS.coverage().snapshot() != CS.coverage().snapshot())
      return fail("coverage differs between sequential and concurrent");
  }

  std::printf("batch_race_check: ok (%zu programs, sequential == "
              "concurrent)\n",
              Inputs.size());
  return 0;
}
