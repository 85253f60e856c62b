//===- bench/ablation.cpp - Design-choice ablations -----------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Ablations for the compiler's design choices (DESIGN.md §5b):
///
///  1. cascade rewrite on/off (Section 5.2): run-time effect on
///     dot-product chains;
///  2. placement shrinking on/off (Section 5.3): layout area vs. compile
///     time;
///  3. front-end vectorization on/off (Section 8.2): utilization and
///     run-time on scalar-coded parallel adds.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "core/Compiler.h"
#include "frontend/Benchmarks.h"
#include "opt/Transforms.h"

#include <cstdio>

using namespace reticle;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("  %-58s %s\n", What, Ok ? "yes" : "NO");
  if (!Ok)
    ++Failures;
}

unsigned maxRowUsed(const rasm::AsmProgram &Placed) {
  unsigned Max = 0;
  for (const rasm::AsmInstr &I : Placed.body())
    if (!I.isWire())
      Max = std::max<unsigned>(Max, I.loc().Y.offset());
  return Max;
}

} // namespace

int main() {
  bench::SeriesReport Report("ablation", "Design-choice ablations");
  std::printf("Ablation 1: DSP cascading (tensordot 5x18)\n");
  {
    ir::Function Fn = frontend::makeTensorDot(18);
    core::CompileOptions On, Off;
    Off.Cascade = false;
    core::CompileSession Session;
    Result<core::CompileResult> With = core::compile(Fn, On, Session);
    Result<core::CompileResult> Without = core::compile(Fn, Off, Session);
    if (!With || !Without) {
      std::printf("FAILED: %s%s\n", With ? "" : With.error().c_str(),
                  Without ? "" : Without.error().c_str());
      return 1;
    }
    Report.addCompile("tensordot_5x18", "cascade_on", With.value());
    Report.addCompile("tensordot_5x18", "cascade_off", Without.value());
    std::printf("  critical path: cascaded %.2f ns, general routing "
                "%.2f ns\n",
                With.value().Timing.CriticalPathNs,
                Without.value().Timing.CriticalPathNs);
    check(With.value().Timing.CriticalPathNs <
              Without.value().Timing.CriticalPathNs,
          "cascading shortens the critical path");
    check(With.value().Util.Dsps == Without.value().Util.Dsps,
          "cascading is area-neutral");
  }

  std::printf("\nAblation 2: placement shrinking (tensoradd 256)\n");
  {
    ir::Function Fn = frontend::makeTensorAdd(256);
    core::CompileOptions On, Off;
    Off.Shrink = false;
    core::CompileSession Session;
    Result<core::CompileResult> With = core::compile(Fn, On, Session);
    Result<core::CompileResult> Without = core::compile(Fn, Off, Session);
    if (!With || !Without) {
      std::printf("FAILED\n");
      return 1;
    }
    Report.addCompile("tensoradd_256", "shrink_on", With.value());
    Report.addCompile("tensoradd_256", "shrink_off", Without.value());
    std::printf("  max row used: shrunk %u, unshrunk %u; place time "
                "%.1f ms vs %.1f ms (%u vs %u solve(s))\n",
                maxRowUsed(With.value().Placed),
                maxRowUsed(Without.value().Placed), With.value().Times.PlaceMs,
                Without.value().Times.PlaceMs, With.value().PlaceStats.Solves,
                Without.value().PlaceStats.Solves);
    check(maxRowUsed(With.value().Placed) <=
              maxRowUsed(Without.value().Placed),
          "shrinking never enlarges the layout");
  }

  std::printf("\nAblation 3: front-end vectorization (64 scalar adds)\n");
  {
    // Scalar-coded parallel adds, the Figure 16 'unoptimized' form.
    ir::Function Scalar("scalar_adds");
    ir::Type I8 = ir::Type::makeInt(8);
    for (unsigned I = 0; I < 64; ++I) {
      std::string S = std::to_string(I);
      Scalar.addInput("a" + S, I8);
      Scalar.addInput("b" + S, I8);
      Scalar.addOutput("y" + S, I8);
      Scalar.addInstr(ir::Instr::makeComp("y" + S, I8, ir::CompOp::Add,
                                          {"a" + S, "b" + S}));
    }
    ir::Function Vectorized = Scalar;
    core::CompileSession Session;
    unsigned Formed = opt::vectorize(Vectorized, 4, Session.context());

    core::CompileOptions Options;
    Result<core::CompileResult> A = core::compile(Scalar, Options, Session);
    Result<core::CompileResult> B =
        core::compile(Vectorized, Options, Session);
    if (!A || !B) {
      std::printf("FAILED\n");
      return 1;
    }
    Report.addCompile("scalar_adds_64", "scalar", A.value());
    Report.addCompile("scalar_adds_64", "vectorized", B.value());
    std::printf("  formed %u vector op(s); scalar: %u LUTs / %u DSPs; "
                "vectorized: %u LUTs / %u DSPs\n",
                Formed, A.value().Util.Luts, A.value().Util.Dsps,
                B.value().Util.Luts, B.value().Util.Dsps);
    check(Formed == 16, "all 64 adds packed into 16 vector ops");
    check(A.value().Util.Dsps == 0 && B.value().Util.Dsps == 16,
          "vectorization moves the work onto SIMD DSPs");
    check(B.value().Util.Luts == 0,
          "vectorized form needs no soft logic");
  }

  Report.write();
  std::printf("\n%s\n", Failures == 0 ? "all ablation checks passed"
                                      : "ABLATION CHECKS FAILED");
  return Failures == 0 ? 0 : 1;
}
