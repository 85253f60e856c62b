//===- examples/tensordot.cpp - Fused operations and DSP cascading -------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The paper's systolic dot-product workload (Sections 5.2 and 7): chains
/// of multiply-accumulate stages. Instruction selection fuses each
/// mul+add+reg into one DSP; the layout pass rewrites the chain to
/// cascade variants (`muladdreg_co` -> `_cio`* -> `_ci`) constrained to
/// vertically adjacent slots (`(x, y)`, `(x, y+1)`, ...), and placement
/// solves those constraints so code generation can use the dedicated
/// cascade wires.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "frontend/Benchmarks.h"

#include <cstdio>

using namespace reticle;

int main() {
  // One row keeps the printout readable; the benchmark uses five.
  ir::Function Fn = frontend::makeTensorDot(4, /*Rows=*/1);

  core::CompileSession Session;
  Result<core::CompileResult> With = core::compile(Fn, {}, Session);
  if (!With) {
    std::printf("compile error: %s\n", With.error().c_str());
    return 1;
  }
  std::printf("== assembly after selection and cascading ==\n%s\n",
              With.value().Asm.str().c_str());
  std::printf("== placed: the chain owns consecutive rows of one column "
              "==\n%s\n",
              With.value().Placed.str().c_str());

  core::CompileOptions NoCascade;
  NoCascade.Cascade = false;
  Result<core::CompileResult> Without =
      core::compile(Fn, NoCascade, Session);
  if (!Without) {
    std::printf("compile error: %s\n", Without.error().c_str());
    return 1;
  }
  std::printf("critical path with cascades:    %.2f ns (%.1f MHz)\n",
              With.value().Timing.CriticalPathNs,
              With.value().Timing.FmaxMhz);
  std::printf("critical path without cascades: %.2f ns (%.1f MHz)\n",
              Without.value().Timing.CriticalPathNs,
              Without.value().Timing.FmaxMhz);
  std::printf("\ncascade stats: %u chain(s), %u instruction(s) rewritten\n",
              With.value().CascadeStats.Chains,
              With.value().CascadeStats.Rewritten);

  // The generated DSP primitives wire PCOUT to PCIN directly.
  std::string V = With.value().Verilog.str();
  bool UsesCascadePorts = V.find("PCOUT") != std::string::npos &&
                          V.find("PCIN") != std::string::npos;
  std::printf("structural Verilog uses PCOUT/PCIN cascade ports: %s\n",
              UsesCascadePorts ? "yes" : "no");
  return 0;
}
