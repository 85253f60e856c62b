//===- examples/tensoradd.cpp - Vectorization and hard resource binding --------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The paper's motivating workload (Sections 2 and 7): element-wise
/// addition over a one-dimensional tensor. Reticle's vector types pack
/// four 8-bit lanes into one DSP's SIMD mode and its annotations are hard
/// constraints; a behavioral flow scalarizes the loop and treats the DSP
/// hint as a suggestion, which works until the device runs out of DSPs
/// and then silently degrades.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "frontend/Benchmarks.h"
#include "synth/Synth.h"

#include <cstdio>

using namespace reticle;

int main() {
  constexpr unsigned Elements = 128;
  ir::Function Fn = frontend::makeTensorAdd(Elements);
  std::printf("tensoradd over %u i8 elements (%u SIMD groups)\n\n",
              Elements, Elements / 4);

  // Reticle: vector adds bound to DSPs, fused with their pipeline
  // registers, four lanes per DSP.
  core::CompileSession Session;
  Result<core::CompileResult> Ret = core::compile(Fn, {}, Session);
  if (!Ret) {
    std::printf("reticle: %s\n", Ret.error().c_str());
    return 1;
  }
  std::printf("reticle:     %4u DSPs, %5u LUTs, critical %.2f ns, "
              "compile %7.1f ms\n",
              Ret.value().Util.Dsps, Ret.value().Util.Luts,
              Ret.value().Timing.CriticalPathNs, Ret.value().Times.TotalMs);

  // The behavioral baseline in both flavors.
  for (synth::Mode Mode : {synth::Mode::Base, synth::Mode::Hint}) {
    synth::SynthOptions Options;
    Options.SynthMode = Mode;
    Result<synth::SynthResult> R = synth::synthesize(Fn, Options);
    if (!R) {
      std::printf("baseline: %s\n", R.error().c_str());
      return 1;
    }
    std::printf("%-12s %4u DSPs, %5u LUTs, critical %.2f ns, "
                "compile %7.1f ms\n",
                Mode == synth::Mode::Base ? "behavioral:" : "with hints:",
                R.value().Dsps, R.value().Luts,
                R.value().Timing.CriticalPathNs, R.value().TotalMs);
  }

  // The behavioral Verilog a vendor tool would have consumed (Figure 3).
  std::printf("\nbehavioral Verilog for the first SIMD group "
              "(hint flavor):\n");
  ir::Function Small = frontend::makeTensorAdd(4);
  std::printf("%s", synth::emitBehavioral(Small, synth::Mode::Hint)
                        .str()
                        .c_str());
  return 0;
}
