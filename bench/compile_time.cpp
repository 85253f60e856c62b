//===- bench/compile_time.cpp - Compile-speed microbenchmarks ------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark harness behind Section 7.2's compile-speed claim:
/// measures the Reticle pipeline stages and both baseline modes on the
/// tensoradd workload. The figure binaries report wall-clock per size;
/// this harness gives statistically solid per-stage numbers.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "frontend/Benchmarks.h"
#include "isel/Select.h"
#include "place/Place.h"
#include "synth/Synth.h"
#include "tdl/Ultrascale.h"

#include <benchmark/benchmark.h>

using namespace reticle;

namespace {

void BM_ReticleSelect(benchmark::State &State) {
  ir::Function Fn =
      frontend::makeTensorAdd(static_cast<unsigned>(State.range(0)));
  obs::Sinks Sinks;
  for (auto _ : State) {
    Result<rasm::AsmProgram> Asm =
        isel::select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
    benchmark::DoNotOptimize(Asm.ok());
  }
}
BENCHMARK(BM_ReticleSelect)->Arg(64)->Arg(256);

void BM_ReticlePlace(benchmark::State &State) {
  ir::Function Fn =
      frontend::makeTensorAdd(static_cast<unsigned>(State.range(0)));
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> Asm =
      isel::select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  device::Device Dev = device::Device::xczu3eg();
  for (auto _ : State) {
    Result<rasm::AsmProgram> Placed =
        place::place(Asm.value(), Dev, {}, nullptr, Sinks.context());
    benchmark::DoNotOptimize(Placed.ok());
  }
}
BENCHMARK(BM_ReticlePlace)->Arg(64)->Arg(256);

void BM_ReticleFullPipeline(benchmark::State &State) {
  ir::Function Fn =
      frontend::makeTensorAdd(static_cast<unsigned>(State.range(0)));
  core::CompileOptions Options;
  core::CompileSession Session;
  for (auto _ : State) {
    Result<core::CompileResult> R = core::compile(Fn, Options, Session);
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_ReticleFullPipeline)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineBase(benchmark::State &State) {
  ir::Function Fn =
      frontend::makeTensorAdd(static_cast<unsigned>(State.range(0)));
  synth::SynthOptions Options;
  for (auto _ : State) {
    Result<synth::SynthResult> R = synth::synthesize(Fn, Options);
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_BaselineBase)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineHint(benchmark::State &State) {
  ir::Function Fn =
      frontend::makeTensorAdd(static_cast<unsigned>(State.range(0)));
  synth::SynthOptions Options;
  Options.SynthMode = synth::Mode::Hint;
  for (auto _ : State) {
    Result<synth::SynthResult> R = synth::synthesize(Fn, Options);
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_BaselineHint)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
