//===- tests/frontend_test.cpp - Benchmark generator tests ---------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Benchmarks.h"

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::frontend;
using device::Device;

TEST(Frontend, GeneratedProgramsAreWellFormed) {
  obs::Sinks Sinks;
  for (unsigned N : {8u, 64u})
    EXPECT_TRUE(ir::verify(makeTensorAdd(N), Sinks.context()).ok()) << N;
  for (unsigned K : {3u, 9u})
    EXPECT_TRUE(ir::verify(makeTensorDot(K), Sinks.context()).ok()) << K;
  for (unsigned S : {3u, 5u, 9u})
    EXPECT_TRUE(ir::verify(makeFsm(S), Sinks.context()).ok()) << S;
  for (unsigned N : {8u, 32u})
    EXPECT_TRUE(ir::verify(makeDspAdd(N), Sinks.context()).ok()) << N;
}

TEST(Frontend, TensorAddComputesElementwiseSum) {
  ir::Function Fn = makeTensorAdd(8);
  interp::Trace Input;
  ir::Type V = ir::Type::makeInt(8, 4);
  for (int C = 0; C < 2; ++C) {
    interp::Step &S = Input.appendStep();
    S["en"] = interp::Value::makeBool(true);
    S["a0"] = interp::Value::fromLanes(V, {1, 2, 3, 4});
    S["b0"] = interp::Value::fromLanes(V, {10, 20, 30, 40});
    S["a1"] = interp::Value::fromLanes(V, {5, 6, 7, 8});
    S["b1"] = interp::Value::fromLanes(V, {50, 60, 70, 80});
  }
  Result<interp::Trace> Out = interp::interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  // Registered outputs appear one cycle later.
  const interp::Value *Y0 = Out.value().get(1, "y0");
  ASSERT_NE(Y0, nullptr);
  EXPECT_EQ(Y0->lane(0), 11);
  EXPECT_EQ(Y0->lane(3), 44);
  const interp::Value *Y1 = Out.value().get(1, "y1");
  EXPECT_EQ(Y1->lane(2), 77);
}

TEST(Frontend, TensorDotComputesPipelinedDot) {
  // One row, K=3: after K cycles of constant inputs the accumulator holds
  // the full dot product.
  ir::Function Fn = makeTensorDot(3, /*Rows=*/1);
  interp::Trace Input;
  ir::Type I8 = ir::Type::makeInt(8);
  for (int C = 0; C < 4; ++C) {
    interp::Step &S = Input.appendStep();
    S["en"] = interp::Value::makeBool(true);
    for (int K = 0; K < 3; ++K) {
      S["a0_" + std::to_string(K)] = interp::Value::splat(I8, K + 1);
      S["b0_" + std::to_string(K)] = interp::Value::splat(I8, 2);
    }
  }
  Result<interp::Trace> Out = interp::interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  // Stage s captures sum of products up to s, delayed s+1 cycles; the
  // final output p0_2 reaches 2*(1+2+3)=12 at cycle 3.
  EXPECT_EQ(Out.value().get(3, "p0_2")->scalar(), 12);
}

TEST(Frontend, FsmAdvancesAndWraps) {
  ir::Function Fn = makeFsm(3);
  interp::Trace Input;
  ir::Type I8 = ir::Type::makeInt(8);
  for (int C = 0; C < 5; ++C) {
    interp::Step &S = Input.appendStep();
    S["en"] = interp::Value::makeBool(true);
    S["in"] = interp::Value::splat(I8, 100); // clears every threshold
  }
  Result<interp::Trace> Out = interp::interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "state")->scalar(), 0);
  EXPECT_EQ(Out.value().get(1, "state")->scalar(), 1);
  EXPECT_EQ(Out.value().get(2, "state")->scalar(), 2);
  EXPECT_EQ(Out.value().get(3, "state")->scalar(), 0); // wraps
}

TEST(Frontend, FsmHoldsBelowThreshold) {
  ir::Function Fn = makeFsm(3);
  interp::Trace Input;
  ir::Type I8 = ir::Type::makeInt(8);
  for (int C = 0; C < 3; ++C) {
    interp::Step &S = Input.appendStep();
    S["en"] = interp::Value::makeBool(true);
    S["in"] = interp::Value::splat(I8, 0); // below every threshold
  }
  Result<interp::Trace> Out = interp::interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  for (int C = 0; C < 3; ++C)
    EXPECT_EQ(Out.value().get(C, "state")->scalar(), 0);
}

TEST(Frontend, TensorAddCompilesToSimdDsps) {
  core::CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compile(makeTensorAdd(16), Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  // 16 elements = 4 SIMD groups, each one fused addreg DSP.
  EXPECT_EQ(R.value().Util.Dsps, 4u);
  EXPECT_EQ(R.value().Util.Luts, 0u);
}

TEST(Frontend, TensorDotCompilesToCascadedChains) {
  core::CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compile(makeTensorDot(3, 2), Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().Util.Dsps, 6u);
  EXPECT_EQ(R.value().CascadeStats.Chains, 2u);
}

TEST(Frontend, FsmCompilesToLutsOnly) {
  core::CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(makeFsm(5), Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().Util.Dsps, 0u);
  EXPECT_GT(R.value().Util.Luts, 0u);
}

TEST(Frontend, DspAddBaselineReproducesFigure4Cliff) {
  // 24 lanes on a 16-DSP device: behavioral hint saturates DSPs and
  // spills to LUTs; the Reticle path packs 4 lanes per DSP and needs 6.
  ir::Function Fn = makeDspAdd(24);
  synth::SynthOptions SOpts;
  SOpts.SynthMode = synth::Mode::Hint;
  SOpts.Dev = Device::small();
  SOpts.Anneal.MovesPerCell = 8;
  SOpts.Anneal.MinMovesPerTemp = 0;
  Result<synth::SynthResult> Hint = synth::synthesize(Fn, SOpts);
  ASSERT_TRUE(Hint.ok()) << Hint.error();
  EXPECT_EQ(Hint.value().Dsps, 16u);
  EXPECT_GT(Hint.value().Luts, 0u);

  core::CompileOptions COpts;
  COpts.Dev = Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> Ret = core::compile(Fn, COpts, Session);
  ASSERT_TRUE(Ret.ok()) << Ret.error();
  EXPECT_EQ(Ret.value().Util.Dsps, 6u);
  EXPECT_EQ(Ret.value().Util.Luts, 0u);
}
