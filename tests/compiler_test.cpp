//===- tests/compiler_test.cpp - End-to-end compiler tests ---------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"

#include "interp/Interp.h"
#include "ir/Parser.h"
#include "rasm/ToIr.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::core;
using device::Device;

namespace {

ir::Function parseOk(const char *Source) {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

} // namespace

TEST(Compiler, MulAddPipelineEndToEnd) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<CompileResult> R = compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().Util.Dsps, 1u);
  EXPECT_EQ(R.value().Util.Luts, 0u);
  EXPECT_TRUE(R.value().Placed.isPlaced());
  EXPECT_GT(R.value().Timing.FmaxMhz, 0.0);
  EXPECT_GT(R.value().Times.TotalMs, 0.0);
  EXPECT_TRUE(place::checkPlacement(R.value().Asm, R.value().Placed,
                                    Options.Dev)
                  .ok());
}

TEST(Compiler, DotProductChainsCascade) {
  ir::Function Fn = parseOk(R"(
    def dot(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (t2:i8) {
      m0:i8 = mul(a0, b0) @??;
      t0:i8 = add(m0, in) @??;
      m1:i8 = mul(a1, b1) @??;
      t1:i8 = add(m1, t0) @??;
      m2:i8 = mul(a2, b2) @??;
      t2:i8 = add(m2, t1) @??;
    }
  )");
  CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<CompileResult> R = compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().CascadeStats.Chains, 1u);
  EXPECT_EQ(R.value().Util.Dsps, 3u);
  // Cascaded chain occupies one column, consecutive rows.
  std::vector<std::pair<int64_t, int64_t>> Slots;
  for (const rasm::AsmInstr &I : R.value().Placed.body())
    if (!I.isWire())
      Slots.push_back({I.loc().X.offset(), I.loc().Y.offset()});
  ASSERT_EQ(Slots.size(), 3u);
  EXPECT_EQ(Slots[0].first, Slots[1].first);
  EXPECT_EQ(Slots[1].first, Slots[2].first);

  CompileOptions NoCascade = Options;
  NoCascade.Cascade = false;
  Result<CompileResult> R2 = compile(Fn, NoCascade, Session);
  ASSERT_TRUE(R2.ok()) << R2.error();
  EXPECT_EQ(R2.value().CascadeStats.Chains, 0u);
  // Cascading must not be slower than general routing.
  EXPECT_LE(R.value().Timing.CriticalPathNs,
            R2.value().Timing.CriticalPathNs);
}

TEST(Compiler, CompiledSemanticsMatchSource) {
  ir::Function Fn = parseOk(R"(
    def pipe(a:i8, b:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, a) @??;
      c0:bool = lt(t1, b) @??;
      t2:i8 = mux(c0, t0, t1) @??;
      y:i8 = reg[3](t2, en) @??;
    }
  )");
  CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<CompileResult> R = compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  Result<ir::Function> Lowered =
      rasm::toIr(R.value().Placed, tdl::ultrascale());
  ASSERT_TRUE(Lowered.ok()) << Lowered.error();

  interp::Trace Input;
  for (int C = 0; C < 4; ++C) {
    interp::Step &S = Input.appendStep();
    S["a"] = interp::Value::splat(ir::Type::makeInt(8), 3 + C);
    S["b"] = interp::Value::splat(ir::Type::makeInt(8), 5 - C);
    S["en"] = interp::Value::makeBool(C % 2 == 0);
  }
  Result<interp::Trace> Expected = interp::interpret(Fn, Input);
  Result<interp::Trace> Got = interp::interpret(Lowered.value(), Input);
  ASSERT_TRUE(Expected.ok()) << Expected.error();
  ASSERT_TRUE(Got.ok()) << Got.error();
  for (size_t C = 0; C < 4; ++C)
    EXPECT_EQ(*Expected.value().get(C, "y"), *Got.value().get(C, "y"));
}

TEST(Compiler, FailsCleanlyOnOversubscription) {
  // 5 forced-DSP ops on a 4-DSP device.
  std::string Source = "def f(a:i8, b:i8) -> (t0:i8) {\n";
  for (int I = 0; I < 5; ++I)
    Source += "  t" + std::to_string(I) + ":i8 = add(a, b) @dsp;\n";
  Source += "}\n";
  ir::Function Fn = parseOk(Source.c_str());
  CompileOptions Options;
  Options.Dev = Device::tiny();
  core::CompileSession Session;
  Result<CompileResult> R = compile(Fn, Options, Session);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("placement failed"), std::string::npos);
}

TEST(Compiler, StatsAccounting) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
      t0:i8<4> = add(a, b) @dsp;
      y:i8<4> = reg[0](t0, en) @??;
    }
  )");
  CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<CompileResult> R = compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().SelectStats.NumAsmOps, 1u); // fused addreg
  EXPECT_GT(R.value().PlaceStats.Solves, 0u);
  EXPECT_GE(R.value().Times.TotalMs,
            R.value().Times.SelectMs); // total includes stages
}
