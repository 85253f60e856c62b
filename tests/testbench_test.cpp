//===- tests/testbench_test.cpp - Testbench emission tests ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Testbench.h"

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace reticle;
using interp::Trace;
using interp::Value;

namespace {

/// Compiles the mac program and builds matching input/expected traces.
struct MacSetup {
  core::CompileResult Compiled;
  Trace Input;
  Trace Expected;
};

MacSetup makeMacSetup() {
  Result<ir::Function> Fn = ir::parseFunction(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  MacSetup S;
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    interp::Step &Step = S.Input.appendStep();
    Step["a"] = Value::splat(ir::Type::makeInt(8), 2 + Cycle);
    Step["b"] = Value::splat(ir::Type::makeInt(8), 3);
    Step["c"] = Value::splat(ir::Type::makeInt(8), 1);
    Step["en"] = Value::makeBool(true);
  }
  Result<Trace> Out = interp::interpret(Fn.value(), S.Input);
  EXPECT_TRUE(Out.ok()) << Out.error();
  S.Expected = Out.take();
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn.value(), Options, Session);
  EXPECT_TRUE(R.ok()) << R.error();
  S.Compiled = R.take();
  return S;
}

} // namespace

TEST(Testbench, EmitsSelfCheckingModule) {
  MacSetup S = makeMacSetup();
  Result<std::string> Tb = codegen::emitTestbench(S.Compiled.Verilog,
                                                  S.Input, S.Expected);
  ASSERT_TRUE(Tb.ok()) << Tb.error();
  const std::string &Out = Tb.value();
  EXPECT_NE(Out.find("module mac_tb;"), std::string::npos);
  EXPECT_NE(Out.find("always #5 clock = ~clock;"), std::string::npos);
  EXPECT_NE(Out.find("mac dut (.clock(clock)"), std::string::npos);
  // One check per output per cycle, plus the final verdict.
  EXPECT_NE(Out.find("if (y !== "), std::string::npos);
  EXPECT_NE(Out.find("$display(\"PASS\")"), std::string::npos);
  EXPECT_NE(Out.find("$finish;"), std::string::npos);
  // Cycle 1's expected value: 2*3+1 = 7 visible one cycle later.
  EXPECT_NE(Out.find("8'h7"), std::string::npos);
}

TEST(Testbench, RejectsMismatchedTraceLengths) {
  MacSetup S = makeMacSetup();
  Trace Short = S.Expected;
  Short.steps().pop_back();
  Result<std::string> Tb =
      codegen::emitTestbench(S.Compiled.Verilog, S.Input, Short);
  ASSERT_FALSE(Tb.ok());
  EXPECT_NE(Tb.error().find("differ in length"), std::string::npos);
}

TEST(Testbench, RejectsMissingPortValues) {
  MacSetup S = makeMacSetup();
  Trace Broken = S.Input;
  Broken.step(1).erase("b");
  Result<std::string> Tb =
      codegen::emitTestbench(S.Compiled.Verilog, Broken, S.Expected);
  ASSERT_FALSE(Tb.ok());
  EXPECT_NE(Tb.error().find("missing"), std::string::npos);
}

TEST(Testbench, VectorPortsUseFlattenedLiterals) {
  Result<ir::Function> Fn = ir::parseFunction(
      "def v(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = add(a, b) @dsp; }");
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  Trace Input;
  interp::Step &Step = Input.appendStep();
  Step["a"] = Value::fromLanes(ir::Type::makeInt(8, 4), {1, 2, 3, 4});
  Step["b"] = Value::fromLanes(ir::Type::makeInt(8, 4), {4, 3, 2, 1});
  Result<Trace> Expected = interp::interpret(Fn.value(), Input);
  ASSERT_TRUE(Expected.ok()) << Expected.error();
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn.value(), Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  Result<std::string> Tb =
      codegen::emitTestbench(R.value().Verilog, Input, Expected.value());
  ASSERT_TRUE(Tb.ok()) << Tb.error();
  // Lane-wise sums are all 5 -> flattened 0x05050505.
  EXPECT_NE(Tb.value().find("32'h5050505"), std::string::npos)
      << Tb.value();
}
