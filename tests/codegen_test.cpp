//===- tests/codegen_test.cpp - Code generation tests ---------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "isel/Select.h"
#include "ir/Parser.h"
#include "place/Place.h"
#include "rasm/AsmParser.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::codegen;
using device::Device;
using rasm::AsmProgram;

namespace {

/// Compile a textual asm program through placement and codegen.
verilog::Module compileAsm(const char *Source, const Device &Dev,
                           Utilization *Util = nullptr) {
  Result<AsmProgram> P = rasm::parseAsmProgram(Source);
  EXPECT_TRUE(P.ok()) << P.error();
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      place::place(P.value(), Dev, {}, nullptr, Sinks.context());
  EXPECT_TRUE(Placed.ok()) << Placed.error();
  Result<verilog::Module> M =
      generate(Placed.value(), tdl::ultrascale(), Dev, Util, Sinks.context());
  EXPECT_TRUE(M.ok()) << M.error();
  return M.take();
}

} // namespace

TEST(Codegen, RequiresPlacedProgram) {
  Result<AsmProgram> P = rasm::parseAsmProgram(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(?\?, ?\?); }");
  ASSERT_TRUE(P.ok()) << P.error();
  obs::Sinks Sinks;
  Result<verilog::Module> M =
      generate(P.value(), tdl::ultrascale(), Device::tiny(), nullptr,
               Sinks.context());
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().find("unresolved"), std::string::npos);
}

TEST(Codegen, DspAddEmitsOneDsp) {
  Utilization Util;
  verilog::Module M = compileAsm(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(?\?, ?\?); }",
      Device::tiny(), &Util);
  EXPECT_EQ(Util.Dsps, 1u);
  EXPECT_EQ(Util.Luts, 0u);
  std::string Out = M.str();
  EXPECT_NE(Out.find("DSP48E2"), std::string::npos);
  EXPECT_NE(Out.find("LOC = \"DSP48E2_X"), std::string::npos);
  EXPECT_NE(Out.find(".USE_SIMD(\"ONE48\")"), std::string::npos);
}

TEST(Codegen, SimdVectorAddUsesFour12) {
  verilog::Module M = compileAsm(
      "def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) "
      "{ y:i8<4> = add(a, b) @dsp(?\?, ?\?); }",
      Device::tiny());
  std::string Out = M.str();
  EXPECT_NE(Out.find(".USE_SIMD(\"FOUR12\")"), std::string::npos);
}

TEST(Codegen, LutAddEmitsLutsAndCarry) {
  Utilization Util;
  compileAsm(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @lut(?\?, ?\?); }",
      Device::tiny(), &Util);
  // One LUT per bit plus one CARRY8 block; no DSPs.
  EXPECT_EQ(Util.Luts, 8u);
  EXPECT_EQ(Util.Carries, 1u);
  EXPECT_EQ(Util.Dsps, 0u);
}

TEST(Codegen, LutInstructionsCarrySliceLocAndBel) {
  verilog::Module M = compileAsm(
      "def f(a:bool, b:bool) -> (y:bool) "
      "{ y:bool = and(a, b) @lut(?\?, ?\?); }",
      Device::tiny());
  std::string Out = M.str();
  EXPECT_NE(Out.find("LOC = \"SLICE_X"), std::string::npos);
  EXPECT_NE(Out.find("BEL = \"A6LUT\""), std::string::npos);
  EXPECT_NE(Out.find("LUT2 # (.INIT(4'h8))"), std::string::npos);
}

TEST(Codegen, RegistersBecomeFdre) {
  Utilization Util;
  verilog::Module M = compileAsm(
      "def f(a:i8, en:bool) -> (y:i8) { y:i8 = reg[5](a, en) "
      "@lut(?\?, ?\?); }",
      Device::tiny(), &Util);
  EXPECT_EQ(Util.Ffs, 8u);
  std::string Out = M.str();
  EXPECT_NE(Out.find("FDRE"), std::string::npos);
  EXPECT_NE(Out.find(".CE(en)"), std::string::npos);
  // init 5 = 0b101: bit 0 and bit 2 set.
  EXPECT_NE(Out.find(".INIT(1'h1)"), std::string::npos);
  EXPECT_NE(Out.find(".INIT(1'h0)"), std::string::npos);
}

TEST(Codegen, CascadePairWiresPcoutToPcin) {
  verilog::Module M = compileAsm(R"(
    def dot(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
      t0:i8 = muladd_co(a, b, in) @dsp(x, y);
      t1:i8 = muladd_ci(c, d, t0) @dsp(x, y+1);
    }
  )",
                                 Device::tiny());
  std::string Out = M.str();
  EXPECT_NE(Out.find(".PCOUT(t0__pcout)"), std::string::npos);
  EXPECT_NE(Out.find(".PCIN(t0__pcout)"), std::string::npos);
}

TEST(Codegen, WireOpsAreAssignsOnly) {
  Utilization Util;
  verilog::Module M = compileAsm(R"(
    def f(a:i8) -> (y:i8) {
      t0:i8 = sll[2](a);
      t1:i8 = const[7];
      y:i8 = add(t0, t1) @lut(??, ??);
    }
  )",
                                 Device::tiny(), &Util);
  // Wire instructions never instantiate primitives.
  EXPECT_EQ(Util.Luts, 8u);
  std::string Out = M.str();
  EXPECT_NE(Out.find("assign t0 = {a[5:0], 2'h0};"), std::string::npos);
  EXPECT_NE(Out.find("assign t1 = 8'h7;"), std::string::npos);
}

TEST(Codegen, MuxUsesLut3PerBit) {
  Utilization Util;
  compileAsm(
      "def f(c:bool, a:i8, b:i8) -> (y:i8) "
      "{ y:i8 = mux(c, a, b) @lut(?\?, ?\?); }",
      Device::tiny(), &Util);
  EXPECT_EQ(Util.Luts, 8u);
}

TEST(Codegen, EndToEndFromIr) {
  // IR -> select -> place -> Verilog for a small pipeline.
  Result<ir::Function> Fn = ir::parseFunction(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> Asm =
      isel::select(Fn.value(), tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(Asm.ok()) << Asm.error();
  Result<rasm::AsmProgram> Placed =
      place::place(Asm.value(), Device::tiny(), {}, nullptr, Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  Utilization Util;
  Result<verilog::Module> M =
      generate(Placed.value(), tdl::ultrascale(), Device::tiny(), &Util,
               Sinks.context());
  ASSERT_TRUE(M.ok()) << M.error();
  // muladdreg fuses everything into a single DSP.
  EXPECT_EQ(Util.Dsps, 1u);
  EXPECT_EQ(Util.Luts, 0u);
  std::string Out = M.value().str();
  EXPECT_NE(Out.find(".PREG(1'h1)"), std::string::npos);
  EXPECT_NE(Out.find(".CEP(en)"), std::string::npos);
}

TEST(Codegen, OutputSameAsInputRejected) {
  verilog::Module M("unused");
  Result<AsmProgram> P = rasm::parseAsmProgram(
      "def f(a:i8) -> (a:i8) { t:i8 = id(a); }");
  ASSERT_TRUE(P.ok()) << P.error();
  obs::Sinks Sinks;
  Result<verilog::Module> Out =
      generate(P.value(), tdl::ultrascale(), Device::tiny(), nullptr,
               Sinks.context());
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("conflicts"), std::string::npos);
}

TEST(Codegen, ComparatorEmitsCarryChain) {
  Utilization Util;
  compileAsm(
      "def f(a:i8, b:i8) -> (y:bool) { y:bool = lt(a, b) @lut(?\?, ?\?); }",
      Device::tiny(), &Util);
  EXPECT_GE(Util.Luts, 8u);
  EXPECT_GE(Util.Carries, 1u);
}
