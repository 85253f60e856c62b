//===- tests/portability_test.cpp - Cross-family retargeting -------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The intermediate language is portable across FPGA families: the same
/// program retargets by swapping the target description (Sections 3 and
/// 4.2). These tests compile the paper's workloads against both the
/// UltraScale-like family and the Stratix-like family (no DSP SIMD ALU)
/// and check that each target's selection reflects its own hardware,
/// while semantics — validated through the target's own instruction
/// definitions — stay identical.
///
//===----------------------------------------------------------------------===//

#include "frontend/Benchmarks.h"
#include "interp/Interp.h"
#include "isel/Cascade.h"
#include "isel/Select.h"
#include "ir/Parser.h"
#include "place/Place.h"
#include "rasm/ToIr.h"
#include "tdl/Ultrascale.h"
#include "timing/Timing.h"

#include <gtest/gtest.h>

#include <random>

using namespace reticle;
using device::Device;

namespace {

ir::Function parseOk(const char *Source) {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

} // namespace

TEST(Portability, StratixTargetParses) {
  const tdl::Target &T = tdl::stratix();
  EXPECT_GT(T.defs().size(), 100u);
  // Scalar DSP ops exist; vector DSP ops do not.
  std::vector<ir::Type> I8x2 = {ir::Type::makeInt(8), ir::Type::makeInt(8)};
  EXPECT_NE(T.resolve("add", ir::Resource::Dsp, I8x2, ir::Type::makeInt(8)),
            nullptr);
  ir::Type V = ir::Type::makeInt(8, 4);
  EXPECT_EQ(T.resolve("add", ir::Resource::Dsp, {V, V}, V), nullptr);
  EXPECT_NE(T.resolve("add", ir::Resource::Lut, {V, V}, V), nullptr);
  // Accumulation chains exist (chainin/chainout as cascade variants).
  std::vector<ir::Type> I8x3 = {ir::Type::makeInt(8), ir::Type::makeInt(8),
                                ir::Type::makeInt(8)};
  EXPECT_NE(T.resolve("muladd_co", ir::Resource::Dsp, I8x3,
                      ir::Type::makeInt(8)),
            nullptr);
}

TEST(Portability, VectorAddRetargetsToSoftLogic) {
  // The same program: SIMD DSP on UltraScale, LUT fabric on Stratix.
  ir::Function Fn = parseOk(
      "def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = add(a, b) @??; }");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> Ultra =
      isel::select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  Result<rasm::AsmProgram> Strat =
      isel::select(Fn, tdl::stratix(), nullptr, Sinks.context());
  ASSERT_TRUE(Ultra.ok()) << Ultra.error();
  ASSERT_TRUE(Strat.ok()) << Strat.error();
  EXPECT_EQ(Ultra.value().body()[0].loc().Prim, ir::Resource::Dsp);
  EXPECT_EQ(Strat.value().body()[0].loc().Prim, ir::Resource::Lut);
}

TEST(Portability, HardDspConstraintRejectsOnLimitedFamily) {
  // Forcing the vector add onto a DSP is satisfiable on UltraScale and a
  // compile-time error on the Stratix-like family — never a silent
  // degradation.
  ir::Function Fn = parseOk(
      "def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = add(a, b) @dsp; }");
  obs::Sinks Sinks;
  EXPECT_TRUE(isel::select(Fn, tdl::ultrascale(), nullptr,
                           Sinks.context()).ok());
  Result<rasm::AsmProgram> Strat =
      isel::select(Fn, tdl::stratix(), nullptr, Sinks.context());
  ASSERT_FALSE(Strat.ok());
  EXPECT_NE(Strat.error().find("unsatisfiable"), std::string::npos);
}

TEST(Portability, DotProductChainsCascadeOnBothFamilies) {
  ir::Function Fn = frontend::makeTensorDot(4, /*Rows=*/1);
  obs::Sinks Sinks;
  for (const tdl::Target *T : {&tdl::ultrascale(), &tdl::stratix()}) {
    Result<rasm::AsmProgram> Asm =
        isel::select(Fn, *T, nullptr, Sinks.context());
    ASSERT_TRUE(Asm.ok()) << T->name() << ": " << Asm.error();
    rasm::AsmProgram Prog = Asm.take();
    isel::CascadeStats Stats;
    ASSERT_TRUE(isel::cascadePass(Prog, *T, 64, &Stats, Sinks.context()).ok());
    EXPECT_EQ(Stats.Chains, 1u) << T->name();
    // Place on the family's own device and verify the constraints hold.
    const Device Dev = T == &tdl::ultrascale() ? Device::xczu3eg()
                                               : Device::stratixLike();
    Result<rasm::AsmProgram> Placed =
        place::place(Prog, Dev, {}, nullptr, Sinks.context());
    ASSERT_TRUE(Placed.ok()) << T->name() << ": " << Placed.error();
    EXPECT_TRUE(place::checkPlacement(Prog, Placed.value(), Dev).ok());
    Result<timing::TimingReport> Timing =
        timing::analyzeAsm(Placed.value(), *T, Dev, timing::DelayModel(),
                           Sinks.context());
    ASSERT_TRUE(Timing.ok()) << Timing.error();
    EXPECT_GT(Timing.value().FmaxMhz, 0.0);
  }
}

TEST(Portability, SemanticsAgreeAcrossFamilies) {
  // Translation validation against both targets: each family's selected
  // assembly, expanded through that family's own instruction
  // definitions, must compute the same traces.
  std::mt19937_64 Rng(99);
  ir::Function Fn = frontend::makeTensorAdd(8, /*BindDsp=*/false);
  interp::Trace Input;
  std::uniform_int_distribution<int64_t> D(-128, 127);
  for (int C = 0; C < 3; ++C) {
    interp::Step &S = Input.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(D(Rng));
      S[P.Name] = interp::Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  Result<interp::Trace> Reference = interp::interpret(Fn, Input);
  ASSERT_TRUE(Reference.ok()) << Reference.error();
  obs::Sinks Sinks;
  for (const tdl::Target *T : {&tdl::ultrascale(), &tdl::stratix()}) {
    Result<rasm::AsmProgram> Asm =
        isel::select(Fn, *T, nullptr, Sinks.context());
    ASSERT_TRUE(Asm.ok()) << T->name() << ": " << Asm.error();
    Result<ir::Function> Lowered = rasm::toIr(Asm.value(), *T);
    ASSERT_TRUE(Lowered.ok()) << Lowered.error();
    Result<interp::Trace> Got = interp::interpret(Lowered.value(), Input);
    ASSERT_TRUE(Got.ok()) << Got.error();
    EXPECT_EQ(Got.value(), Reference.value()) << T->name();
  }
}

TEST(Portability, StratixDeviceGeometry) {
  Device D = Device::stratixLike();
  EXPECT_EQ(D.lutsPerSlice(), 10u);
  EXPECT_EQ(D.numDsps(), 168u);
  EXPECT_EQ(D.numLuts(), 36000u);
}
