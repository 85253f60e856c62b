//===- tests/isel_test.cpp - Instruction selection tests -----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "isel/Select.h"

#include "isel/Dfg.h"
#include "ir/Parser.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::isel;
using ir::Function;

namespace {

Function parseOk(const char *Source) {
  Result<Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

/// Counts non-wire instructions with the given op name.
unsigned countOps(const rasm::AsmProgram &P, const std::string &Name) {
  unsigned Count = 0;
  for (const rasm::AsmInstr &I : P.body())
    if (!I.isWire() && I.opName() == Name)
      ++Count;
  return Count;
}

} // namespace

TEST(Dfg, RootClassification) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8, c:i8) -> (y:i8, z:i8) {
      t0:i8 = mul(a, b) @??;     // single use by t1: internal
      t1:i8 = add(t0, c) @??;    // two uses: root
      y:i8 = add(t1, a) @??;     // output: root
      z:i8 = add(t1, b) @??;     // output: root
    }
  )");
  obs::Sinks Sinks;
  Result<Dfg> G = Dfg::build(Fn, Sinks.context());
  ASSERT_TRUE(G.ok()) << G.error();
  EXPECT_FALSE(G.value().node(G.value().nodeOf("t0")).IsRoot);
  EXPECT_TRUE(G.value().node(G.value().nodeOf("t1")).IsRoot);
  EXPECT_TRUE(G.value().node(G.value().nodeOf("y")).IsRoot);
  EXPECT_TRUE(G.value().node(G.value().nodeOf("z")).IsRoot);
  EXPECT_EQ(G.value().roots().size(), 3u);
}

TEST(Dfg, RegistersAreAlwaysRoots) {
  Function Fn = parseOk(R"(
    def f(a:i8, en:bool) -> (y:i8) {
      t0:i8 = reg[0](a, en) @??;
      y:i8 = add(t0, a) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<Dfg> G = Dfg::build(Fn, Sinks.context());
  ASSERT_TRUE(G.ok()) << G.error();
  EXPECT_TRUE(G.value().node(G.value().nodeOf("t0")).IsRoot);
}

TEST(Dfg, ComputeFeedingWireIsRoot) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      t0:i8 = add(a, a) @??;
      y:i8 = sll[1](t0);
    }
  )");
  obs::Sinks Sinks;
  Result<Dfg> G = Dfg::build(Fn, Sinks.context());
  ASSERT_TRUE(G.ok()) << G.error();
  EXPECT_TRUE(G.value().node(G.value().nodeOf("t0")).IsRoot);
}

TEST(Select, MulAddFusesIntoOneDsp) {
  // Figure 8: mul feeding add becomes a single muladd (cost 1 DSP, not 2).
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8, c:i8) -> (t1:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
    }
  )");
  SelectionStats Stats;
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), &Stats, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(countOps(P.value(), "muladd"), 1u);
  EXPECT_EQ(Stats.NumAsmOps, 1u);
  const rasm::AsmInstr &I = P.value().body()[0];
  EXPECT_EQ(I.loc().Prim, ir::Resource::Dsp);
  ASSERT_EQ(I.args().size(), 3u);
  EXPECT_EQ(I.args()[0], "a");
  EXPECT_EQ(I.args()[1], "b");
  EXPECT_EQ(I.args()[2], "c");
}

TEST(Select, MulAddDoesNotFuseAcrossSharedValue) {
  // t0 has two users, so it is a root and must be materialized on its own.
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8, c:i8) -> (t1:i8, t2:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      t2:i8 = add(t0, a) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(countOps(P.value(), "muladd"), 0u);
  EXPECT_EQ(countOps(P.value(), "mul"), 1u);
  EXPECT_EQ(countOps(P.value(), "add"), 2u);
}

TEST(Select, SmallScalarAddPrefersLuts) {
  Function Fn = parseOk("def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  ASSERT_EQ(P.value().body().size(), 1u);
  EXPECT_EQ(P.value().body()[0].loc().Prim, ir::Resource::Lut);
}

TEST(Select, VectorAddPrefersDspSimd) {
  // 4x8-bit lanes on LUTs costs 32; one SIMD DSP costs 16.
  Function Fn = parseOk(
      "def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = add(a, b) @??; }");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  ASSERT_EQ(P.value().body().size(), 1u);
  EXPECT_EQ(P.value().body()[0].loc().Prim, ir::Resource::Dsp);
}

TEST(Select, ResourceAnnotationsAreHardConstraints) {
  // Forcing the scalar add onto a DSP must be honored even though LUTs are
  // cheaper.
  Function Fn = parseOk(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp; }");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P.value().body()[0].loc().Prim, ir::Resource::Dsp);
}

TEST(Select, UnsatisfiableConstraintIsRejected) {
  // mux cannot run on a DSP; the compiler rejects instead of ignoring the
  // request (unlike HDL hints, Section 2).
  Function Fn = parseOk(R"(
    def f(c:bool, a:i8, b:i8) -> (y:i8) {
      y:i8 = mux(c, a, b) @dsp;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("unsatisfiable"), std::string::npos);
}

TEST(Select, AnnotationBlocksFusionAcrossPrimitives) {
  // mul @dsp feeding add @lut cannot fuse into a DSP muladd.
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8, c:i8) -> (t1:i8) {
      t0:i8 = mul(a, b) @dsp;
      t1:i8 = add(t0, c) @lut;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(countOps(P.value(), "muladd"), 0u);
  EXPECT_EQ(countOps(P.value(), "mul"), 1u);
  EXPECT_EQ(countOps(P.value(), "add"), 1u);
}

TEST(Select, AddRegFusesWithHoleTransfer) {
  Function Fn = parseOk(R"(
    def f(a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
      t0:i8<4> = add(a, b) @dsp;
      y:i8<4> = reg[7](t0, en) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  ASSERT_EQ(countOps(P.value(), "addreg"), 1u);
  const rasm::AsmInstr &I = P.value().body()[0];
  ASSERT_EQ(I.attrs().size(), 1u);
  EXPECT_EQ(I.attrs()[0], 7); // the register init value flows through
}

TEST(Select, WireInstructionsPassThroughAndDeadOnesPrune) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      t0:i8 = sll[1](a);
      dead:i8 = srl[2](a);
      y:i8 = add(t0, a) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  bool SawSll = false, SawDead = false;
  for (const rasm::AsmInstr &I : P.value().body()) {
    if (I.isWire() && I.wireOp() == ir::WireOp::Sll)
      SawSll = true;
    if (I.dst() == "dead")
      SawDead = true;
  }
  EXPECT_TRUE(SawSll);
  EXPECT_FALSE(SawDead);
}

TEST(Select, CommutativeMatchingFindsSwappedMulAdd) {
  // add(c, mul(a, b)): the accumulator arrives as the first operand.
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8, c:i8) -> (t1:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(c, t0) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(countOps(P.value(), "muladd"), 1u);
}

TEST(Select, CounterWithSelfReference) {
  // Figure 12b: the accumulator register refers to its own output.
  Function Fn = parseOk(R"(
    def counter() -> (t3:i8) {
      t0:bool = const[1];
      t1:i8 = const[4];
      t2:i8 = add(t3, t1) @??;
      t3:i8 = reg[0](t2, t0) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  // add+reg fuse into addreg whose first argument is its own result.
  ASSERT_EQ(countOps(P.value(), "addreg"), 1u);
  for (const rasm::AsmInstr &I : P.value().body())
    if (!I.isWire() && I.opName() == "addreg") {
      EXPECT_EQ(I.args()[0], "t3");
    }
}

TEST(Select, RejectsUnsupportedType) {
  Function Fn = parseOk(
      "def f(a:i3, b:i3) -> (y:i3) { y:i3 = add(a, b) @??; }");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("no instruction"), std::string::npos);
}

TEST(Select, FsmStyleControlSelectsLutsOnly) {
  Function Fn = parseOk(R"(
    def fsm(in:i8, en:bool) -> (state:i8) {
      s1:i8 = const[1];
      s2:i8 = const[2];
      c0:bool = eq(state, s1) @??;
      c1:bool = lt(in, s2) @??;
      take:bool = and(c0, c1) @??;
      nextv:i8 = mux(take, s2, s1) @??;
      state:i8 = reg[1](nextv, en) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  for (const rasm::AsmInstr &I : P.value().body())
    if (!I.isWire()) {
      EXPECT_EQ(I.loc().Prim, ir::Resource::Lut) << I.str();
    }
}

TEST(Select, StatsAreReported) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8, c:i8) -> (t1:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
    }
  )");
  SelectionStats Stats;
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> P =
      select(Fn, tdl::ultrascale(), &Stats, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(Stats.NumTrees, 1u);
  EXPECT_EQ(Stats.NumAsmOps, 1u);
  EXPECT_EQ(Stats.TotalArea, 16);
}
