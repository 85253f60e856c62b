//===- tests/transforms_test.cpp - Optimization pass tests ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "opt/Transforms.h"

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <random>

using namespace reticle;
using namespace reticle::opt;
using interp::Trace;
using interp::Value;
using ir::Function;
using ir::Type;

namespace {

Function parseOk(const char *Source) {
  Result<Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

/// Interprets \p Fn over a random trace and returns the output trace.
Trace runRandom(const Function &Fn, unsigned Seed) {
  Trace Input;
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> D(-128, 127);
  for (int C = 0; C < 4; ++C) {
    interp::Step &S = Input.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(D(Rng));
      S[P.Name] = Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  Result<Trace> Out = interp::interpret(Fn, Input);
  EXPECT_TRUE(Out.ok()) << Out.error();
  return Out.take();
}

} // namespace

TEST(Dce, RemovesUnreachableInstructions) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      dead1:i8 = add(a, a) @??;
      dead2:i8 = mul(dead1, a) @??;
      y:i8 = id(a);
    }
  )");
  obs::Sinks Sinks;
  EXPECT_EQ(deadCodeElim(Fn, Sinks.context()), 2u);
  EXPECT_EQ(Fn.body().size(), 1u);
  EXPECT_TRUE(ir::verify(Fn, Sinks.context()).ok());
}

TEST(Dce, KeepsRegisterFeedbackLoops) {
  Function Fn = parseOk(R"(
    def counter(en:bool) -> (t3:i8) {
      t1:i8 = const[4];
      t2:i8 = add(t3, t1) @??;
      t3:i8 = reg[0](t2, en) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_EQ(deadCodeElim(Fn, Sinks.context()), 0u);
  EXPECT_EQ(Fn.body().size(), 3u);
}

TEST(ConstFold, EvaluatesConstantSubexpressions) {
  // Figure 6's 5*2+5 collapses to the constant 15.
  Function Fn = parseOk(R"(
    def fig6() -> (t2:i8) {
      t0:i8 = const[5];
      t1:i8 = sll[1](t0);
      t2:i8 = add(t0, t1) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_GE(constantFold(Fn, Sinks.context()), 2u);
  deadCodeElim(Fn, Sinks.context());
  ASSERT_EQ(Fn.body().size(), 1u);
  EXPECT_EQ(Fn.body()[0].wireOp(), ir::WireOp::Const);
  EXPECT_EQ(Fn.body()[0].attrs()[0], 15);
}

TEST(ConstFold, AppliesIdentities) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8, w:i8) {
      zero:i8 = const[0];
      one:i8 = const[1];
      t:bool = const[1];
      y:i8 = add(a, zero) @??;
      z:i8 = mul(b, one) @??;
      w:i8 = mux(t, a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_GE(constantFold(Fn, Sinks.context()), 3u);
  for (const ir::Instr &I : Fn.body())
    EXPECT_FALSE(I.isComp()) << I.str();
  // Semantics preserved.
  Trace Before = runRandom(parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8, w:i8) {
      zero:i8 = const[0];
      one:i8 = const[1];
      t:bool = const[1];
      y:i8 = add(a, zero) @??;
      z:i8 = mul(b, one) @??;
      w:i8 = mux(t, a, b) @??;
    }
  )"), 11);
  Trace After = runRandom(Fn, 11);
  EXPECT_EQ(Before, After);
}

TEST(ConstFold, MulByZeroBecomesConstant) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      zero:i8 = const[0];
      y:i8 = mul(a, zero) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_GE(constantFold(Fn, Sinks.context()), 1u);
  EXPECT_TRUE(Fn.findDef("y")->isWire());
}

TEST(Vectorize, CombinesFourIndependentAdds) {
  Function Fn = parseOk(R"(
    def f(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8)
        -> (y0:i8, y1:i8, y2:i8, y3:i8) {
      y0:i8 = add(a0, b0) @??;
      y1:i8 = add(a1, b1) @??;
      y2:i8 = add(a2, b2) @??;
      y3:i8 = add(a3, b3) @??;
    }
  )");
  Trace Before = runRandom(Fn, 5);
  obs::Sinks Sinks;
  EXPECT_EQ(vectorize(Fn, 4, Sinks.context()), 1u);
  Status S = ir::verify(Fn, Sinks.context());
  ASSERT_TRUE(S.ok()) << S.error() << "\n" << Fn.str();
  // One vector add remains; everything else is wiring.
  unsigned CompCount = 0;
  for (const ir::Instr &I : Fn.body())
    if (I.isComp()) {
      ++CompCount;
      EXPECT_EQ(I.type(), Type::makeInt(8, 4));
    }
  EXPECT_EQ(CompCount, 1u);
  EXPECT_EQ(runRandom(Fn, 5), Before);
}

TEST(Vectorize, RespectsDependences) {
  // y1 depends on y0: they cannot share a vector instruction.
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y1:i8) {
      y0:i8 = add(a, b) @??;
      y1:i8 = add(y0, b) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_EQ(vectorize(Fn, 2, Sinks.context()), 0u);
}

TEST(Vectorize, GroupsRegistersWithSharedEnable) {
  Function Fn = parseOk(R"(
    def f(a0:i8, a1:i8, a2:i8, a3:i8, en:bool, other:bool)
        -> (y0:i8, y1:i8, y2:i8, y3:i8, z:i8) {
      y0:i8 = reg[0](a0, en) @??;
      y1:i8 = reg[0](a1, en) @??;
      y2:i8 = reg[0](a2, en) @??;
      y3:i8 = reg[0](a3, en) @??;
      z:i8 = reg[0](a0, other) @??;
    }
  )");
  Trace Before = runRandom(Fn, 6);
  obs::Sinks Sinks;
  EXPECT_EQ(vectorize(Fn, 4, Sinks.context()), 1u);
  ASSERT_TRUE(ir::verify(Fn, Sinks.context()).ok()) << Fn.str();
  EXPECT_EQ(runRandom(Fn, 6), Before);
  // The differently-enabled register stays scalar.
  const ir::Instr *Z = Fn.findDef("z");
  ASSERT_NE(Z, nullptr);
  EXPECT_TRUE(Z->isReg());
  // The grouped registers are now slices of one vector register.
  const ir::Instr *Y0 = Fn.findDef("y0");
  ASSERT_NE(Y0, nullptr);
  EXPECT_TRUE(Y0->isWire());
  EXPECT_EQ(Y0->wireOp(), ir::WireOp::Slice);
}

TEST(Vectorize, MixedOpsDoNotMerge) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y0:i8, y1:i8) {
      y0:i8 = add(a, b) @??;
      y1:i8 = sub(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_EQ(vectorize(Fn, 2, Sinks.context()), 0u);
}

TEST(Vectorize, EnablesDspSimdSelection) {
  // Scalar adds select LUTs; after vectorization the group lands on one
  // SIMD DSP (the Figure 16 story).
  const char *Source = R"(
    def f(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8)
        -> (y0:i8, y1:i8, y2:i8, y3:i8) {
      y0:i8 = add(a0, b0) @??;
      y1:i8 = add(a1, b1) @??;
      y2:i8 = add(a2, b2) @??;
      y3:i8 = add(a3, b3) @??;
    }
  )";
  core::CompileOptions Options;
  Options.Dev = device::Device::small();

  Function Scalar = parseOk(Source);
  core::CompileSession Session;
  Result<core::CompileResult> A = core::compile(Scalar, Options, Session);
  ASSERT_TRUE(A.ok()) << A.error();
  EXPECT_EQ(A.value().Util.Dsps, 0u);
  EXPECT_EQ(A.value().Util.Luts, 32u);

  Function Vector = parseOk(Source);
  vectorize(Vector, 4, Session.context());
  Result<core::CompileResult> B = core::compile(Vector, Options, Session);
  ASSERT_TRUE(B.ok()) << B.error();
  EXPECT_EQ(B.value().Util.Dsps, 1u);
  EXPECT_EQ(B.value().Util.Luts, 0u);
}

class VectorizeRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(VectorizeRandom, PreservesSemantics) {
  // Random flat programs of independent scalar ops; vectorization must
  // never change the observed trace.
  std::mt19937 Rng(GetParam());
  Function Fn("vr");
  Type I8 = Type::makeInt(8);
  Fn.addInput("en", Type::makeBool());
  std::uniform_int_distribution<int> OpDist(0, 2);
  unsigned N = 4 + GetParam() % 9;
  for (unsigned I = 0; I < N; ++I) {
    std::string A = "a" + std::to_string(I), B = "b" + std::to_string(I);
    Fn.addInput(A, I8);
    Fn.addInput(B, I8);
    std::string Dst = "y" + std::to_string(I);
    ir::CompOp Op = OpDist(Rng) == 0
                        ? ir::CompOp::Add
                        : (OpDist(Rng) == 1 ? ir::CompOp::Sub
                                            : ir::CompOp::Xor);
    Fn.addInstr(ir::Instr::makeComp(Dst, I8, Op, {A, B}));
    Fn.addOutput(Dst, I8);
  }
  obs::Sinks Sinks;
  ASSERT_TRUE(ir::verify(Fn, Sinks.context()).ok());
  Trace Before = runRandom(Fn, GetParam() + 100);
  vectorize(Fn, 4, Sinks.context());
  ASSERT_TRUE(ir::verify(Fn, Sinks.context()).ok()) << Fn.str();
  EXPECT_EQ(runRandom(Fn, GetParam() + 100), Before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizeRandom, ::testing::Range(0u, 15u));
