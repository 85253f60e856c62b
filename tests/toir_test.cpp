//===- tests/toir_test.cpp - Assembly-to-IR expansion tests --------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "rasm/ToIr.h"

#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "rasm/AsmParser.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::rasm;
using interp::Trace;
using interp::Value;
using ir::Type;

namespace {

AsmProgram parseOk(const char *Source) {
  Result<AsmProgram> P = parseAsmProgram(Source);
  EXPECT_TRUE(P.ok()) << P.error();
  return P.take();
}

} // namespace

TEST(ToIr, ExpandsMulAddAndInterprets) {
  AsmProgram P = parseOk(R"(
    def ma(a:i8, b:i8, c:i8) -> (y:i8) {
      y:i8 = muladd(a, b, c) @dsp(??, ??);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  obs::Sinks Sinks;
  Status S = ir::verify(Fn.value(), Sinks.context());
  ASSERT_TRUE(S.ok()) << S.error();

  Trace Input;
  interp::Step &Step = Input.appendStep();
  Step["a"] = Value::splat(Type::makeInt(8), 3);
  Step["b"] = Value::splat(Type::makeInt(8), 4);
  Step["c"] = Value::splat(Type::makeInt(8), 5);
  Result<Trace> Out = interp::interpret(Fn.value(), Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "y")->scalar(), 17);
}

TEST(ToIr, HoleAttributesFlowIntoRegisters) {
  AsmProgram P = parseOk(R"(
    def r(a:i8, en:bool) -> (y:i8) {
      y:i8 = reg[9](a, en) @lut(??, ??);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  // The expanded body holds a reg with init 9.
  bool FoundReg = false;
  for (const ir::Instr &I : Fn.value().body())
    if (I.isReg()) {
      FoundReg = true;
      EXPECT_EQ(I.attrs()[0], 9);
    }
  EXPECT_TRUE(FoundReg);

  Trace Input;
  interp::Step &Step = Input.appendStep();
  Step["a"] = Value::splat(Type::makeInt(8), 1);
  Step["en"] = Value::makeBool(false);
  Result<Trace> Out = interp::interpret(Fn.value(), Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "y")->scalar(), 9);
}

TEST(ToIr, WireInstructionsPassThrough) {
  AsmProgram P = parseOk(R"(
    def w(a:i8) -> (y:i8) {
      t0:i8 = sll[1](a);
      y:i8 = add(t0, a) @lut(??, ??);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  EXPECT_TRUE(Fn.value().body()[0].isWire());
  EXPECT_EQ(Fn.value().body()[0].wireOp(), ir::WireOp::Sll);
}

TEST(ToIr, CascadeChainExpandsAndComputesDotProduct) {
  // Figure 11: two chained muladds compute a*b + c*d + in.
  AsmProgram P = parseOk(R"(
    def dot(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
      t0:i8 = muladd_co(a, b, in) @dsp(x, y);
      t1:i8 = muladd_ci(c, d, t0) @dsp(x, y+1);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  Trace Input;
  interp::Step &Step = Input.appendStep();
  Step["a"] = Value::splat(Type::makeInt(8), 2);
  Step["b"] = Value::splat(Type::makeInt(8), 3);
  Step["c"] = Value::splat(Type::makeInt(8), 4);
  Step["d"] = Value::splat(Type::makeInt(8), 5);
  Step["in"] = Value::splat(Type::makeInt(8), 1);
  Result<Trace> Out = interp::interpret(Fn.value(), Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "t1")->scalar(), 2 * 3 + 4 * 5 + 1);
}

TEST(ToIr, RejectsUnknownOperation) {
  AsmProgram P = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = warp(a) @dsp(??, ??);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_FALSE(Fn.ok());
  EXPECT_NE(Fn.error().find("no definition"), std::string::npos);
}

TEST(ToIr, RejectsWrongPrimitive) {
  // mux exists on LUTs only; requesting it on a DSP must fail, not
  // silently fall back (hard constraints, Section 3).
  AsmProgram P = parseOk(R"(
    def f(c:bool, a:i8, b:i8) -> (y:i8) {
      y:i8 = mux(c, a, b) @dsp(??, ??);
    }
  )");
  EXPECT_FALSE(toIr(P, tdl::ultrascale()).ok());
}

TEST(ToIr, RejectsAttributeCountMismatch) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8) {
      y:i8 = add[3](a, b) @lut(??, ??);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_FALSE(Fn.ok());
  EXPECT_NE(Fn.error().find("attribute"), std::string::npos);
}

TEST(ToIr, VectorSimdAdd) {
  AsmProgram P = parseOk(R"(
    def v(a:i8<4>, b:i8<4>) -> (y:i8<4>) {
      y:i8<4> = add(a, b) @dsp(??, ??);
    }
  )");
  Result<ir::Function> Fn = toIr(P, tdl::ultrascale());
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  Trace Input;
  interp::Step &Step = Input.appendStep();
  Step["a"] = Value::fromLanes(Type::makeInt(8, 4), {1, 2, 3, 4});
  Step["b"] = Value::fromLanes(Type::makeInt(8, 4), {5, 6, 7, 8});
  Result<Trace> Out = interp::interpret(Fn.value(), Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  const Value *Y = Out.value().get(0, "y");
  EXPECT_EQ(Y->lane(0), 6);
  EXPECT_EQ(Y->lane(3), 12);
}
