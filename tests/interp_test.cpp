//===- tests/interp_test.cpp - Interpreter tests ------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Eval.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::interp;
using ir::Function;
using ir::Type;

namespace {

Function parseOk(const char *Source) {
  Result<Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

Value i8(int64_t V) { return Value::splat(Type::makeInt(8), V); }

} // namespace

TEST(Interp, Figure6ComputesFiveTimesTwoPlusFive) {
  Function Fn = parseOk(R"(
    def fig6() -> (t2:i8) {
      t0:i8 = const[5];
      t1:i8 = sll[1](t0);
      t2:i8 = add(t0, t1) @??;
    }
  )");
  Trace Input;
  Input.appendStep();
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "t2")->scalar(), 15);
}

TEST(Interp, CombinationalAddPerCycle) {
  Function Fn = parseOk(R"(
    def adder(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  Trace Input;
  for (int C = 0; C < 4; ++C) {
    Step &S = Input.appendStep();
    S["a"] = i8(C);
    S["b"] = i8(10 * C);
  }
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  for (int C = 0; C < 4; ++C)
    EXPECT_EQ(Out.value().get(C, "y")->scalar(), 11 * C);
}

TEST(Interp, RegisterHoldsUntilEnabled) {
  Function Fn = parseOk(R"(
    def hold(a:i8, en:bool) -> (y:i8) {
      y:i8 = reg[0](a, en) @??;
    }
  )");
  Trace Input;
  int64_t Data[] = {5, 6, 7, 8};
  bool Enable[] = {false, true, false, true};
  for (int C = 0; C < 4; ++C) {
    Step &S = Input.appendStep();
    S["a"] = i8(Data[C]);
    S["en"] = Value::makeBool(Enable[C]);
  }
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  // Registers expose pre-update state: init 0, then values captured on
  // enabled edges become visible one cycle later.
  EXPECT_EQ(Out.value().get(0, "y")->scalar(), 0);
  EXPECT_EQ(Out.value().get(1, "y")->scalar(), 0);
  EXPECT_EQ(Out.value().get(2, "y")->scalar(), 6);
  EXPECT_EQ(Out.value().get(3, "y")->scalar(), 6);
}

TEST(Interp, Figure12bCounterIncrementsByFour) {
  Function Fn = parseOk(R"(
    def counter() -> (t3:i8) {
      t0:bool = const[1];
      t1:i8 = const[4];
      t2:i8 = add(t3, t1) @??;
      t3:i8 = reg[0](t2, t0) @??;
    }
  )");
  Trace Input;
  for (int C = 0; C < 5; ++C)
    Input.appendStep();
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  for (int C = 0; C < 5; ++C)
    EXPECT_EQ(Out.value().get(C, "t3")->scalar(), 4 * C);
}

TEST(Interp, MuxSelects) {
  Function Fn = parseOk(R"(
    def sel(c:bool, a:i8, b:i8) -> (y:i8) {
      y:i8 = mux(c, a, b) @??;
    }
  )");
  Trace Input;
  Step &S0 = Input.appendStep();
  S0["c"] = Value::makeBool(true);
  S0["a"] = i8(1);
  S0["b"] = i8(2);
  Step &S1 = Input.appendStep();
  S1["c"] = Value::makeBool(false);
  S1["a"] = i8(1);
  S1["b"] = i8(2);
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "y")->scalar(), 1);
  EXPECT_EQ(Out.value().get(1, "y")->scalar(), 2);
}

TEST(Interp, VectorAddIsLaneWise) {
  Function Fn = parseOk(R"(
    def vadd(a:i8<4>, b:i8<4>) -> (y:i8<4>) {
      y:i8<4> = add(a, b) @dsp;
    }
  )");
  Trace Input;
  Step &S = Input.appendStep();
  S["a"] = Value::fromLanes(Type::makeInt(8, 4), {1, 2, 3, 100});
  S["b"] = Value::fromLanes(Type::makeInt(8, 4), {10, 20, 30, 100});
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  const Value *Y = Out.value().get(0, "y");
  EXPECT_EQ(Y->lane(0), 11);
  EXPECT_EQ(Y->lane(1), 22);
  EXPECT_EQ(Y->lane(2), 33);
  EXPECT_EQ(Y->lane(3), -56); // 200 wraps in i8
}

TEST(Interp, SignedComparisons) {
  Function Fn = parseOk(R"(
    def cmp(a:i8, b:i8) -> (lt:bool, ge:bool, eq:bool) {
      lt:bool = lt(a, b) @??;
      ge:bool = ge(a, b) @??;
      eq:bool = eq(a, b) @??;
    }
  )");
  Trace Input;
  Step &S = Input.appendStep();
  S["a"] = i8(-5);
  S["b"] = i8(3);
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_TRUE(Out.value().get(0, "lt")->toBool());
  EXPECT_FALSE(Out.value().get(0, "ge")->toBool());
  EXPECT_FALSE(Out.value().get(0, "eq")->toBool());
}

// A bool lane holds 0 or 1, so `not` must give the other one; a bitwise
// complement of the lane reads back as true whatever the input.
TEST(Interp, NotOnBoolNegates) {
  Function Fn = parseOk(R"(
    def f(en:bool) -> (y:bool) {
      y:bool = not(en) @??;
    }
  )");
  Trace Input;
  Input.appendStep()["en"] = Value::makeBool(true);
  Input.appendStep()["en"] = Value::makeBool(false);
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_FALSE(Out.value().get(0, "y")->toBool());
  EXPECT_TRUE(Out.value().get(1, "y")->toBool());
  EXPECT_EQ(Out.value().get(1, "y")->scalar(), 1);
}

TEST(Interp, SliceAndCat) {
  Function Good = parseOk(R"(
    def sc(a:i8, b:i8) -> (hi:i8, pair:i8<2>) {
      pair:i8<2> = cat(a, b);
      hi:i8 = slice[8](pair);
    }
  )");
  Trace Input;
  Step &S = Input.appendStep();
  S["a"] = i8(0x12);
  S["b"] = i8(0x34);
  Result<Trace> Out = interpret(Good, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "hi")->scalar(), 0x34);
  EXPECT_EQ(Out.value().get(0, "pair")->lane(0), 0x12);
  EXPECT_EQ(Out.value().get(0, "pair")->lane(1), 0x34);
}

TEST(Interp, ShiftSemantics) {
  Function Fn = parseOk(R"(
    def sh(a:i8) -> (l:i8, rl:i8, ra:i8) {
      l:i8 = sll[1](a);
      rl:i8 = srl[1](a);
      ra:i8 = sra[1](a);
    }
  )");
  Trace Input;
  Step &S = Input.appendStep();
  S["a"] = i8(-128); // 0x80
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out.value().get(0, "l")->scalar(), 0);
  EXPECT_EQ(Out.value().get(0, "rl")->scalar(), 0x40);
  EXPECT_EQ(Out.value().get(0, "ra")->scalar(), -64);
}

TEST(Interp, RejectsMissingInput) {
  Function Fn = parseOk("def f(a:i8) -> (y:i8) { y:i8 = id(a); }");
  Trace Input;
  Input.appendStep(); // no value for "a"
  Result<Trace> Out = interpret(Fn, Input);
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("missing"), std::string::npos);
}

TEST(Interp, RejectsIllTypedInput) {
  Function Fn = parseOk("def f(a:i8) -> (y:i8) { y:i8 = id(a); }");
  Trace Input;
  Input.appendStep()["a"] = Value::splat(Type::makeInt(16), 1);
  EXPECT_FALSE(interpret(Fn, Input).ok());
}

TEST(Interp, RejectsIllFormedProgram) {
  Function Fn = parseOk(R"(
    def illf() -> (t1:i8) {
      t0:i8 = const[4];
      t1:i8 = add(t1, t0) @??;
    }
  )");
  Trace Input;
  Input.appendStep();
  EXPECT_FALSE(interpret(Fn, Input).ok());
}

// The well-formedness check, the topological order and the environment's
// value ids come from one def-use analysis, recorded into the context the
// caller passes.
TEST(Interp, RecordsItsAnalysisIntoTheCallersContext) {
  Function Fn = parseOk(R"(
    def adder(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  Trace Input;
  Step &S = Input.appendStep();
  S["a"] = i8(1);
  S["b"] = i8(2);
  obs::Sinks Sinks;
  ASSERT_TRUE(interpret(Fn, Input, nullptr, Sinks.context()).ok());
  obs::Telemetry &Telem = Sinks.telemetry();
  EXPECT_EQ(Telem.counter("ir.defuse.builds").load(), 1u);
  EXPECT_EQ(Telem.counter("ir.defuse.cache_hits").load(), 2u);
  EXPECT_EQ(Telem.counter("ir.interner.names").load(), 3u);
  EXPECT_EQ(Telem.counter("interp.cycles").load(), 1u);
}

TEST(EvalPure, RejectsRegister) {
  ir::Instr Reg = ir::Instr::makeComp("y", Type::makeInt(8), ir::CompOp::Reg,
                                      {"a", "en"}, {0});
  std::vector<Value> Args = {i8(1), Value::makeBool(true)};
  EXPECT_FALSE(evalPure(Reg, Args).ok());
}
