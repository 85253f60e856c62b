//===- tests/verifier_test.cpp - Well-formedness tests -----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::ir;

namespace {

Function parseOk(const char *Source) {
  Result<Function> Fn = parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

} // namespace

TEST(Verifier, AcceptsPaperFigure12b) {
  // The well-formed counter of Figure 12b: the cycle passes through reg.
  Function Fn = parseOk(R"(
    def wf() -> (t3:i8) {
      t0:bool = const[1];
      t1:i8 = const[4];
      t2:i8 = add(t3, t1) @??;
      t3:i8 = reg[0](t2, t0) @??;
    }
  )");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  EXPECT_TRUE(S.ok()) << S.error();
}

TEST(Verifier, RejectsPaperFigure12a) {
  // The ill-formed increment of Figure 12a: a combinational self-loop.
  Function Fn = parseOk(R"(
    def illf() -> (t1:i8) {
      t0:i8 = const[4];
      t1:i8 = add(t1, t0) @??;
    }
  )");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().find("combinational cycle"), std::string::npos);
}

TEST(Verifier, RejectsLongerCombinationalCycle) {
  Function Fn = parseOk(R"(
    def loop(a:i8) -> (y:i8) {
      t0:i8 = add(a, y) @??;
      t1:i8 = mul(t0, a) @??;
      y:i8 = add(t1, a) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, RejectsUndefinedVariable) {
  Function Fn = parseOk("def f(a:i8) -> (y:i8) { y:i8 = add(a, ghost) @??; }");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().find("undefined variable"), std::string::npos);
}

TEST(Verifier, RejectsDuplicateDefinition) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = id(a);
      y:i8 = add(a, a) @??;
    }
  )");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().find("multiple definitions"), std::string::npos);
}

TEST(Verifier, RejectsShadowedInput) {
  Function Fn = parseOk("def f(a:i8) -> (a:i8) { a:i8 = const[1]; }");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, RejectsUndefinedOutput) {
  Function Fn = parseOk("def f(a:i8) -> (y:i8) { t0:i8 = id(a); }");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().find("never defined"), std::string::npos);
}

TEST(Verifier, RejectsOutputTypeMismatch) {
  Function Fn = parseOk("def f(a:i8) -> (y:i16) { y:i8 = id(a); }");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, OutputMayBeAnInput) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (a:i8, y:i8) {
      y:i8 = id(a);
    }
  )");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  EXPECT_TRUE(S.ok()) << S.error();
}

TEST(Verifier, TypeChecksArithmetic) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i16) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().find("argument type"), std::string::npos);
}

TEST(Verifier, RejectsArithmeticOnBool) {
  Function Fn = parseOk(R"(
    def f(a:bool, b:bool) -> (y:bool) {
      y:bool = add(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, AllowsBitwiseOnBool) {
  Function Fn = parseOk(R"(
    def bit_and(a:bool, b:bool) -> (y:bool) {
      y:bool = and(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  Status S = verify(Fn, Sinks.context());
  EXPECT_TRUE(S.ok()) << S.error();
}

TEST(Verifier, ComparisonRequiresBoolResult) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8) {
      y:i8 = lt(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, MuxConditionMustBeBool) {
  Function Fn = parseOk(R"(
    def f(c:i8, a:i8, b:i8) -> (y:i8) {
      y:i8 = mux(c, a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, RegEnableMustBeBool) {
  Function Fn = parseOk(R"(
    def f(a:i8, en:i8) -> (y:i8) {
      y:i8 = reg[0](a, en) @??;
    }
  )");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, ShiftAmountRange) {
  Function Fn = parseOk("def f(a:i8) -> (y:i8) { y:i8 = sll[8](a); }");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
}

TEST(Verifier, SliceBounds) {
  Function Fn = parseOk("def f(a:i16) -> (y:i8) { y:i8 = slice[9](a); }");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
  Function Ok = parseOk("def f(a:i16) -> (y:i8) { y:i8 = slice[8](a); }");
  EXPECT_TRUE(verify(Ok, Sinks.context()).ok());
}

TEST(Verifier, CatBitWidths) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8) {
      y:i8 = cat(a, b);
    }
  )");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Fn, Sinks.context()).ok());
  Function Ok = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8<2>) {
      y:i8<2> = cat(a, b);
    }
  )");
  EXPECT_TRUE(verify(Ok, Sinks.context()).ok());
}

TEST(Verifier, VectorConstLaneCount) {
  Function Bad = parseOk("def f() -> (y:i8<4>) { y:i8<4> = const[1, 2]; }");
  obs::Sinks Sinks;
  EXPECT_FALSE(verify(Bad, Sinks.context()).ok());
  Function Splat = parseOk("def f() -> (y:i8<4>) { y:i8<4> = const[7]; }");
  EXPECT_TRUE(verify(Splat, Sinks.context()).ok());
  Function Full =
      parseOk("def f() -> (y:i8<4>) { y:i8<4> = const[1, 2, 3, 4]; }");
  EXPECT_TRUE(verify(Full, Sinks.context()).ok());
}

TEST(Verifier, TopoOrderRespectsDependencies) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(t0, t1) @??;
      t1:i8 = mul(t0, a) @??;
      t0:i8 = id(a);
    }
  )");
  obs::Sinks Sinks;
  Result<std::vector<size_t>> Order = topoOrder(Fn, Sinks.context());
  ASSERT_TRUE(Order.ok()) << Order.error();
  // t0 (index 2) must precede t1 (index 1), which must precede y (index 0).
  std::vector<size_t> Position(3);
  for (size_t I = 0; I < Order.value().size(); ++I)
    Position[Order.value()[I]] = I;
  EXPECT_LT(Position[2], Position[1]);
  EXPECT_LT(Position[1], Position[0]);
}
