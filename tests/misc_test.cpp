//===- tests/misc_test.cpp - Cross-cutting coverage tests ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"
#include "place/Place.h"
#include "rasm/AsmParser.h"
#include "sat/Dimacs.h"
#include "tdl/TdlParser.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

using namespace reticle;
using device::Device;

TEST(StratixTarget, TextRoundTripsThroughPrinter) {
  const tdl::Target &T = tdl::stratix();
  Result<tdl::Target> Again = tdl::parseTarget("stratix2", T.str());
  ASSERT_TRUE(Again.ok()) << Again.error();
  EXPECT_EQ(Again.value().defs().size(), T.defs().size());
}

TEST(StratixTarget, SmallerThanUltrascale) {
  // No SIMD DSP configurations means strictly fewer definitions.
  EXPECT_LT(tdl::stratix().defs().size(), tdl::ultrascale().defs().size());
}

TEST(Sat, SolverCanBeReusedAfterSat) {
  obs::Sinks Sinks;
  sat::Solver S(Sinks.context());
  sat::Var A = S.newVar();
  sat::Var B = S.newVar();
  ASSERT_TRUE(S.addBinary(sat::Lit(A), sat::Lit(B)));
  ASSERT_EQ(S.solve(), sat::Outcome::Sat);
  // Adding a further constraint and re-solving must work.
  ASSERT_TRUE(S.addUnit(sat::Lit(A, true)));
  ASSERT_EQ(S.solve(), sat::Outcome::Sat);
  EXPECT_FALSE(S.value(A));
  EXPECT_TRUE(S.value(B));
}

TEST(Sat, ConflictBudgetReportsUnknown) {
  // A hard pigeonhole instance with a one-conflict budget gives up.
  constexpr unsigned Pigeons = 7, Holes = 6;
  obs::Sinks Sinks;
  sat::Solver S(Sinks.context());
  std::vector<std::vector<sat::Var>> P(Pigeons,
                                       std::vector<sat::Var>(Holes));
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<sat::Lit> C;
    for (unsigned J = 0; J < Holes; ++J)
      C.push_back(sat::Lit(P[I][J]));
    ASSERT_TRUE(S.addClause(C));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        ASSERT_TRUE(
            S.addBinary(sat::Lit(P[I1][J], true), sat::Lit(P[I2][J], true)));
  EXPECT_EQ(S.solve(/*ConflictBudget=*/1), sat::Outcome::Unknown);
}

TEST(CodegenDetail, BelLettersCycleAcrossSliceLuts) {
  // A 16-bit LUT xor needs 16 LUT2s: the BEL letters cycle A..H twice.
  Result<rasm::AsmProgram> P = rasm::parseAsmProgram(
      "def f(a:i16, b:i16) -> (y:i16) { y:i16 = xor(a, b) @lut(?\?, ?\?); }");
  ASSERT_TRUE(P.ok()) << P.error();
  obs::Sinks Sinks;
  Result<rasm::AsmProgram> Placed =
      place::place(P.value(), Device::small(), {}, nullptr, Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  codegen::Utilization Util;
  Result<verilog::Module> M =
      codegen::generate(Placed.value(), tdl::ultrascale(), Device::small(),
                        &Util, Sinks.context());
  ASSERT_TRUE(M.ok()) << M.error();
  EXPECT_EQ(Util.Luts, 16u);
  std::string Out = M.value().str();
  size_t FirstA = Out.find("BEL = \"A6LUT\"");
  size_t H = Out.find("BEL = \"H6LUT\"");
  ASSERT_NE(FirstA, std::string::npos);
  ASSERT_NE(H, std::string::npos);
  size_t SecondA = Out.find("BEL = \"A6LUT\"", FirstA + 1);
  EXPECT_NE(SecondA, std::string::npos);
}

TEST(PlaceCheck, DetectsForgedPlacements) {
  Result<rasm::AsmProgram> Orig = rasm::parseAsmProgram(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(x, r);
      z:i8 = add(b, a) @dsp(x, r+1);
    }
  )");
  ASSERT_TRUE(Orig.ok()) << Orig.error();

  // A placement that breaks the relative row constraint must be caught.
  Result<rasm::AsmProgram> Forged = rasm::parseAsmProgram(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(2, 0);
      z:i8 = add(b, a) @dsp(2, 4);
    }
  )");
  ASSERT_TRUE(Forged.ok()) << Forged.error();
  Status S = place::checkPlacement(Orig.value(), Forged.value(),
                                   Device::small());
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().find("relative constraint"), std::string::npos);

  // A duplicate slot must be caught.
  Result<rasm::AsmProgram> Dup = rasm::parseAsmProgram(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(2, 0);
      z:i8 = add(b, a) @dsp(2, 0);
    }
  )");
  ASSERT_TRUE(Dup.ok()) << Dup.error();
  Status S2 = place::checkPlacement(Orig.value(), Dup.value(),
                                    Device::small());
  ASSERT_FALSE(S2.ok());
  EXPECT_NE(S2.error().find("share slot"), std::string::npos);
}

TEST(Dimacs, WriteSolveRoundTrip) {
  // Build, print, re-parse, and solve an instance, confirming the model
  // satisfies the original clause list.
  sat::Cnf C;
  C.NumVars = 5;
  C.Clauses = {{1, 2, -3}, {-1, 4}, {3, -4, 5}, {-5, -2}, {2, 3}};
  Result<sat::Cnf> Again = sat::parseDimacs(C.str());
  ASSERT_TRUE(Again.ok()) << Again.error();
  obs::Sinks Sinks;
  sat::Solver S(Sinks.context());
  ASSERT_TRUE(Again.value().loadInto(S));
  ASSERT_EQ(S.solve(), sat::Outcome::Sat);
  for (const std::vector<int> &Clause : C.Clauses) {
    bool Ok = false;
    for (int L : Clause) {
      bool V = S.value(static_cast<sat::Var>(std::abs(L) - 1));
      if ((L > 0) == V)
        Ok = true;
    }
    EXPECT_TRUE(Ok);
  }
}

TEST(TdlPrinter, HolesRenderAsUnderscores) {
  const tdl::Target &T = tdl::ultrascale();
  for (const tdl::TargetDef &Def : T.defs())
    if (Def.Name == "reg" && Def.numHoles() == 1) {
      EXPECT_NE(Def.str().find("reg[_]("), std::string::npos) << Def.str();
      return;
    }
  FAIL() << "no reg definition with a hole found";
}
