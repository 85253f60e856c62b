//===- tests/sat_test.cpp - SAT solver tests -----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"
#include "sat/Solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <sstream>

using namespace reticle;
using namespace reticle::sat;

namespace {

/// Checks a model against a clause list.
bool satisfies(const std::vector<std::vector<Lit>> &Clauses,
               const Solver &S) {
  for (const std::vector<Lit> &Clause : Clauses) {
    bool Ok = false;
    for (Lit L : Clause)
      if (S.value(L.var()) != L.negated()) {
        Ok = true;
        break;
      }
    if (!Ok)
      return false;
  }
  return true;
}

/// Brute-force satisfiability for up to ~20 variables.
bool bruteForce(uint32_t NumVars,
                const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << NumVars); ++Mask) {
    bool All = true;
    for (const std::vector<Lit> &Clause : Clauses) {
      bool Ok = false;
      for (Lit L : Clause) {
        bool V = (Mask >> L.var()) & 1;
        if (V != L.negated()) {
          Ok = true;
          break;
        }
      }
      if (!Ok) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

} // namespace

TEST(Sat, TrivialSat) {
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var A = S.newVar();
  Var B = S.newVar();
  EXPECT_TRUE(S.addClause({Lit(A), Lit(B)}));
  EXPECT_TRUE(S.addClause({Lit(A, true), Lit(B)}));
  EXPECT_EQ(S.solve(), Outcome::Sat);
  EXPECT_TRUE(S.value(B));
}

TEST(Sat, TrivialUnsat) {
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var A = S.newVar();
  EXPECT_TRUE(S.addUnit(Lit(A)));
  EXPECT_FALSE(S.addUnit(Lit(A, true)));
  EXPECT_EQ(S.solve(), Outcome::Unsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  S.newVar();
  EXPECT_FALSE(S.addClause({}));
  EXPECT_EQ(S.solve(), Outcome::Unsat);
}

TEST(Sat, TautologyIgnored) {
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit(A), Lit(A, true)}));
  EXPECT_EQ(S.solve(), Outcome::Sat);
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons in 3 holes: classic small UNSAT instance that forces real
  // conflict analysis.
  constexpr unsigned Pigeons = 4, Holes = 3;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var P[Pigeons][Holes];
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        ASSERT_TRUE(S.addBinary(Lit(P[I1][J], true), Lit(P[I2][J], true)));
  EXPECT_EQ(S.solve(), Outcome::Unsat);
}

TEST(Sat, PigeonholeSatWhenEnoughHoles) {
  constexpr unsigned Pigeons = 4, Holes = 4;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  std::vector<std::vector<Lit>> Clauses;
  Var P[Pigeons][Holes];
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    Clauses.push_back(AtLeastOne);
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        Clauses.push_back({Lit(P[I1][J], true), Lit(P[I2][J], true)});
  for (const std::vector<Lit> &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  ASSERT_EQ(S.solve(), Outcome::Sat);
  EXPECT_TRUE(satisfies(Clauses, S));
}

TEST(Sat, ChainedImplications) {
  // x0 -> x1 -> ... -> x99, x0 forced true, then force !x99: UNSAT.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  std::vector<Var> X;
  for (unsigned I = 0; I < 100; ++I)
    X.push_back(S.newVar());
  for (unsigned I = 0; I + 1 < 100; ++I)
    ASSERT_TRUE(S.addBinary(Lit(X[I], true), Lit(X[I + 1])));
  ASSERT_TRUE(S.addUnit(Lit(X[0])));
  EXPECT_EQ(S.solve(), Outcome::Sat);
  EXPECT_TRUE(S.value(X[99]));
  Solver S2(Sinks.context());
  std::vector<Var> Y;
  for (unsigned I = 0; I < 100; ++I)
    Y.push_back(S2.newVar());
  for (unsigned I = 0; I + 1 < 100; ++I)
    ASSERT_TRUE(S2.addBinary(Lit(Y[I], true), Lit(Y[I + 1])));
  ASSERT_TRUE(S2.addUnit(Lit(Y[0])));
  bool Ok = S2.addUnit(Lit(Y[99], true));
  EXPECT_TRUE(!Ok || S2.solve() == Outcome::Unsat);
}

class SatRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SatRandomTest, AgreesWithBruteForce) {
  // Random 3-SAT near the phase transition, checked against brute force.
  std::mt19937 Rng(GetParam());
  constexpr uint32_t NumVars = 12;
  std::uniform_int_distribution<uint32_t> VarDist(0, NumVars - 1);
  std::uniform_int_distribution<int> SignDist(0, 1);
  uint32_t NumClauses = 12 + GetParam() % 40;

  std::vector<std::vector<Lit>> Clauses;
  for (uint32_t I = 0; I < NumClauses; ++I) {
    std::vector<Lit> Clause;
    for (int K = 0; K < 3; ++K)
      Clause.push_back(Lit(VarDist(Rng), SignDist(Rng) != 0));
    Clauses.push_back(std::move(Clause));
  }

  obs::Sinks Sinks;
  Solver S(Sinks.context());
  for (uint32_t V = 0; V < NumVars; ++V)
    S.newVar();
  bool AddOk = true;
  for (const std::vector<Lit> &C : Clauses)
    AddOk = S.addClause(C) && AddOk;

  bool Expected = bruteForce(NumVars, Clauses);
  if (!AddOk) {
    EXPECT_FALSE(Expected);
    return;
  }
  Outcome Got = S.solve();
  EXPECT_EQ(Got == Outcome::Sat, Expected);
  if (Got == Outcome::Sat) {
    EXPECT_TRUE(satisfies(Clauses, S));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomTest, ::testing::Range(0u, 60u));

TEST(Dimacs, ParseAndSolve) {
  const char *Source = R"(
c a small satisfiable instance
p cnf 3 3
1 -2 0
2 3 0
-1 0
)";
  Result<Cnf> C = parseDimacs(Source);
  ASSERT_TRUE(C.ok()) << C.error();
  EXPECT_EQ(C.value().NumVars, 3u);
  EXPECT_EQ(C.value().Clauses.size(), 3u);
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  ASSERT_TRUE(C.value().loadInto(S));
  ASSERT_EQ(S.solve(), Outcome::Sat);
  EXPECT_FALSE(S.value(0)); // -1 unit
  EXPECT_FALSE(S.value(1)); // 1 or -2 with !x1 forces -2
  EXPECT_TRUE(S.value(2));  // 2 or 3 with !x2 forces 3
}

TEST(Dimacs, RoundTrip) {
  Cnf C;
  C.NumVars = 4;
  C.Clauses = {{1, -2}, {3, 4, -1}, {-4}};
  Result<Cnf> Again = parseDimacs(C.str());
  ASSERT_TRUE(Again.ok()) << Again.error();
  EXPECT_EQ(Again.value().NumVars, C.NumVars);
  EXPECT_EQ(Again.value().Clauses, C.Clauses);
}

TEST(Dimacs, RejectsMalformed) {
  EXPECT_FALSE(parseDimacs("1 2 0").ok());
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 3 0\n").ok());
  EXPECT_FALSE(parseDimacs("p cnf 2 2\n1 2 0\n").ok());
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 2\n").ok());
  // Out-of-range numbers are rejected, not narrowed: 2^32 + 1 would
  // otherwise read as 1.
  Result<Cnf> Vars = parseDimacs("p cnf 4294967297 1\n1 0\n");
  ASSERT_FALSE(Vars.ok());
  EXPECT_NE(Vars.error().find("variable count"), std::string::npos)
      << Vars.error();
  EXPECT_FALSE(parseDimacs("p cnf 99999999999999999999 1\n1 0\n").ok());
  for (const char *Lit : {"4294967297", "-4294967297", "2147483648",
                          "-2147483648", "-9223372036854775808",
                          "99999999999999999999"}) {
    Result<Cnf> R =
        parseDimacs(std::string("p cnf 4294967295 1\n") + Lit + " 0\n");
    ASSERT_FALSE(R.ok()) << Lit;
    EXPECT_NE(R.error().find("literal magnitude"), std::string::npos)
        << Lit << ": " << R.error();
  }
  // The extremes that do fit still parse.
  Result<Cnf> Max =
      parseDimacs("p cnf 4294967295 1\n2147483647 -2147483647 0\n");
  ASSERT_TRUE(Max.ok()) << Max.error();
  EXPECT_EQ(Max.value().NumVars, 4294967295u);
  EXPECT_EQ(Max.value().Clauses[0],
            (std::vector<int>{2147483647, -2147483647}));
}

TEST(Sat, StatsArePopulated) {
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  std::vector<Var> X;
  for (unsigned I = 0; I < 20; ++I)
    X.push_back(S.newVar());
  // XOR-like chains generate conflicts.
  for (unsigned I = 0; I + 2 < 20; ++I) {
    ASSERT_TRUE(S.addClause({Lit(X[I]), Lit(X[I + 1]), Lit(X[I + 2])}));
    ASSERT_TRUE(S.addClause(
        {Lit(X[I], true), Lit(X[I + 1], true), Lit(X[I + 2], true)}));
  }
  ASSERT_EQ(S.solve(), Outcome::Sat);
  EXPECT_GT(S.stats().Decisions, 0u);
  EXPECT_GT(S.stats().Propagations, 0u);
}

TEST(Sat, StatsNonzeroAndMonotoneOnUnsat) {
  // Pigeonhole PHP(4,3) forces genuine conflict-driven search, so every
  // statistic of interest must move.
  constexpr unsigned Pigeons = 4, Holes = 3;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var P[Pigeons][Holes];
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        ASSERT_TRUE(S.addBinary(Lit(P[I1][J], true), Lit(P[I2][J], true)));
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  Solver::Statistics First = S.stats();
  EXPECT_GT(First.Decisions, 0u);
  EXPECT_GT(First.Propagations, 0u);
  EXPECT_GT(First.Conflicts, 0u);
  // Statistics accumulate across solves: a second call may add events but
  // can never report fewer.
  EXPECT_EQ(S.solve(), Outcome::Unsat);
  EXPECT_GE(S.stats().Decisions, First.Decisions);
  EXPECT_GE(S.stats().Propagations, First.Propagations);
  EXPECT_GE(S.stats().Conflicts, First.Conflicts);
  EXPECT_GE(S.stats().Restarts, First.Restarts);
  EXPECT_GE(S.stats().Learned, First.Learned);
}

TEST(Sat, StatsNonzeroAndMonotoneOnSat) {
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  std::vector<Var> X;
  for (unsigned I = 0; I < 20; ++I)
    X.push_back(S.newVar());
  for (unsigned I = 0; I + 2 < 20; ++I) {
    ASSERT_TRUE(S.addClause({Lit(X[I]), Lit(X[I + 1]), Lit(X[I + 2])}));
    ASSERT_TRUE(S.addClause(
        {Lit(X[I], true), Lit(X[I + 1], true), Lit(X[I + 2], true)}));
  }
  ASSERT_EQ(S.solve(), Outcome::Sat);
  Solver::Statistics First = S.stats();
  EXPECT_GT(First.Decisions, 0u);
  EXPECT_GT(First.Propagations, 0u);
  ASSERT_EQ(S.solve(), Outcome::Sat);
  Solver::Statistics Second = S.stats();
  EXPECT_GE(Second.Decisions, First.Decisions);
  EXPECT_GE(Second.Propagations, First.Propagations);
  EXPECT_GE(Second.Conflicts, First.Conflicts);
  // The second run does real work again, so the totals strictly grow.
  EXPECT_GT(Second.Decisions + Second.Propagations,
            First.Decisions + First.Propagations);
}

TEST(Sat, FailedAssumptionsYieldCore) {
  // Selector-style encoding: s1 forces x, s2 forces !x, s3 forces the
  // irrelevant y. Assuming all three is Unsat, and only s1 and s2 can be
  // responsible.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var S1 = S.newVar(), S2 = S.newVar(), S3 = S.newVar();
  Var X = S.newVar(), Y = S.newVar();
  ASSERT_TRUE(S.addBinary(Lit(S1, true), Lit(X)));
  ASSERT_TRUE(S.addBinary(Lit(S2, true), Lit(X, true)));
  ASSERT_TRUE(S.addBinary(Lit(S3, true), Lit(Y)));
  ASSERT_EQ(S.solveWith({Lit(S1), Lit(S2), Lit(S3)}), Outcome::Unsat);
  const std::vector<Lit> &Core = S.unsatCore();
  ASSERT_FALSE(Core.empty());
  for (Lit L : Core) {
    EXPECT_TRUE(L.var() == S1 || L.var() == S2)
        << "core names the irrelevant assumption s3 (var " << L.var() << ")";
    EXPECT_FALSE(L.negated());
  }
  // Dropping any assumption outside the core keeps the formula Unsat, and
  // the full assumption set without both core members is Sat — the core
  // is unsatisfiable on its own.
  ASSERT_EQ(S.solveWith({Lit(S1), Lit(S2)}), Outcome::Unsat);
  ASSERT_EQ(S.solveWith({Lit(S1), Lit(S3)}), Outcome::Sat);
  ASSERT_EQ(S.solveWith({Lit(S2), Lit(S3)}), Outcome::Sat);
}

TEST(Sat, CoreIsUnsatisfiableAsUnitClauses) {
  // The reported core, asserted as unit clauses over the same formula in a
  // fresh solver, must itself be unsatisfiable.
  auto Build = [](Solver &S, Var &A, Var &B, Var &X) {
    A = S.newVar();
    B = S.newVar();
    X = S.newVar();
    ASSERT_TRUE(S.addBinary(Lit(A, true), Lit(X)));
    ASSERT_TRUE(S.addBinary(Lit(B, true), Lit(X, true)));
  };
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var A, B, X;
  Build(S, A, B, X);
  ASSERT_EQ(S.solveWith({Lit(A), Lit(B)}), Outcome::Unsat);
  std::vector<Lit> Core = S.unsatCore();
  ASSERT_FALSE(Core.empty());

  // Asserting the core as units must refute the formula, either already
  // at add time (root-level unit contradiction) or in the solver.
  Solver Fresh(Sinks.context());
  Var A2, B2, X2;
  Build(Fresh, A2, B2, X2);
  bool Contradicted = false;
  for (Lit L : Core)
    if (!Fresh.addClause({L})) {
      Contradicted = true;
      break;
    }
  EXPECT_TRUE(Contradicted || Fresh.solve() == Outcome::Unsat);
}

TEST(Sat, MinimizeCoreDropsRedundantAssumptions) {
  // a forces x, c forces !x; b constrains nothing. A seeded "core" of all
  // three must shrink to exactly {a, c}.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addBinary(Lit(A, true), Lit(X)));
  ASSERT_TRUE(S.addBinary(Lit(C, true), Lit(X, true)));
  ASSERT_EQ(S.solveWith({Lit(A), Lit(B), Lit(C)}), Outcome::Unsat);
  std::vector<Lit> Minimal = S.minimizeCore({Lit(A), Lit(B), Lit(C)});
  ASSERT_EQ(Minimal.size(), 2u);
  bool HasA = false, HasC = false;
  for (Lit L : Minimal) {
    HasA = HasA || L == Lit(A);
    HasC = HasC || L == Lit(C);
  }
  EXPECT_TRUE(HasA);
  EXPECT_TRUE(HasC);
  // Minimization runs extra solves; the solver stays usable after.
  EXPECT_EQ(S.solveWith({Lit(A), Lit(B)}), Outcome::Sat);
}

TEST(Sat, BudgetExhaustedSolveReportsItsWork) {
  // PHP(4,3) cannot be refuted within one conflict; the probe must come
  // back Unknown while its Statistics delta still reports the work it
  // did — the shrink-probe remarks depend on this.
  constexpr unsigned Pigeons = 4, Holes = 3;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var P[Pigeons][Holes];
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        ASSERT_TRUE(S.addBinary(Lit(P[I1][J], true), Lit(P[I2][J], true)));
  Solver::Statistics Before = S.stats();
  Outcome O = S.solve(/*ConflictBudget=*/1);
  Solver::Statistics D = Solver::Statistics::delta(S.stats(), Before);
  ASSERT_EQ(O, Outcome::Unknown);
  EXPECT_GE(D.Conflicts, 1u);
  EXPECT_GT(D.Decisions, 0u);
  EXPECT_EQ(S.stats().Unknowns, 1u);
  EXPECT_EQ(S.stats().Solves, 1u);
  // And without the budget the same solver still refutes the formula.
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  EXPECT_EQ(S.stats().Solves, 2u);
  EXPECT_EQ(S.stats().Unknowns, 1u);
}

TEST(Sat, LearnedClauseHistogramsFill) {
  constexpr unsigned Pigeons = 5, Holes = 4;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        ASSERT_TRUE(S.addBinary(Lit(P[I1][J], true), Lit(P[I2][J], true)));
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  uint64_t LbdTotal = 0, SizeTotal = 0;
  for (size_t I = 0; I < Solver::Statistics::HistogramBuckets; ++I) {
    LbdTotal += S.stats().LbdHistogram[I];
    SizeTotal += S.stats().LearnedSizeHistogram[I];
  }
  // Every analyzed conflict lands in both histograms (unit learnts are
  // recorded too, though not stored as clauses).
  EXPECT_GT(LbdTotal, 0u);
  EXPECT_EQ(LbdTotal, SizeTotal);
  EXPECT_GE(LbdTotal, S.stats().Learned);
  EXPECT_GT(S.stats().SolveMs, 0.0);
}

TEST(Sat, DeltaAccountingIsExactAcrossRepeatedSolves) {
  // One solver, four solves under different assumptions: the per-solve
  // deltas must partition the accumulated totals exactly — this is the
  // contract per-solve attribution on a reused solver rests on.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addClause({Lit(A), Lit(B)}));
  ASSERT_TRUE(S.addClause({Lit(A, true), Lit(C)}));
  ASSERT_TRUE(S.addClause({Lit(B, true), Lit(C, true)}));

  const Solver::Statistics Zero;
  Solver::Statistics Sum = Zero;
  for (const std::vector<Lit> &Assumps :
       {std::vector<Lit>{}, {Lit(A)}, {Lit(B)}, {Lit(A), Lit(B)}}) {
    Solver::Statistics Before = S.stats();
    S.solveWith(Assumps);
    Solver::Statistics D = Solver::Statistics::delta(S.stats(), Before);
    Sum.Decisions += D.Decisions;
    Sum.Propagations += D.Propagations;
    Sum.Conflicts += D.Conflicts;
    Sum.Solves += D.Solves;
    Sum.Unknowns += D.Unknowns;
  }
  EXPECT_EQ(Sum.Decisions, S.stats().Decisions);
  EXPECT_EQ(Sum.Propagations, S.stats().Propagations);
  EXPECT_EQ(Sum.Conflicts, S.stats().Conflicts);
  EXPECT_EQ(Sum.Solves, S.stats().Solves);
  EXPECT_EQ(Sum.Solves, 4u);
  EXPECT_EQ(Sum.Unknowns, 0u);
}

TEST(Sat, DeltaAttributesUnknownToItsProbe) {
  // A budget-exhausted probe in the middle of a reused solver's life must
  // surface Unknowns=1 in ITS delta, not leak into neighbors.
  constexpr unsigned Pigeons = 7, Holes = 6;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2)
        ASSERT_TRUE(S.addBinary(Lit(P[I1][J], true), Lit(P[I2][J], true)));

  Solver::Statistics Before = S.stats();
  ASSERT_EQ(S.solve(/*ConflictBudget=*/5), Outcome::Unknown);
  Solver::Statistics D1 = Solver::Statistics::delta(S.stats(), Before);
  EXPECT_EQ(D1.Unknowns, 1u);
  EXPECT_EQ(D1.Conflicts, 5u);

  Before = S.stats();
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  Solver::Statistics D2 = Solver::Statistics::delta(S.stats(), Before);
  EXPECT_EQ(D2.Unknowns, 0u);
  EXPECT_GT(D2.Conflicts, 0u);
}

TEST(Sat, ProofWriterRecordsRefutation) {
  // The DRAT-style log of an UNSAT run ends in the empty clause and
  // carries every learnt addition in DIMACS notation.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  ProofWriter Proof;
  S.setProof(&Proof);
  Var A = S.newVar(), B = S.newVar();
  ASSERT_TRUE(S.addClause({Lit(A), Lit(B)}));
  ASSERT_TRUE(S.addClause({Lit(A), Lit(B, true)}));
  ASSERT_TRUE(S.addClause({Lit(A, true), Lit(B)}));
  ASSERT_TRUE(S.addClause({Lit(A, true), Lit(B, true)}));
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  EXPECT_GT(Proof.added(), 0u);
  const std::string &Text = Proof.str();
  // The log ends in the empty clause (a bare "0" line) and every other
  // line is a DIMACS clause or a comment/deletion.
  ASSERT_GE(Text.size(), 2u);
  EXPECT_EQ(Text.substr(Text.size() - 2), "0\n");
  std::string TakeOut = Proof.take();
  EXPECT_EQ(TakeOut.substr(TakeOut.size() - 2), "0\n");
  EXPECT_TRUE(Proof.str().empty());
}

namespace {

/// FNV-1a, 64-bit: a stable fingerprint of a proof log.
uint64_t fnv1a64(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

size_t countLinesStartingWith(const std::string &Text,
                              const std::string &Prefix) {
  size_t N = 0;
  for (size_t Pos = 0; Pos < Text.size();) {
    if (Text.compare(Pos, Prefix.size(), Prefix) == 0)
      ++N;
    size_t End = Text.find('\n', Pos);
    Pos = End == std::string::npos ? Text.size() : End + 1;
  }
  return N;
}

using Formula = std::vector<std::vector<Lit>>;

/// Pigeonhole PHP(Pigeons, Holes) over fresh variables, clauses added as
/// in PigeonholeUnsat. With \p Selectors, pigeon I's at-least-one clause
/// is guarded by selector I (clause or not-selector). With \p Added, every
/// clause is also appended there, in the order it reaches the solver.
void addPigeonhole(Solver &S, unsigned Pigeons, unsigned Holes,
                   const std::vector<Lit> &Selectors,
                   std::vector<std::vector<Var>> &P,
                   Formula *Added = nullptr) {
  P.assign(Pigeons, std::vector<Var>(Holes));
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (unsigned I = 0; I < Pigeons; ++I) {
    std::vector<Lit> AtLeastOne;
    for (unsigned J = 0; J < Holes; ++J)
      AtLeastOne.push_back(Lit(P[I][J]));
    if (I < Selectors.size())
      AtLeastOne.push_back(~Selectors[I]);
    if (Added)
      Added->push_back(AtLeastOne);
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I1 = 0; I1 < Pigeons; ++I1)
      for (unsigned I2 = I1 + 1; I2 < Pigeons; ++I2) {
        Lit A(P[I1][J], true), B(P[I2][J], true);
        if (Added)
          Added->push_back({A, B});
        ASSERT_TRUE(S.addBinary(A, B));
      }
}

/// What checkRup found in a proof log.
struct RupReport {
  size_t Lemmas = 0;          ///< additions accepted, in log order
  size_t Deletions = 0;       ///< "d" lines applied
  size_t Rejected = SIZE_MAX; ///< index of the first non-RUP addition
  bool Refuted = false;       ///< the empty clause was derived
};

/// A reverse-unit-propagation checker for the solver's DRAT-style log.
/// The clause database starts as \p F over \p NumVars variables; each
/// "d" line removes one clause with the same literals, and each added
/// lemma must be RUP against the database at that point: asserting the
/// negation of its literals and unit-propagating must reach a conflict.
/// An accepted lemma joins the database. Checking stops at the first
/// rejected lemma.
RupReport checkRup(uint32_t NumVars, const Formula &F,
                   const std::string &Proof) {
  std::vector<std::vector<Lit>> Db;
  std::vector<bool> Alive;
  std::vector<std::vector<uint32_t>> Occurs(2 * NumVars); // by Lit::index()
  std::map<std::vector<uint32_t>, std::vector<uint32_t>> ByLits;
  auto Key = [](const std::vector<Lit> &C) {
    std::vector<uint32_t> K;
    for (Lit L : C)
      K.push_back(L.index());
    std::sort(K.begin(), K.end());
    return K;
  };
  auto Add = [&](const std::vector<Lit> &C) {
    uint32_t Id = static_cast<uint32_t>(Db.size());
    for (Lit L : C)
      Occurs[L.index()].push_back(Id);
    ByLits[Key(C)].push_back(Id);
    Db.push_back(C);
    Alive.push_back(true);
  };
  std::vector<LBool> Value(NumVars, LBool::Undef);
  auto ValueOf = [&](Lit L) {
    LBool V = Value[L.var()];
    if (V == LBool::Undef)
      return V;
    return (V == LBool::True) != L.negated() ? LBool::True : LBool::False;
  };
  auto IsRup = [&](const std::vector<Lit> &C) {
    std::vector<Lit> Trail;
    // Makes L true; false when L is already false (a conflict).
    auto Assign = [&](Lit L) {
      if (ValueOf(L) != LBool::Undef)
        return ValueOf(L) == LBool::True;
      Value[L.var()] = L.negated() ? LBool::False : LBool::True;
      Trail.push_back(L);
      return true;
    };
    bool Conflict = false;
    for (Lit L : C)
      Conflict = Conflict || !Assign(~L);
    for (uint32_t Id = 0; !Conflict && Id < Db.size(); ++Id)
      if (Alive[Id] && Db[Id].size() == 1)
        Conflict = !Assign(Db[Id][0]);
    for (size_t Head = 0; !Conflict && Head < Trail.size(); ++Head)
      for (uint32_t Id : Occurs[(~Trail[Head]).index()]) {
        if (!Alive[Id])
          continue;
        size_t Open = 0;
        Lit Unit;
        bool Satisfied = false;
        for (Lit Q : Db[Id]) {
          LBool V = ValueOf(Q);
          Satisfied = Satisfied || V == LBool::True;
          if (V == LBool::Undef) {
            ++Open;
            Unit = Q;
          }
        }
        if (Satisfied || Open > 1)
          continue;
        if (Open == 0 || !Assign(Unit)) {
          Conflict = true;
          break;
        }
      }
    for (Lit L : Trail)
      Value[L.var()] = LBool::Undef;
    return Conflict;
  };

  for (const std::vector<Lit> &C : F)
    Add(C);
  RupReport R;
  std::istringstream Lines(Proof);
  for (std::string Line; std::getline(Lines, Line);) {
    if (Line.empty() || Line[0] == 'c')
      continue;
    bool Delete = Line.rfind("d ", 0) == 0;
    std::istringstream Nums(Delete ? Line.substr(2) : Line);
    std::vector<Lit> C;
    for (long D; Nums >> D && D != 0;)
      C.push_back(Lit(static_cast<Var>(std::labs(D) - 1), D < 0));
    if (Delete) {
      std::vector<uint32_t> &Ids = ByLits[Key(C)];
      EXPECT_FALSE(Ids.empty()) << "deletion of an absent clause: " << Line;
      if (!Ids.empty()) {
        Alive[Ids.back()] = false;
        Ids.pop_back();
      }
      ++R.Deletions;
      continue;
    }
    if (!IsRup(C)) {
      R.Rejected = R.Lemmas;
      return R;
    }
    ++R.Lemmas;
    R.Refuted = R.Refuted || C.empty();
    Add(C);
  }
  return R;
}

} // namespace

TEST(Sat, SearchTrajectoryIsPinned) {
  // The solver's search is a pure function of the formula and the call
  // sequence: every decision, propagation, learnt clause (literal order
  // included), reduceDb deletion and restart. Clause storage and the
  // decision queue are bookkeeping and must not move any of it. PHP(7,6)
  // runs long enough to restart and to reduce the learnt database. Any
  // change to these figures is a change of the search, which placement
  // results and --sat-proof logs depend on.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  ProofWriter Proof;
  S.setProof(&Proof);
  std::vector<std::vector<Var>> P;
  addPigeonhole(S, 7, 6, {}, P);
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  const Solver::Statistics &St = S.stats();
  EXPECT_EQ(St.Decisions, 852u);
  EXPECT_EQ(St.Propagations, 9178u);
  EXPECT_EQ(St.Conflicts, 712u);
  EXPECT_EQ(St.Restarts, 6u);
  EXPECT_EQ(St.Learned, 708u);
  const std::string &Text = Proof.str();
  EXPECT_EQ(Text.size(), 34793u);
  EXPECT_EQ(countLinesStartingWith(Text, "d "), 279u); // reduceDb ran
  EXPECT_EQ(Proof.added(), 712u);
  EXPECT_EQ(Proof.deleted(), 279u);
  EXPECT_EQ(fnv1a64(Text), 0xcd5b5c7451b6c157ull);
}

TEST(Sat, AssumptionSearchTrajectoryIsPinned) {
  // The same pin for solveWith, final-conflict analysis and minimizeCore:
  // PHP(7,6) with one selector per pigeon, plus two extra selectors that
  // place pigeons 0 and 1 outright. Minimizing the full selector list
  // re-solves once per probe and must drop two of the nine.
  constexpr unsigned Pigeons = 7, Holes = 6, Extra = 2;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  ProofWriter Proof;
  S.setProof(&Proof);
  std::vector<Lit> Sel;
  for (unsigned I = 0; I < Pigeons + Extra; ++I)
    Sel.push_back(Lit(S.newVar()));
  std::vector<std::vector<Var>> P;
  addPigeonhole(S, Pigeons, Holes, Sel, P);
  for (unsigned E = 0; E < Extra; ++E)
    ASSERT_TRUE(S.addBinary(~Sel[Pigeons + E], Lit(P[E][E])));
  ASSERT_EQ(S.solveWith(Sel), Outcome::Unsat);
  const std::vector<Lit> Expected = {Sel[8], Sel[7], Sel[6], Sel[5],
                                     Sel[4], Sel[3], Sel[2]};
  EXPECT_EQ(S.unsatCore(), Expected);
  EXPECT_EQ(S.minimizeCore(Sel, 2000), Expected);
  const Solver::Statistics &St = S.stats();
  EXPECT_EQ(St.Solves, 9u);
  EXPECT_EQ(St.Decisions, 161u);
  EXPECT_EQ(St.Propagations, 892u);
  EXPECT_EQ(St.Conflicts, 38u);
  EXPECT_EQ(St.Restarts, 0u);
  EXPECT_EQ(St.Learned, 38u);
  EXPECT_EQ(Proof.str().size(), 1859u);
  EXPECT_EQ(Proof.added(), 40u);
  EXPECT_EQ(fnv1a64(Proof.str()), 0x71e7dae0c1c420acull);
}

TEST(Sat, RefutationProofIsRup) {
  // Every lemma of SearchTrajectoryIsPinned's proof, deletions applied,
  // follows from the formula and the lemmas before it by unit
  // propagation, and the log ends by deriving the empty clause. The
  // checker is not vacuous: flipping the first literal of the 11th lemma
  // makes that lemma the first one rejected.
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  ProofWriter Proof;
  S.setProof(&Proof);
  std::vector<std::vector<Var>> P;
  Formula F;
  addPigeonhole(S, 7, 6, {}, P, &F);
  ASSERT_EQ(S.solve(), Outcome::Unsat);
  RupReport R = checkRup(S.numVars(), F, Proof.str());
  EXPECT_EQ(R.Rejected, SIZE_MAX);
  EXPECT_EQ(R.Lemmas, 712u);
  EXPECT_EQ(R.Deletions, 279u);
  EXPECT_TRUE(R.Refuted);

  std::string Text = Proof.str();
  size_t Pos = 0;
  for (unsigned Lemma = 0;; Pos = Text.find('\n', Pos) + 1) {
    ASSERT_LT(Pos, Text.size());
    if (Text.compare(Pos, 2, "d ") != 0 && Lemma++ == 10)
      break;
  }
  if (Text[Pos] == '-')
    Text.erase(Pos, 1);
  else
    Text.insert(Pos, 1, '-');
  EXPECT_EQ(checkRup(S.numVars(), F, Text).Rejected, 10u);
}

TEST(Sat, AssumptionProofIsRup) {
  // AssumptionSearchTrajectoryIsPinned's proof: learnt clauses plus the
  // implied clause of each failed-assumption core, every one RUP. The
  // formula is only unsatisfiable under assumptions, so no empty clause.
  constexpr unsigned Pigeons = 7, Holes = 6, Extra = 2;
  obs::Sinks Sinks;
  Solver S(Sinks.context());
  ProofWriter Proof;
  S.setProof(&Proof);
  std::vector<Lit> Sel;
  for (unsigned I = 0; I < Pigeons + Extra; ++I)
    Sel.push_back(Lit(S.newVar()));
  std::vector<std::vector<Var>> P;
  Formula F;
  addPigeonhole(S, Pigeons, Holes, Sel, P, &F);
  for (unsigned E = 0; E < Extra; ++E) {
    F.push_back({~Sel[Pigeons + E], Lit(P[E][E])});
    ASSERT_TRUE(S.addBinary(~Sel[Pigeons + E], Lit(P[E][E])));
  }
  ASSERT_EQ(S.solveWith(Sel), Outcome::Unsat);
  S.minimizeCore(Sel, 2000);
  RupReport R = checkRup(S.numVars(), F, Proof.str());
  EXPECT_EQ(R.Rejected, SIZE_MAX);
  EXPECT_EQ(R.Lemmas, 40u);
  EXPECT_FALSE(R.Refuted);
}

TEST(Sat, ReserveIsOnlyACapacityHint) {
  // A reservation sets capacity and nothing else. Both pinned
  // trajectories above come out the same with no reservation, with an
  // exact one, and with one far too short, which every container
  // outgrows at once.
  struct Reservation {
    size_t Vars, Clauses, Literals;
  };
  constexpr unsigned Pigeons = 7, Holes = 6, Extra = 2;
  // PHP(7,6): one variable per pigeon and hole, one at-least-one clause
  // of Holes literals per pigeon, one binary per hole and pigeon pair.
  constexpr size_t PhpVars = Pigeons * Holes;
  constexpr size_t Binaries = Holes * Pigeons * (Pigeons - 1) / 2;
  const std::optional<Reservation> Plain[] = {
      std::nullopt,
      Reservation{PhpVars, Pigeons + Binaries,
                  Pigeons * Holes + 2 * Binaries},
      Reservation{1, 1, 1}};
  for (const std::optional<Reservation> &R : Plain) {
    SCOPED_TRACE(R ? "plain, " + std::to_string(R->Vars) + " vars reserved"
                   : std::string("plain, no reservation"));
    obs::Sinks Sinks;
    Solver S(Sinks.context());
    if (R)
      S.reserve(R->Vars, R->Clauses, R->Literals);
    ProofWriter Proof;
    S.setProof(&Proof);
    std::vector<std::vector<Var>> P;
    addPigeonhole(S, Pigeons, Holes, {}, P);
    ASSERT_EQ(S.solve(), Outcome::Unsat);
    const Solver::Statistics &St = S.stats();
    EXPECT_EQ(St.Decisions, 852u);
    EXPECT_EQ(St.Propagations, 9178u);
    EXPECT_EQ(St.Conflicts, 712u);
    EXPECT_EQ(St.Restarts, 6u);
    EXPECT_EQ(St.Learned, 708u);
    EXPECT_EQ(Proof.str().size(), 34793u);
    EXPECT_EQ(Proof.added(), 712u);
    EXPECT_EQ(Proof.deleted(), 279u);
    EXPECT_EQ(fnv1a64(Proof.str()), 0xcd5b5c7451b6c157ull);
  }

  // With selectors: Pigeons + Extra more variables, every at-least-one
  // clause one literal longer, and Extra more binaries.
  const std::optional<Reservation> Selected[] = {
      std::nullopt,
      Reservation{Pigeons + Extra + PhpVars, Pigeons + Binaries + Extra,
                  Pigeons * (Holes + 1) + 2 * (Binaries + Extra)},
      Reservation{1, 1, 1}};
  for (const std::optional<Reservation> &R : Selected) {
    SCOPED_TRACE(R ? "selectors, " + std::to_string(R->Vars) +
                         " vars reserved"
                   : std::string("selectors, no reservation"));
    obs::Sinks Sinks;
    Solver S(Sinks.context());
    if (R)
      S.reserve(R->Vars, R->Clauses, R->Literals);
    ProofWriter Proof;
    S.setProof(&Proof);
    std::vector<Lit> Sel;
    for (unsigned I = 0; I < Pigeons + Extra; ++I)
      Sel.push_back(Lit(S.newVar()));
    std::vector<std::vector<Var>> P;
    addPigeonhole(S, Pigeons, Holes, Sel, P);
    for (unsigned E = 0; E < Extra; ++E)
      ASSERT_TRUE(S.addBinary(~Sel[Pigeons + E], Lit(P[E][E])));
    ASSERT_EQ(S.solveWith(Sel), Outcome::Unsat);
    const std::vector<Lit> Expected = {Sel[8], Sel[7], Sel[6], Sel[5],
                                       Sel[4], Sel[3], Sel[2]};
    EXPECT_EQ(S.unsatCore(), Expected);
    EXPECT_EQ(S.minimizeCore(Sel, 2000), Expected);
    const Solver::Statistics &St = S.stats();
    EXPECT_EQ(St.Solves, 9u);
    EXPECT_EQ(St.Decisions, 161u);
    EXPECT_EQ(St.Propagations, 892u);
    EXPECT_EQ(St.Conflicts, 38u);
    EXPECT_EQ(St.Restarts, 0u);
    EXPECT_EQ(St.Learned, 38u);
    EXPECT_EQ(Proof.str().size(), 1859u);
    EXPECT_EQ(Proof.added(), 40u);
    EXPECT_EQ(fnv1a64(Proof.str()), 0x71e7dae0c1c420acull);
  }
}

TEST(Sat, WatchPoolRegrowsMidPropagation) {
  // N clauses (not-x or y or z_i), each with a fresh z_i, all watch
  // not-x and y. The first decision sets x, and propagating it moves
  // every watcher on x's list to its clause's z_i, whose list is empty:
  // four new pool slots per move, 4N in all. Before the solve, x's and
  // y's lists fill blocks of 4, 8, ..., N slots each, 4N - 8 in all, and
  // a growing std::vector never has more spare room than its size. So
  // without a reservation the pool reallocates before the walk of x's
  // list ends, and the walk reads on from the new pool. (Under
  // AddressSanitizer, a read through a pointer into the old pool is a
  // heap-use-after-free.) A generous reservation lets the same solve run
  // without any reallocation.
  constexpr size_t N = 4096; // a power of two: the lists' blocks fit it
  auto Run = [](bool Reserve, std::vector<bool> &Model) {
    obs::Sinks Sinks;
    Solver S(Sinks.context());
    if (Reserve)
      S.reserve(2 * (N + 2), 2 * N, 6 * N);
    Var X = S.newVar(), Y = S.newVar();
    std::vector<std::vector<Lit>> Clauses;
    for (size_t I = 0; I < N; ++I) {
      Clauses.push_back({Lit(X, true), Lit(Y), Lit(S.newVar())});
      EXPECT_TRUE(S.addClause(Clauses.back()));
    }
    EXPECT_EQ(S.solve(), Outcome::Sat);
    EXPECT_TRUE(satisfies(Clauses, S));
    Model.clear();
    for (Var V = 0; V < S.numVars(); ++V)
      Model.push_back(S.value(V));
    return S.stats();
  };
  std::vector<bool> Grown, Reserved;
  Solver::Statistics A = Run(false, Grown);
  Solver::Statistics B = Run(true, Reserved);
  EXPECT_EQ(Grown, Reserved);
  EXPECT_EQ(A.Decisions, B.Decisions);
  EXPECT_EQ(A.Propagations, B.Propagations);
  EXPECT_EQ(A.Conflicts, B.Conflicts);
  EXPECT_EQ(A.Restarts, B.Restarts);
  EXPECT_EQ(A.Learned, B.Learned);
  // One decision per variable, x first, and nothing else to search.
  EXPECT_EQ(A.Decisions, N + 2);
  EXPECT_EQ(A.Conflicts, 0u);
}
