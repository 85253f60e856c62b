//===- sat/Dimacs.cpp - DIMACS CNF I/O ------------------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"

#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdlib>

using namespace reticle;
using namespace reticle::sat;

std::string Cnf::str() const {
  std::string Out = "p cnf " + std::to_string(NumVars) + " " +
                    std::to_string(Clauses.size()) + "\n";
  for (const std::vector<int> &Clause : Clauses) {
    for (int L : Clause)
      Out += std::to_string(L) + " ";
    Out += "0\n";
  }
  return Out;
}

bool Cnf::loadInto(Solver &S) const {
  while (S.numVars() < NumVars)
    S.newVar();
  for (const std::vector<int> &Clause : Clauses) {
    std::vector<Lit> Lits;
    Lits.reserve(Clause.size());
    for (int L : Clause)
      Lits.push_back(Lit(static_cast<Var>(std::abs(L) - 1), L < 0));
    if (!S.addClause(std::move(Lits)))
      return false;
  }
  return true;
}

Result<Cnf> reticle::sat::parseDimacs(const std::string &Source) {
  Cnf Out;
  size_t I = 0, N = Source.size();
  bool SawHeader = false;
  std::vector<int> Current;
  size_t DeclaredClauses = 0;

  auto SkipSpace = [&] {
    while (I < N && std::isspace(static_cast<unsigned char>(Source[I])))
      ++I;
  };
  while (true) {
    SkipSpace();
    if (I >= N)
      break;
    char C = Source[I];
    if (C == 'c') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (C == 'p') {
      if (SawHeader)
        return fail<Cnf>("duplicate DIMACS header");
      ++I;
      SkipSpace();
      if (Source.compare(I, 3, "cnf") != 0)
        return fail<Cnf>("expected 'cnf' in DIMACS header");
      I += 3;
      char *End = nullptr;
      long Vars = std::strtol(Source.c_str() + I, &End, 10);
      if (End == Source.c_str() + I || Vars < 0)
        return fail<Cnf>("malformed variable count");
      if (static_cast<unsigned long>(Vars) > UINT32_MAX)
        return fail<Cnf>("variable count exceeds 4294967295");
      I = static_cast<size_t>(End - Source.c_str());
      long NumClauses = std::strtol(Source.c_str() + I, &End, 10);
      if (End == Source.c_str() + I || NumClauses < 0)
        return fail<Cnf>("malformed clause count");
      I = static_cast<size_t>(End - Source.c_str());
      Out.NumVars = static_cast<uint32_t>(Vars);
      DeclaredClauses = static_cast<size_t>(NumClauses);
      SawHeader = true;
      continue;
    }
    if (!SawHeader)
      return fail<Cnf>("literal before DIMACS header");
    char *End = nullptr;
    long L = std::strtol(Source.c_str() + I, &End, 10);
    if (End == Source.c_str() + I)
      return fail<Cnf>("malformed literal");
    // Checked before narrowing, which also keeps std::abs off LONG_MIN.
    if (L > INT_MAX || L < -INT_MAX)
      return fail<Cnf>("literal magnitude exceeds 2147483647");
    I = static_cast<size_t>(End - Source.c_str());
    if (L == 0) {
      Out.Clauses.push_back(Current);
      Current.clear();
      continue;
    }
    if (static_cast<uint32_t>(std::abs(L)) > Out.NumVars)
      return fail<Cnf>("literal exceeds declared variable count");
    Current.push_back(static_cast<int>(L));
  }
  if (!SawHeader)
    return fail<Cnf>("missing DIMACS header");
  if (!Current.empty())
    return fail<Cnf>("unterminated clause at end of input");
  if (Out.Clauses.size() != DeclaredClauses)
    return fail<Cnf>("clause count mismatch: declared " +
                     std::to_string(DeclaredClauses) + ", found " +
                     std::to_string(Out.Clauses.size()));
  return Out;
}
