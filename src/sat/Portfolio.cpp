//===- sat/Portfolio.cpp - Deterministic clause-sharing portfolio --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sat/Portfolio.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace reticle;
using namespace reticle::sat;

/// One racing lane: a solver over private quiet observability state (so
/// concurrent lanes never touch the caller's telemetry), its export
/// buffer, and its per-round proof fragment. Heap-allocated so the
/// solver's context reference stays stable.
struct Portfolio::Lane {
  obs::Telemetry Telem;
  obs::RemarkStream Rem; // never enabled: lanes are quiet
  obs::Coverage Cov;
  obs::Context LaneCtx;
  Solver S;
  ClauseExportBuffer Export;
  ProofWriter LaneProof;

  explicit Lane(const Solver::Config &Cfg)
      : LaneCtx{&Telem, &Rem, &Cov}, S(Cfg, LaneCtx) {
    LaneProof.suppressDeletions();
  }
};

Solver::Config Portfolio::laneConfig(unsigned I) {
  Solver::Config C;
  C.Seed = 0x9e3779b97f4a7c15ull * (uint64_t(I) + 1);
  switch (I % 4) {
  case 0:
    // Reference lane: the exact single-solver defaults, so a portfolio
    // race can never be worse than the incremental solver on formulas the
    // default policy already handles well.
    break;
  case 1:
    C.VarDecay = 0.90; // hotter VSIDS
    C.RestartBase = 32;
    break;
  case 2:
    C.Phase = Solver::Config::PhaseInit::False; // exclusion-first models
    C.VarDecay = 0.97;
    break;
  case 3:
    C.Phase = Solver::Config::PhaseInit::Hashed;
    C.RestartBase = 128; // long runs between restarts
    break;
  }
  return C;
}

Portfolio::Portfolio(const Options &OptsIn, const obs::Context &Ctx)
    : Opts(OptsIn), Ctx(Ctx) {
  Opts.Lanes = std::max(1u, std::min(8u, Opts.Lanes));
  if (Opts.RoundConflicts == 0)
    Opts.RoundConflicts = 2000;
  LaneStates.reserve(Opts.Lanes);
  for (unsigned I = 0; I < Opts.Lanes; ++I)
    LaneStates.push_back(std::make_unique<Lane>(laneConfig(I)));
}

Portfolio::~Portfolio() = default;

Var Portfolio::newVar() {
  Var V = 0;
  for (auto &L : LaneStates)
    V = L->S.newVar();
  return V; // identical in every lane: one shared numbering
}

uint32_t Portfolio::numVars() const { return LaneStates[0]->S.numVars(); }

size_t Portfolio::numClauses() const {
  return LaneStates[0]->S.numClauses();
}

bool Portfolio::addClause(std::vector<Lit> Lits) {
  bool Ok = true;
  for (auto &L : LaneStates)
    Ok &= L->S.addClause(Lits);
  return Ok;
}

bool Portfolio::addBinary(Lit A, Lit B) {
  bool Ok = true;
  for (auto &L : LaneStates)
    Ok &= L->S.addBinary(A, B);
  return Ok;
}

void Portfolio::setPhase(Var V, bool Phase) {
  for (auto &L : LaneStates)
    L->S.setPhase(V, Phase);
}

bool Portfolio::ok() const { return LaneStates[0]->S.ok(); }

bool Portfolio::value(Var V) const { return LaneStates[Winner]->S.value(V); }

const std::vector<Lit> &Portfolio::unsatCore() const {
  return LaneStates[Winner]->S.unsatCore();
}

Outcome Portfolio::solveWith(const std::vector<Lit> &Assumptions,
                             uint64_t ConflictBudget) {
  obs::Span Sp(Ctx, "sat.portfolio.solve");
  Sp.arg("lanes", static_cast<uint64_t>(lanes()));
  auto T0 = std::chrono::steady_clock::now();
  ++Stats.Solves;
  Ctx.counter("sat.portfolio.solves") += 1;

  std::vector<Solver::Statistics> Before;
  Before.reserve(LaneStates.size());
  for (auto &L : LaneStates)
    Before.push_back(L->S.stats());
  const Statistics StatsBefore = Stats;

  uint64_t Budget = ConflictBudget ? ConflictBudget : UINT64_MAX;
  uint64_t Spent = 0;
  uint64_t RoundsHere = 0;
  Outcome Decided = Outcome::Unknown;
  Winner = 0;

  while (true) {
    uint64_t Quantum = std::min<uint64_t>(Opts.RoundConflicts, Budget - Spent);
    std::vector<Outcome> Res(LaneStates.size(), Outcome::Unknown);
    {
      // One round: every lane burns its quantum concurrently. Each lane
      // touches only its own state, so the round is a pure fork/join; the
      // joins are the barrier that makes the exchange below safe and the
      // whole race deterministic.
      std::vector<std::thread> Threads;
      Threads.reserve(LaneStates.size());
      for (size_t I = 0; I < LaneStates.size(); ++I)
        Threads.emplace_back([&, I] {
          Lane &L = *LaneStates[I];
          L.S.setExport(&L.Export);
          L.S.setProof(Proof ? &L.LaneProof : nullptr);
          Res[I] = L.S.solveWith(Assumptions, Quantum);
          L.S.setExport(nullptr);
          L.S.setProof(nullptr);
        });
      for (std::thread &T : Threads)
        T.join();
    }
    ++Stats.Rounds;
    ++RoundsHere;
    Ctx.counter("sat.portfolio.rounds") += 1;
    Spent += Quantum;

    // Merge the round's proof fragments in lane order. Within a lane the
    // additions are in learn order, and every import a lane used was
    // exported (and therefore logged) in an earlier round, so the merged
    // stream stays RUP-monotone.
    if (Proof)
      for (auto &L : LaneStates)
        Proof->appendRaw(L->LaneProof.take());

    // Deterministic winner selection: the lowest-numbered lane that
    // decided in this (earliest) finishing round.
    for (size_t I = 0; I < Res.size(); ++I)
      if (Res[I] != Outcome::Unknown) {
        Winner = static_cast<unsigned>(I);
        Decided = Res[I];
        break;
      }
    if (Decided != Outcome::Unknown || Spent >= Budget)
      break;

    // Exchange barrier: publish each lane's short learnt clauses to every
    // other lane, in lane order then publication order.
    std::vector<Lit> Scratch;
    for (size_t I = 0; I < LaneStates.size(); ++I) {
      ClauseExportBuffer &Buf = LaneStates[I]->Export;
      size_t N = Buf.size();
      Stats.Exported += N;
      Stats.Dropped += Buf.dropped();
      for (size_t K = 0; K < N; ++K) {
        Scratch.assign(Buf.lits(K), Buf.lits(K) + Buf.litCount(K));
        for (size_t J = 0; J < LaneStates.size(); ++J) {
          if (J == I)
            continue;
          LaneStates[J]->S.importClause(Scratch);
          ++Stats.Imported;
        }
      }
      Buf.clear();
    }
  }

  // Reset the leftover publications of the deciding round.
  for (auto &L : LaneStates) {
    Stats.Dropped += L->Export.dropped();
    L->Export.clear();
  }

  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  const Solver::Statistics D =
      Solver::Statistics::delta(LaneStates[Winner]->S.stats(), Before[Winner]);
  WinnerDelta = D;
  WinnerProfile.Result = Decided;
  WinnerProfile.Decisions = D.Decisions;
  WinnerProfile.Propagations = D.Propagations;
  WinnerProfile.Conflicts = D.Conflicts;
  WinnerProfile.Restarts = D.Restarts;
  WinnerProfile.Learned = D.Learned;
  WinnerProfile.TimeMs = Ms;
  if (Decided != Outcome::Unknown)
    ++Stats.WinsByLane[std::min<unsigned>(Winner, 7)];

  Ctx.counter("sat.portfolio.exported") += Stats.Exported - StatsBefore.Exported;
  Ctx.counter("sat.portfolio.imported") += Stats.Imported - StatsBefore.Imported;
  Ctx.counter("sat.portfolio.dropped") += Stats.Dropped - StatsBefore.Dropped;
  Ctx.histogram("sat.portfolio.solve_ms").record(Ms);
  Sp.arg("rounds", RoundsHere);
  Sp.arg("winner", static_cast<uint64_t>(Winner));
  Sp.arg("outcome", Decided == Outcome::Sat     ? "sat"
                    : Decided == Outcome::Unsat ? "unsat"
                                                : "unknown");
  return Decided;
}
