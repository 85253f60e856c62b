//===- sat/Portfolio.h - Deterministic clause-sharing portfolio -*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A portfolio of N diverse CDCL lanes racing the same formula, in the
/// style of parallel clause-sharing SAT solvers. Each lane is a plain
/// sat::Solver with its own policy Config (seed, VSIDS decay, restart
/// scale, phase-init), its own private quiet observability state, and a
/// bounded lock-free export buffer for short learnt clauses.
///
/// The race is organized as *barrier-synchronized rounds* so the result
/// is byte-identical run to run: every lane searches for a fixed conflict
/// quantum (each lane's execution is single-threaded and deterministic
/// given its config and prior imports), the coordinator joins all lanes,
/// and only then exchanges the published clauses in lane order. The
/// winner of a probe is the lowest-numbered lane that decided (Sat or
/// Unsat) in the earliest finishing round — a rule that depends only on
/// per-lane deterministic state, never on thread scheduling. Threads buy
/// wall-clock, not nondeterminism.
///
/// Lanes record into private telemetry so concurrent lanes never race on
/// the caller's sinks; the coordinator aggregates the round/exchange
/// totals into the caller's context as sat.portfolio.* counters.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_SAT_PORTFOLIO_H
#define RETICLE_SAT_PORTFOLIO_H

#include "sat/Solver.h"

#include <memory>
#include <vector>

namespace reticle {
namespace sat {

class Portfolio {
public:
  struct Options {
    /// Racing lanes; clamped to [1, 8]. Lane 0 always runs the default
    /// single-solver configuration, so a one-lane portfolio degenerates
    /// to the plain incremental solver.
    unsigned Lanes = 4;
    /// Conflict quantum each lane burns per round before the exchange
    /// barrier.
    uint64_t RoundConflicts = 2000;
  };

  explicit Portfolio(const Options &Opts,
                     const obs::Context &Ctx = obs::defaultContext());
  ~Portfolio();

  /// The standard diversification for lane \p I: lane 0 is the reference
  /// (default) configuration; later lanes vary restarts, decay, and phase
  /// policy deterministically.
  static Solver::Config laneConfig(unsigned I);

  unsigned lanes() const { return static_cast<unsigned>(LaneStates.size()); }

  // Formula construction, mirrored into every lane. Lanes share the
  // variable numbering, which is what makes exported clauses portable.
  Var newVar();
  uint32_t numVars() const;
  size_t numClauses() const; ///< lane 0's clause count (original + learnt)
  bool addClause(std::vector<Lit> Lits);
  bool addUnit(Lit A) { return addClause({A}); }
  bool addBinary(Lit A, Lit B);
  void setPhase(Var V, bool Phase);
  bool ok() const;

  /// Races all lanes on the formula under \p Assumptions. With a nonzero
  /// \p ConflictBudget each lane gives up after burning that many
  /// conflicts across its rounds and the race reports Unknown.
  Outcome solveWith(const std::vector<Lit> &Assumptions,
                    uint64_t ConflictBudget = 0);

  /// Winner-lane result access after solveWith.
  bool value(Var V) const;
  const std::vector<Lit> &unsatCore() const;
  unsigned winnerLane() const { return Winner; }
  /// The winner lane's whole-probe delta (all of its rounds summed);
  /// TimeMs is the race's wall-clock.
  const Solver::SolveProfile &lastProfile() const { return WinnerProfile; }
  /// The winner lane's full Statistics delta for the last solveWith
  /// (histograms included), for callers that aggregate exact per-probe
  /// solver effort.
  const Solver::Statistics &lastDelta() const { return WinnerDelta; }

  /// Merged DRAT-style proof log: per round, each lane's additions are
  /// spliced in lane order (deletions suppressed — a lane-local deletion
  /// must not invalidate another lane's later inferences). Null detaches.
  void setProof(ProofWriter *P) { Proof = P; }

  struct Statistics {
    uint64_t Solves = 0;
    uint64_t Rounds = 0;
    uint64_t Exported = 0; ///< clauses published at exchange barriers
    uint64_t Imported = 0; ///< import acceptances across all lanes
    uint64_t Dropped = 0;  ///< publishes lost to the bounded buffer
    std::array<uint64_t, 8> WinsByLane{};
  };
  const Statistics &stats() const { return Stats; }

private:
  struct Lane;

  Options Opts;
  std::vector<std::unique_ptr<Lane>> LaneStates;
  unsigned Winner = 0;
  Solver::SolveProfile WinnerProfile;
  Solver::Statistics WinnerDelta;
  Statistics Stats;
  ProofWriter *Proof = nullptr;
  const obs::Context &Ctx;
};

} // namespace sat
} // namespace reticle

#endif // RETICLE_SAT_PORTFOLIO_H
