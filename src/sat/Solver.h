//===- sat/Solver.h - CDCL SAT solver ---------------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch CDCL SAT solver. The paper's instruction-placement stage
/// (Section 5.3) formulates layout as constraints and solves them with Z3;
/// this solver plays Z3's role here. It implements the standard
/// conflict-driven clause-learning loop: two-watched-literal propagation,
/// first-UIP conflict analysis with recursive clause minimization, VSIDS
/// branching with phase saving, Luby restarts, and activity-based learned-
/// clause reduction.
///
/// Beyond plain solve(), the solver supports MiniSat-style *assumption*
/// solving: solveWith() treats a list of literals as successive forced
/// decisions, and when the formula is unsatisfiable under them, final-
/// conflict analysis produces an *UNSAT core* — the subset of assumptions
/// that actually participated in the refutation. minimizeCore() shrinks
/// such a core further by deletion probing under a conflict budget. The
/// placement stage uses this to explain infeasible layouts in terms of
/// named constraints.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_SAT_SOLVER_H
#define RETICLE_SAT_SOLVER_H

#include "obs/Context.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace reticle {
namespace sat {

/// A 0-based propositional variable.
using Var = uint32_t;

/// A literal: a variable or its negation, encoded as 2*var+sign.
class Lit {
public:
  Lit() = default;
  Lit(Var V, bool Negated = false) : Code((V << 1) | unsigned(Negated)) {}

  Var var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }

  /// Dense index usable as an array key.
  uint32_t index() const { return Code; }

  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  bool operator==(const Lit &Other) const = default;

private:
  uint32_t Code = 0;
};

/// Tri-state assignment value.
enum class LBool : uint8_t { False, True, Undef };

/// Solver outcome. Unknown is only produced when a conflict budget is
/// exhausted.
enum class Outcome : uint8_t { Sat, Unsat, Unknown };

/// A DRAT-style proof sink. The solver logs every learnt clause as an
/// addition, every reduceDb victim as a deletion ("d" line), the failed-
/// assumption core of an assumption-Unsat solve as its implied clause
/// (the disjunction of the negated core literals, which is RUP w.r.t. the
/// formula plus the additions logged before it), and a root refutation as
/// the empty clause — all in DIMACS literal notation, plus "c" comment
/// lines callers may interleave to delimit solves. The writer is plain
/// state with no telemetry dependency.
class ProofWriter {
public:
  void add(std::span<const Lit> Lits) {
    line("", Lits);
    ++Added;
  }
  void del(std::span<const Lit> Lits) {
    line("d ", Lits);
    ++Deleted;
  }
  /// The empty clause: the formula is refuted outright.
  void addEmpty() {
    Text += "0\n";
    ++Added;
  }
  void comment(const std::string &Note) {
    Text += "c ";
    Text += Note;
    Text += '\n';
  }
  /// Moves the accumulated text out, leaving the writer empty.
  std::string take() {
    std::string Out = std::move(Text);
    Text.clear();
    return Out;
  }
  const std::string &str() const { return Text; }
  uint64_t added() const { return Added; }
  uint64_t deleted() const { return Deleted; }

private:
  void line(const char *Prefix, std::span<const Lit> Lits) {
    Text += Prefix;
    for (Lit L : Lits) {
      long D = static_cast<long>(L.var()) + 1;
      Text += std::to_string(L.negated() ? -D : D);
      Text += ' ';
    }
    Text += "0\n";
  }

  std::string Text;
  uint64_t Added = 0;
  uint64_t Deleted = 0;
};

/// A CDCL SAT solver over clauses added incrementally before solve().
/// Counters, spans and remarks record into the obs::Context the solver is
/// constructed with, which must outlive the solver.
class Solver {
public:
  explicit Solver(const obs::Context &Ctx);

  /// Creates a fresh variable and returns it.
  Var newVar();
  uint32_t numVars() const { return VarCount; }
  size_t numClauses() const { return Clauses.size(); }

  /// Makes room for \p Vars more variables and \p Clauses more clauses
  /// holding \p Literals literals in all: adding that much to a fresh
  /// solver grows no container. A capacity hint only: any count, too
  /// small or too large, leaves every result and the whole search
  /// unchanged.
  void reserve(size_t Vars, size_t Clauses, size_t Literals);

  /// True while the formula is not yet refuted at the root level.
  bool ok() const { return OkFlag; }

  /// Adds a clause. Returns false when the formula is already
  /// unsatisfiable at the root level (e.g. an empty clause after
  /// simplification); once false has been returned, solve() reports Unsat.
  bool addClause(std::vector<Lit> Lits);

  /// Convenience forms. addBinary applies addClause's simplification
  /// without building a vector.
  bool addUnit(Lit A) { return addLits(&A, 1); }
  bool addBinary(Lit A, Lit B);

  /// Attaches a DRAT-style proof sink (null detaches). The solver does
  /// not own the writer.
  void setProof(ProofWriter *P) { Proof = P; }

  /// Runs the CDCL loop. With a nonzero \p ConflictBudget the search gives
  /// up after that many conflicts and reports Unknown (used by callers
  /// that can fall back, e.g. placement shrinking). Each call is traced as
  /// one "sat.solve" span and accumulated into the sat.* counters.
  Outcome solve(uint64_t ConflictBudget = 0);

  /// Like solve(), but under \p Assumptions: each literal is enqueued as a
  /// forced decision before free search begins. On Unsat, unsatCore()
  /// holds the subset of assumptions that took part in the refutation
  /// (empty when the formula is unsatisfiable without any assumptions).
  Outcome solveWith(const std::vector<Lit> &Assumptions,
                    uint64_t ConflictBudget = 0);

  /// The failed-assumption core from the most recent Unsat solveWith().
  /// Negating any literal of this set cannot restore satisfiability unless
  /// the core is not minimal; minimizeCore() tightens it.
  const std::vector<Lit> &unsatCore() const { return Core; }

  /// Deletion-based core minimization: repeatedly re-solves with one core
  /// literal dropped, keeping the drop whenever the remainder is still
  /// unsatisfiable within \p ProbeConflictBudget conflicts. Literals whose
  /// probe exhausts the budget are conservatively kept, so the result is
  /// always a valid (if not necessarily minimum) core.
  std::vector<Lit> minimizeCore(std::vector<Lit> Core,
                                uint64_t ProbeConflictBudget = 2000);

  /// Model access after a Sat outcome.
  bool value(Var V) const {
    assert(Model.size() == VarCount && "no model available");
    return Model[V];
  }

  /// Search statistics, for tests and benchmark reporting. Counters
  /// accumulate across solves; the histograms profile learned-clause
  /// quality (LBD = number of distinct decision levels in a learnt
  /// clause — low is good) and size.
  struct Statistics {
    uint64_t Decisions = 0;
    uint64_t Propagations = 0;
    uint64_t Conflicts = 0;
    uint64_t Restarts = 0;
    uint64_t Learned = 0;
    uint64_t Solves = 0;   ///< solve()/solveWith() calls
    uint64_t Unknowns = 0; ///< solves that exhausted their conflict budget
    double SolveMs = 0.0;  ///< wall-clock summed over all solves
    static constexpr size_t HistogramBuckets = 8;
    /// Bucket I counts learnt clauses with LBD == I+1; the last bucket
    /// collects LBD >= 8.
    std::array<uint64_t, HistogramBuckets> LbdHistogram{};
    /// Learnt-clause sizes, bucketed 1, 2, 3, 4, 5-8, 9-16, 17-32, >=33.
    std::array<uint64_t, HistogramBuckets> LearnedSizeHistogram{};

    /// Member-wise After - Before. The accounting primitive for callers
    /// that keep one solver alive across many solves: snapshot stats()
    /// before a probe and delta after it, instead of re-adding the
    /// cumulative totals (which double-counts under reuse).
    static Statistics delta(const Statistics &After,
                            const Statistics &Before) {
      Statistics D;
      D.Decisions = After.Decisions - Before.Decisions;
      D.Propagations = After.Propagations - Before.Propagations;
      D.Conflicts = After.Conflicts - Before.Conflicts;
      D.Restarts = After.Restarts - Before.Restarts;
      D.Learned = After.Learned - Before.Learned;
      D.Solves = After.Solves - Before.Solves;
      D.Unknowns = After.Unknowns - Before.Unknowns;
      D.SolveMs = After.SolveMs - Before.SolveMs;
      for (size_t I = 0; I < HistogramBuckets; ++I) {
        D.LbdHistogram[I] = After.LbdHistogram[I] - Before.LbdHistogram[I];
        D.LearnedSizeHistogram[I] =
            After.LearnedSizeHistogram[I] - Before.LearnedSizeHistogram[I];
      }
      return D;
    }
  };
  const Statistics &stats() const { return Stats; }

private:
  /// A clause is a slice of the shared literal arena,
  /// Arena[Offset, Offset + Size). Propagation reorders a clause's
  /// literals in place; reduceDb compacts the arena.
  struct Clause {
    size_t Offset = 0;
    double Activity = 0.0;
    uint32_t Size = 0;
    bool Learned = false;
  };
  using ClauseRef = uint32_t;
  static constexpr ClauseRef NoReason = UINT32_MAX;

  struct Watcher {
    ClauseRef Ref;
    Lit Blocker;
  };
  /// One literal's watch list: WatchPool[Offset, Offset + Size), in a
  /// block of Capacity watchers.
  struct WatchList {
    uint32_t Offset = 0;
    uint32_t Size = 0;
    uint32_t Capacity = 0;
  };

  Lit *lits(const Clause &C) { return Arena.data() + C.Offset; }
  /// Appends \p W to \p L's watch list. A full list moves to the end of
  /// the pool with twice the capacity, which may reallocate the pool.
  void watch(Lit L, Watcher W);

  /// The one add path behind addClause/addBinary/addUnit: sorts and
  /// filters \p Lits in place, then adds what is left.
  bool addLits(Lit *Lits, size_t N);
  /// Sorts \p Lits by index and filters it in place: drops duplicates and
  /// root-false literals, leaving the kept count in \p N. Returns false
  /// when the clause is a tautology or already satisfied at the root.
  bool simplify(Lit *Lits, size_t &N) const;
  ClauseRef storeClause(const Lit *Lits, size_t N, bool Learned);

  Outcome runSolve(const std::vector<Lit> *Assumptions,
                   uint64_t ConflictBudget);
  Outcome solveImpl(const std::vector<Lit> *Assumptions,
                    uint64_t ConflictBudget);
  void analyzeFinal(Lit FailedAssumption);
  void recordLearnt(const std::vector<Lit> &Learnt);

  LBool litValue(Lit L) const {
    LBool V = Assign[L.var()];
    if (V == LBool::Undef)
      return LBool::Undef;
    bool IsTrue = (V == LBool::True) != L.negated();
    return IsTrue ? LBool::True : LBool::False;
  }

  void enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  void analyze(ClauseRef Conflict, std::vector<Lit> &Learnt,
               uint32_t &BackLevel);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  void backtrack(uint32_t Level);
  void bumpVar(Var V);
  void bumpClause(Clause &C);
  void decayActivities();
  Lit pickBranchLit();
  void attachClause(ClauseRef Ref);
  void reduceDb();
  static uint32_t luby(uint32_t I);

  uint32_t VarCount = 0;
  std::vector<Clause> Clauses;
  std::vector<Lit> Arena;          // every clause's literals
  std::vector<WatchList> Watches;  // indexed by Lit::index()
  std::vector<Watcher> WatchPool;  // live and abandoned watch-list blocks

  // Assignment trail.
  std::vector<LBool> Assign;
  std::vector<uint32_t> Level;
  std::vector<ClauseRef> Reason;
  std::vector<Lit> Trail;
  std::vector<uint32_t> TrailLimits;
  size_t PropagateHead = 0;

  // Branching. A decision takes the unassigned variable that is least
  // under heapLess. Bumped variables sit in a lazy binary heap; variables
  // with activity 0 wait outside it, in index order, behind QueueHead
  // (every waiting variable has an index >= QueueHead). Since heapLess
  // is a strict total order, the decision sequence does not depend on
  // which structure holds a variable.
  std::vector<double> VarActivity;
  std::vector<bool> SavedPhase;
  double VarInc = 1.0;
  double ClauseInc = 1.0;
  std::vector<Var> OrderHeap;   // lazy binary heap ordered by heapLess
  std::vector<int32_t> HeapPos; // heap index, or Popped / Waiting
  static constexpr int32_t Popped = -1;  // in neither structure
  static constexpr int32_t Waiting = -2; // activity 0, behind QueueHead
  Var QueueHead = 0;
  void heapInsert(Var V);
  void heapDecrease(Var V);
  Var heapPop();
  bool heapEmpty() const { return OrderHeap.empty(); }
  bool heapLess(Var A, Var B) const {
    // Lower-index tiebreak: with untouched activities, decisions then
    // follow variable creation order, which gives one-hot encodings
    // first-fit-shaped models.
    if (VarActivity[A] != VarActivity[B])
      return VarActivity[A] > VarActivity[B];
    return A < B;
  }
  void heapSiftUp(size_t I);
  void heapSiftDown(size_t I);

  // Conflict analysis scratch.
  std::vector<uint8_t> Seen;
  std::vector<Lit> AnalyzeStack;
  std::vector<Lit> AnalyzeToClear;
  std::vector<uint32_t> LbdScratch;

  bool OkFlag = true;
  std::vector<bool> Model;
  std::vector<Lit> Core;
  Statistics Stats;
  ProofWriter *Proof = nullptr;
  const obs::Context &Ctx;
};

} // namespace sat
} // namespace reticle

#endif // RETICLE_SAT_SOLVER_H
