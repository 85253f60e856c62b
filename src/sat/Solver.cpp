//===- sat/Solver.cpp - CDCL SAT solver ----------------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "obs/Context.h"

#include <algorithm>
#include <chrono>

using namespace reticle;
using namespace reticle::sat;

namespace {
/// VSIDS decay: each conflict divides the activity increment by this.
constexpr double VarDecay = 0.95;
/// Luby restart unit, in conflicts.
constexpr uint64_t RestartBase = 64;
} // namespace

Solver::Solver(const obs::Context &Ctx) : Ctx(Ctx) {}

Var Solver::newVar() {
  Var V = VarCount++;
  Assign.push_back(LBool::Undef);
  Level.push_back(0);
  Reason.push_back(NoReason);
  VarActivity.push_back(0.0);
  // Initial phase true: for one-hot encodings (e.g. placement slots) the
  // first decision then *selects* the earliest candidate instead of
  // excluding candidates one by one, which yields compact first-fit-like
  // models.
  SavedPhase.push_back(true);
  Seen.push_back(0);
  // Activity 0: the variable waits in index order, outside the heap,
  // until its first bump. QueueHead <= V already holds.
  HeapPos.push_back(Waiting);
  Watches.emplace_back();
  Watches.emplace_back();
  return V;
}

void Solver::reserve(size_t Vars, size_t ClauseCount, size_t Literals) {
  size_t NewVars = VarCount + Vars;
  Assign.reserve(NewVars);
  Level.reserve(NewVars);
  Reason.reserve(NewVars);
  VarActivity.reserve(NewVars);
  SavedPhase.reserve(NewVars);
  Seen.reserve(NewVars);
  HeapPos.reserve(NewVars);
  Trail.reserve(NewVars);
  Watches.reserve(2 * NewVars);
  Clauses.reserve(Clauses.size() + ClauseCount);
  Arena.reserve(Arena.size() + Literals);
  // Each clause adds one watcher to each of two lists. A list that grows
  // from empty to n watchers has taken blocks of 4, 8, ... up to its
  // capacity: at most 4n slots in all. (Watchers that a root-level unit
  // moves can take more; the pool then grows as usual.)
  WatchPool.reserve(WatchPool.size() + 8 * ClauseCount);
}

bool Solver::addClause(std::vector<Lit> Lits) {
  return addLits(Lits.data(), Lits.size());
}

bool Solver::addBinary(Lit A, Lit B) {
  Lit Lits[2] = {A, B};
  return addLits(Lits, 2);
}

bool Solver::addLits(Lit *Lits, size_t N) {
  if (!OkFlag)
    return false;
  assert(TrailLimits.empty() && "clauses must be added at the root level");
  if (!simplify(Lits, N))
    return true;
  // An empty clause refutes the formula, a unit is propagated at the root,
  // anything longer is stored and watched.
  if (N == 0) {
    OkFlag = false;
    if (Proof)
      Proof->addEmpty();
    return false;
  }
  if (N == 1) {
    enqueue(Lits[0], NoReason);
    if (propagate() != NoReason) {
      OkFlag = false;
      if (Proof)
        Proof->addEmpty();
      return false;
    }
    return true;
  }
  attachClause(storeClause(Lits, N, /*Learned=*/false));
  return true;
}

bool Solver::simplify(Lit *Lits, size_t &N) const {
  // Sort, drop duplicates, detect tautologies, drop root-false literals,
  // and detect root-satisfied clauses. Kept literals are compacted to the
  // front; the write index never passes the read index, so Lits[I - 1]
  // and Lits[I + 1] still hold input literals when they are read.
  std::sort(Lits, Lits + N,
            [](Lit A, Lit B) { return A.index() < B.index(); });
  size_t Keep = 0;
  for (size_t I = 0; I < N; ++I) {
    Lit L = Lits[I];
    assert(L.var() < VarCount && "literal over unknown variable");
    if (I + 1 < N && Lits[I + 1] == ~L)
      return false; // tautology: always satisfied
    if (I > 0 && L == Lits[I - 1])
      continue; // duplicate
    LBool V = litValue(L);
    if (V == LBool::True)
      return false; // satisfied at root
    if (V == LBool::False)
      continue; // cannot help
    Lits[Keep++] = L;
  }
  N = Keep;
  return true;
}

Solver::ClauseRef Solver::storeClause(const Lit *Lits, size_t N,
                                      bool Learned) {
  Clause C;
  C.Offset = Arena.size();
  C.Size = static_cast<uint32_t>(N);
  C.Learned = Learned;
  C.Activity = Learned ? ClauseInc : 0.0;
  Arena.insert(Arena.end(), Lits, Lits + N);
  Clauses.push_back(C);
  return static_cast<ClauseRef>(Clauses.size() - 1);
}

void Solver::attachClause(ClauseRef Ref) {
  const Clause &C = Clauses[Ref];
  assert(C.Size >= 2 && "attaching a short clause");
  const Lit *Lits = lits(C);
  watch(~Lits[0], {Ref, Lits[1]});
  watch(~Lits[1], {Ref, Lits[0]});
}

void Solver::watch(Lit L, Watcher W) {
  WatchList &WL = Watches[L.index()];
  if (WL.Size == WL.Capacity) {
    // The old block stays behind, unused. A list's abandoned blocks add up
    // to less than its live one, so the pool stays within twice the live
    // capacity of all lists.
    uint32_t Capacity = WL.Capacity ? 2 * WL.Capacity : 4;
    size_t Offset = WatchPool.size();
    assert(Offset + Capacity <= UINT32_MAX && "watcher pool overflow");
    WatchPool.resize(Offset + Capacity);
    std::copy_n(WatchPool.begin() + WL.Offset, WL.Size,
                WatchPool.begin() + Offset);
    WL.Offset = static_cast<uint32_t>(Offset);
    WL.Capacity = Capacity;
  }
  WatchPool[WL.Offset + WL.Size++] = W;
}

void Solver::enqueue(Lit L, ClauseRef From) {
  assert(litValue(L) == LBool::Undef && "enqueueing an assigned literal");
  Assign[L.var()] = L.negated() ? LBool::False : LBool::True;
  Level[L.var()] = static_cast<uint32_t>(TrailLimits.size());
  Reason[L.var()] = From;
  Trail.push_back(L);
}

Solver::ClauseRef Solver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    Lit NotP = ~P;
    ++Stats.Propagations;
    // A moved watcher goes to a literal that is not false, so P's own list
    // receives no push while it is walked and keeps its Offset. A push onto
    // another list may reallocate the pool, though: Ws is re-derived after
    // every one.
    WatchList &WL = Watches[P.index()];
    Watcher *Ws = WatchPool.data() + WL.Offset;
    const uint32_t Size = WL.Size;
    uint32_t Keep = 0;
    for (uint32_t I = 0; I < Size; ++I) {
      Watcher W = Ws[I];
      // Cheap skip when the blocker is already true.
      if (litValue(W.Blocker) == LBool::True) {
        Ws[Keep++] = W;
        continue;
      }
      // Propagation adds no clauses, so the arena cannot move under Lits.
      const Clause &C = Clauses[W.Ref];
      Lit *Lits = lits(C);
      // Normalize so that the false watched literal is Lits[1].
      if (Lits[0] == NotP)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == NotP && "watch invariant violated");
      // First literal true: keep watching.
      if (litValue(Lits[0]) == LBool::True) {
        Ws[Keep++] = {W.Ref, Lits[0]};
        continue;
      }
      // Find a new literal to watch.
      bool Moved = false;
      for (uint32_t K = 2; K < C.Size; ++K) {
        if (litValue(Lits[K]) != LBool::False) {
          std::swap(Lits[1], Lits[K]);
          watch(~Lits[1], {W.Ref, Lits[0]});
          Ws = WatchPool.data() + WL.Offset;
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue;
      // Unit or conflicting.
      Ws[Keep++] = {W.Ref, Lits[0]};
      if (litValue(Lits[0]) == LBool::False) {
        // Conflict: restore untraversed watchers and report.
        for (uint32_t K = I + 1; K < Size; ++K)
          Ws[Keep++] = Ws[K];
        WL.Size = Keep;
        PropagateHead = Trail.size();
        return W.Ref;
      }
      enqueue(Lits[0], W.Ref);
    }
    WL.Size = Keep;
  }
  return NoReason;
}

void Solver::bumpVar(Var V) {
  VarActivity[V] += VarInc;
  if (VarActivity[V] > 1e100) {
    for (double &A : VarActivity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] >= 0)
    heapDecrease(V);
  else if (HeapPos[V] == Waiting)
    heapInsert(V); // first bump: leaves the index-ordered queue
}

void Solver::bumpClause(Clause &C) {
  C.Activity += ClauseInc;
  if (C.Activity > 1e20) {
    for (Clause &Other : Clauses)
      if (Other.Learned)
        Other.Activity *= 1e-20;
    ClauseInc *= 1e-20;
  }
}

void Solver::decayActivities() {
  VarInc /= VarDecay;
  ClauseInc /= 0.999;
}

void Solver::analyze(ClauseRef Conflict, std::vector<Lit> &Learnt,
                     uint32_t &BackLevel) {
  Learnt.clear();
  Learnt.push_back(Lit()); // slot for the asserting literal
  uint32_t CurrentLevel = static_cast<uint32_t>(TrailLimits.size());
  uint32_t Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIndex = Trail.size();
  ClauseRef ReasonRef = Conflict;

  // Walk the implication graph backwards to the first UIP.
  while (true) {
    assert(ReasonRef != NoReason && "reached a decision without a reason");
    Clause &C = Clauses[ReasonRef];
    if (C.Learned)
      bumpClause(C);
    const Lit *Lits = lits(C);
    for (size_t I = HaveP ? 1 : 0; I < C.Size; ++I) {
      Lit Q = Lits[I];
      if (HaveP && Q == P)
        continue;
      Var V = Q.var();
      if (Seen[V] || Level[V] == 0)
        continue;
      Seen[V] = 1;
      AnalyzeToClear.push_back(Q);
      bumpVar(V);
      if (Level[V] >= CurrentLevel)
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Select the next literal to expand.
    while (!Seen[Trail[TrailIndex - 1].var()])
      --TrailIndex;
    --TrailIndex;
    P = Trail[TrailIndex];
    HaveP = true;
    Seen[P.var()] = 0;
    ReasonRef = Reason[P.var()];
    if (--Counter == 0)
      break;
  }
  Learnt[0] = ~P;

  // Conflict-clause minimization: drop literals implied by the rest.
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I < Learnt.size(); ++I)
    AbstractLevels |= uint32_t(1) << (Level[Learnt[I].var()] & 31);
  size_t Keep = 1;
  for (size_t I = 1; I < Learnt.size(); ++I)
    if (Reason[Learnt[I].var()] == NoReason ||
        !litRedundant(Learnt[I], AbstractLevels))
      Learnt[Keep++] = Learnt[I];
  Learnt.resize(Keep);

  // Compute the backtrack level (second-highest level in the clause).
  BackLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxIndex = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (Level[Learnt[I].var()] > Level[Learnt[MaxIndex].var()])
        MaxIndex = I;
    std::swap(Learnt[1], Learnt[MaxIndex]);
    BackLevel = Level[Learnt[1].var()];
  }
  for (Lit L : AnalyzeToClear)
    Seen[L.var()] = 0;
  AnalyzeToClear.clear();
}

bool Solver::litRedundant(Lit L, uint32_t AbstractLevels) {
  AnalyzeStack.clear();
  AnalyzeStack.push_back(L);
  size_t ClearStart = AnalyzeToClear.size();
  while (!AnalyzeStack.empty()) {
    Lit Cur = AnalyzeStack.back();
    AnalyzeStack.pop_back();
    assert(Reason[Cur.var()] != NoReason && "decision on analyze stack");
    const Clause &C = Clauses[Reason[Cur.var()]];
    const Lit *Lits = lits(C);
    for (size_t I = 1; I < C.Size; ++I) {
      Lit Q = Lits[I];
      Var V = Q.var();
      if (Seen[V] || Level[V] == 0)
        continue;
      bool LevelMatches = (uint32_t(1) << (Level[V] & 31)) & AbstractLevels;
      if (Reason[V] == NoReason || !LevelMatches) {
        // Cannot resolve this literal away: undo marks made here.
        for (size_t K = ClearStart; K < AnalyzeToClear.size(); ++K)
          Seen[AnalyzeToClear[K].var()] = 0;
        AnalyzeToClear.resize(ClearStart);
        return false;
      }
      Seen[V] = 1;
      AnalyzeToClear.push_back(Q);
      AnalyzeStack.push_back(Q);
    }
  }
  return true;
}

void Solver::backtrack(uint32_t TargetLevel) {
  if (TrailLimits.size() <= TargetLevel)
    return;
  size_t Bound = TrailLimits[TargetLevel];
  // Unassigned variables return to the decision order: activity 0 to the
  // index-ordered queue, the rest to the heap.
  for (size_t I = Trail.size(); I > Bound; --I) {
    Var V = Trail[I - 1].var();
    SavedPhase[V] = Assign[V] == LBool::True;
    Assign[V] = LBool::Undef;
    Reason[V] = NoReason;
    if (HeapPos[V] != Popped)
      continue;
    if (VarActivity[V] == 0.0) {
      HeapPos[V] = Waiting;
      QueueHead = std::min(QueueHead, V);
    } else {
      heapInsert(V);
    }
  }
  Trail.resize(Bound);
  TrailLimits.resize(TargetLevel);
  PropagateHead = Trail.size();
}

Lit Solver::pickBranchLit() {
  // Assigned variables leave either structure lazily, when they reach its
  // front; backtrack returns them once they are unassigned again.
  while (!heapEmpty() && Assign[OrderHeap[0]] != LBool::Undef)
    heapPop();
  while (QueueHead < VarCount && (HeapPos[QueueHead] != Waiting ||
                                  Assign[QueueHead] != LBool::Undef)) {
    if (HeapPos[QueueHead] == Waiting)
      HeapPos[QueueHead] = Popped;
    ++QueueHead;
  }
  bool QueueLive = QueueHead < VarCount;
  if (heapEmpty() && !QueueLive)
    return Lit(UINT32_MAX >> 1, false); // sentinel: all assigned
  Var V;
  if (!heapEmpty() && (!QueueLive || heapLess(OrderHeap[0], QueueHead))) {
    V = heapPop();
  } else {
    V = QueueHead++;
    HeapPos[V] = Popped;
  }
  return Lit(V, !SavedPhase[V]);
}

void Solver::reduceDb() {
  // Keep roughly the most active half of the learned clauses. Clauses that
  // are reasons for current assignments are locked. Since ClauseRefs are
  // indices, removal compacts the clause list and the literal arena in
  // order, remaps reasons and rebuilds all watches.
  std::vector<ClauseRef> Learned;
  for (ClauseRef I = 0; I < Clauses.size(); ++I)
    if (Clauses[I].Learned)
      Learned.push_back(I);
  if (Learned.size() < 64)
    return;
  std::sort(Learned.begin(), Learned.end(), [&](ClauseRef A, ClauseRef B) {
    return Clauses[A].Activity > Clauses[B].Activity;
  });
  std::vector<bool> Drop(Clauses.size(), false);
  std::vector<bool> Locked(Clauses.size(), false);
  for (Var V = 0; V < VarCount; ++V)
    if (Assign[V] != LBool::Undef && Reason[V] != NoReason)
      Locked[Reason[V]] = true;
  for (size_t I = Learned.size() / 2; I < Learned.size(); ++I)
    if (!Locked[Learned[I]] && Clauses[Learned[I]].Size > 2)
      Drop[Learned[I]] = true;

  // Offsets grow with the clause index, so every kept clause moves down
  // (or stays) and a dropped clause's literals are still intact when its
  // deletion is logged.
  std::vector<ClauseRef> Remap(Clauses.size(), NoReason);
  ClauseRef Kept = 0;
  size_t Tail = 0;
  for (ClauseRef I = 0; I < Clauses.size(); ++I) {
    Clause C = Clauses[I];
    if (Drop[I]) {
      if (Proof)
        Proof->del({lits(C), C.Size});
      continue;
    }
    if (C.Offset != Tail) {
      std::copy(Arena.begin() + C.Offset, Arena.begin() + C.Offset + C.Size,
                Arena.begin() + Tail);
      C.Offset = Tail;
    }
    Tail += C.Size;
    Remap[I] = Kept;
    Clauses[Kept++] = C;
  }
  Clauses.resize(Kept);
  Arena.resize(Tail);
  for (ClauseRef &R : Reason)
    if (R != NoReason)
      R = Remap[R];
  for (WatchList &WL : Watches)
    WL.Size = 0;
  for (ClauseRef I = 0; I < Clauses.size(); ++I)
    attachClause(I);
}

uint32_t Solver::luby(uint32_t I) {
  // The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...,
  // computed with MiniSat's iterative scheme.
  uint32_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) >> 1;
    --Seq;
    I %= Size;
  }
  return uint32_t(1) << Seq;
}

Outcome Solver::solve(uint64_t ConflictBudget) {
  return runSolve(nullptr, ConflictBudget);
}

Outcome Solver::solveWith(const std::vector<Lit> &Assumptions,
                          uint64_t ConflictBudget) {
  return runSolve(&Assumptions, ConflictBudget);
}

Outcome Solver::runSolve(const std::vector<Lit> *Assumptions,
                         uint64_t ConflictBudget) {
  obs::Counter &Solves = Ctx.counter("sat.solves");
  obs::Counter &Decisions = Ctx.counter("sat.decisions");
  obs::Counter &Propagations = Ctx.counter("sat.propagations");
  obs::Counter &Conflicts = Ctx.counter("sat.conflicts");
  obs::Counter &Restarts = Ctx.counter("sat.restarts");
  obs::Counter &Learned = Ctx.counter("sat.learned");

  obs::Span Sp(Ctx, "sat.solve");
  Sp.arg("vars", static_cast<uint64_t>(VarCount));
  Sp.arg("clauses", static_cast<uint64_t>(Clauses.size()));
  if (Assumptions)
    Sp.arg("assumptions", static_cast<uint64_t>(Assumptions->size()));
  Statistics Before = Stats;
  auto T0 = std::chrono::steady_clock::now();
  Outcome O = solveImpl(Assumptions, ConflictBudget);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  ++Stats.Solves;
  if (O == Outcome::Unknown)
    ++Stats.Unknowns;
  Stats.SolveMs += Ms;
  // This search's work, for every outcome — a budget-exhausted (Unknown)
  // probe still reports the conflicts it burned.
  Statistics D = Statistics::delta(Stats, Before);
  ++Solves;
  Decisions += D.Decisions;
  Propagations += D.Propagations;
  Conflicts += D.Conflicts;
  Restarts += D.Restarts;
  Learned += D.Learned;
  Sp.arg("conflicts", D.Conflicts);
  Sp.arg("outcome", O == Outcome::Sat     ? "sat"
                    : O == Outcome::Unsat ? "unsat"
                                          : "unknown");
  if (O == Outcome::Unsat && Ctx.remarksEnabled()) {
    obs::Remark R(Ctx, "sat", "unsat");
    R.message("formula with " + std::to_string(VarCount) + " var(s), " +
              std::to_string(Clauses.size()) + " clause(s) is unsatisfiable")
        .arg("vars", static_cast<uint64_t>(VarCount))
        .arg("clauses", static_cast<uint64_t>(Clauses.size()))
        .arg("conflicts", D.Conflicts)
        .arg("decisions", D.Decisions)
        .arg("propagations", D.Propagations)
        .arg("restarts", D.Restarts);
    if (Assumptions)
      R.arg("core_size", static_cast<uint64_t>(Core.size()));
  }
  return O;
}

void Solver::recordLearnt(const std::vector<Lit> &Learnt) {
  // LBD: the number of distinct decision levels among the clause's
  // literals, measured before backtracking while levels are still live.
  LbdScratch.clear();
  for (Lit L : Learnt)
    LbdScratch.push_back(Level[L.var()]);
  std::sort(LbdScratch.begin(), LbdScratch.end());
  size_t Lbd = std::unique(LbdScratch.begin(), LbdScratch.end()) -
               LbdScratch.begin();
  size_t LbdBucket =
      std::min(Lbd, Statistics::HistogramBuckets) - (Lbd ? 1 : 0);
  ++Stats.LbdHistogram[LbdBucket];
  size_t N = Learnt.size();
  size_t SizeBucket;
  if (N <= 4)
    SizeBucket = N ? N - 1 : 0;
  else if (N <= 8)
    SizeBucket = 4;
  else if (N <= 16)
    SizeBucket = 5;
  else if (N <= 32)
    SizeBucket = 6;
  else
    SizeBucket = 7;
  ++Stats.LearnedSizeHistogram[SizeBucket];
}

void Solver::analyzeFinal(Lit FailedAssumption) {
  // MiniSat-style final-conflict analysis: the assumption literal
  // \p FailedAssumption was found false while being enqueued, so the trail
  // above the root implies its negation. Walk the implication graph back
  // through reasons; every decision reached is an earlier assumption and
  // joins the core.
  Core.clear();
  Core.push_back(FailedAssumption);
  if (TrailLimits.empty())
    return; // falsified at the root: the assumption conflicts alone
  Seen[FailedAssumption.var()] = 1;
  for (size_t I = Trail.size(); I > TrailLimits[0]; --I) {
    Var V = Trail[I - 1].var();
    if (!Seen[V])
      continue;
    if (Reason[V] == NoReason) {
      if (!(Trail[I - 1] == FailedAssumption))
        Core.push_back(Trail[I - 1]);
    } else {
      const Clause &C = Clauses[Reason[V]];
      for (Lit Q : std::span<const Lit>(lits(C), C.Size))
        if (Q.var() != V && Level[Q.var()] > 0)
          Seen[Q.var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[FailedAssumption.var()] = 0;
}

std::vector<Lit> Solver::minimizeCore(std::vector<Lit> CoreIn,
                                      uint64_t ProbeConflictBudget) {
  // Deletion probing: drop one literal at a time and re-solve; a drop
  // sticks when the remainder is still Unsat within the budget, in which
  // case the solver's fresh (possibly even smaller) core replaces it.
  // Unknown probes conservatively keep the literal.
  size_t I = 0;
  while (I < CoreIn.size()) {
    std::vector<Lit> Trial;
    Trial.reserve(CoreIn.size() - 1);
    for (size_t K = 0; K < CoreIn.size(); ++K)
      if (K != I)
        Trial.push_back(CoreIn[K]);
    if (solveWith(Trial, ProbeConflictBudget) == Outcome::Unsat) {
      CoreIn = Core;
      I = 0;
    } else {
      ++I;
    }
  }
  return CoreIn;
}

Outcome Solver::solveImpl(const std::vector<Lit> *Assumptions,
                          uint64_t ConflictBudget) {
  Core.clear();
  if (!OkFlag)
    return Outcome::Unsat;
  Model.clear();

  uint64_t ConflictLimit =
      ConflictBudget ? Stats.Conflicts + ConflictBudget : UINT64_MAX;
  uint64_t MaxLearned = Clauses.size() / 3 + 512;
  uint32_t RestartCount = 0;
  uint64_t RestartBudget = RestartBase * luby(RestartCount);
  uint64_t ConflictsHere = 0;
  std::vector<Lit> Learnt;

  while (true) {
    ClauseRef Conflict = propagate();
    if (Conflict != NoReason) {
      ++Stats.Conflicts;
      ++ConflictsHere;
      if (TrailLimits.empty()) {
        // A root-level conflict is final; poison the solver so a repeated
        // solve() cannot walk past the consumed propagation queue and
        // report a bogus model.
        OkFlag = false;
        if (Proof)
          Proof->addEmpty();
        return Outcome::Unsat;
      }
      if (Stats.Conflicts >= ConflictLimit) {
        backtrack(0);
        return Outcome::Unknown;
      }
      uint32_t BackLevel = 0;
      analyze(Conflict, Learnt, BackLevel);
      recordLearnt(Learnt);
      if (Proof)
        Proof->add(Learnt);
      backtrack(BackLevel);
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoReason);
      } else {
        ClauseRef Ref =
            storeClause(Learnt.data(), Learnt.size(), /*Learned=*/true);
        attachClause(Ref);
        enqueue(Learnt[0], Ref);
        ++Stats.Learned;
      }
      decayActivities();
      continue;
    }

    // No conflict: restart, reduce, or decide.
    if (ConflictsHere >= RestartBudget) {
      Ctx.instant("sat.restart");
      ++Stats.Restarts;
      ++RestartCount;
      ConflictsHere = 0;
      RestartBudget = RestartBase * luby(RestartCount);
      backtrack(0);
      continue;
    }
    if (Stats.Learned > MaxLearned) {
      MaxLearned = MaxLearned * 3 / 2;
      backtrack(0);
      reduceDb();
      continue;
    }
    // Assumptions first: each pending assumption becomes the next forced
    // decision. An already-true assumption opens an empty decision level
    // (keeping level indices aligned with assumption indices); an
    // already-false one means the formula is Unsat under the assumptions,
    // and final-conflict analysis extracts the responsible core.
    Lit Next;
    bool HaveDecision = false;
    while (Assumptions && TrailLimits.size() < Assumptions->size()) {
      Lit A = (*Assumptions)[TrailLimits.size()];
      LBool V = litValue(A);
      if (V == LBool::True) {
        TrailLimits.push_back(static_cast<uint32_t>(Trail.size()));
        continue;
      }
      if (V == LBool::False) {
        analyzeFinal(A);
        if (Proof) {
          // The core's implied clause: asserting the whole core unit-
          // propagates to this falsification, so its negation is RUP
          // against the formula plus the learnt clauses logged above.
          std::vector<Lit> CoreClause;
          CoreClause.reserve(Core.size());
          for (Lit C : Core)
            CoreClause.push_back(~C);
          Proof->add(CoreClause);
        }
        backtrack(0);
        return Outcome::Unsat;
      }
      Next = A;
      HaveDecision = true;
      break;
    }
    if (!HaveDecision) {
      Next = pickBranchLit();
      if (Next.var() == (UINT32_MAX >> 1)) {
        // Complete assignment: extract the model.
        Model.resize(VarCount);
        for (Var V = 0; V < VarCount; ++V)
          Model[V] = Assign[V] == LBool::True;
        backtrack(0);
        return Outcome::Sat;
      }
    }
    ++Stats.Decisions;
    TrailLimits.push_back(static_cast<uint32_t>(Trail.size()));
    enqueue(Next, NoReason);
  }
}

// Binary-heap helpers keyed on variable activity.

void Solver::heapInsert(Var V) {
  HeapPos[V] = static_cast<int32_t>(OrderHeap.size());
  OrderHeap.push_back(V);
  heapSiftUp(OrderHeap.size() - 1);
}

void Solver::heapDecrease(Var V) { heapSiftUp(static_cast<size_t>(HeapPos[V])); }

Var Solver::heapPop() {
  Var Top = OrderHeap[0];
  HeapPos[Top] = -1;
  OrderHeap[0] = OrderHeap.back();
  OrderHeap.pop_back();
  if (!OrderHeap.empty()) {
    HeapPos[OrderHeap[0]] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void Solver::heapSiftUp(size_t I) {
  Var V = OrderHeap[I];
  while (I > 0) {
    size_t Parent = (I - 1) / 2;
    if (!heapLess(V, OrderHeap[Parent]))
      break;
    OrderHeap[I] = OrderHeap[Parent];
    HeapPos[OrderHeap[I]] = static_cast<int32_t>(I);
    I = Parent;
  }
  OrderHeap[I] = V;
  HeapPos[V] = static_cast<int32_t>(I);
}

void Solver::heapSiftDown(size_t I) {
  Var V = OrderHeap[I];
  size_t N = OrderHeap.size();
  while (true) {
    size_t Left = 2 * I + 1;
    if (Left >= N)
      break;
    size_t Child = Left;
    if (Left + 1 < N && heapLess(OrderHeap[Left + 1], OrderHeap[Left]))
      Child = Left + 1;
    if (!heapLess(OrderHeap[Child], V))
      break;
    OrderHeap[I] = OrderHeap[Child];
    HeapPos[OrderHeap[I]] = static_cast<int32_t>(I);
    I = Child;
  }
  OrderHeap[I] = V;
  HeapPos[V] = static_cast<int32_t>(I);
}
