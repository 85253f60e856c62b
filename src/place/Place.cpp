//===- place/Place.cpp - Instruction placement ----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "place/Place.h"

#include "ir/DefUse.h"
#include "obs/Context.h"
#include "sat/Solver.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>

using namespace reticle;
using namespace reticle::place;
using rasm::AsmInstr;
using rasm::AsmProgram;
using rasm::Coord;

namespace {

/// One placeable instruction with normalized coordinate expressions.
struct Member {
  size_t BodyIndex = 0;
  Coord X;
  Coord Y;
};

/// A rigid group of instructions related by shared coordinate variables.
struct Cluster {
  ir::Resource Prim = ir::Resource::Lut;
  std::optional<std::string> XVar;
  std::optional<std::string> YVar;
  std::vector<Member> Members;
  /// True when every member coordinate is a literal; such clusters are
  /// pre-placed and only contribute occupancy.
  bool isFixed() const { return !XVar && !YVar; }
};

/// A concrete base assignment for a cluster's variables.
struct Candidate {
  int64_t XBase = 0;
  int64_t YBase = 0;
  std::vector<device::Slot> Slots; // one per member, in member order
};

/// The initial solve's cap on enumerated base positions per cluster; it
/// grows (up to full enumeration) while the capped encoding is
/// unsatisfiable.
constexpr size_t InitialCandidateCap = 128;

/// Conflicts a shrink probe or a lower-bound attempt may spend before it
/// gives up (a probe keeps its bound, the lower-bound box gives way to the
/// full device) rather than fight pigeonhole-hard instances.
constexpr uint64_t ProbeConflictBudget = 50000;

/// Search nodes one chain-packing check may visit before it admits the
/// bounds unrefuted.
constexpr size_t PackingNodeLimit = 100000;

/// Whether runs of Heights[0, Left) consecutive rows (\p Heights
/// ascending) pack into columns, the runs one column takes filling at most
/// its rows. \p Columns holds (free rows, columns with that many) pairs,
/// distinct in free rows. Depth-first, tallest run first; a run tries each
/// free-row count once, since columns with equal free rows lead to the
/// same subtree. Admits once \p Nodes passes PackingNodeLimit.
bool packs(const std::vector<unsigned> &Heights, size_t Left,
           std::vector<std::pair<unsigned, size_t>> &Columns, size_t &Nodes) {
  if (Left == 0)
    return true;
  unsigned Height = Heights[Left - 1];
  for (size_t I = 0; I < Columns.size(); ++I) {
    unsigned Rows = Columns[I].first;
    if (Rows < Height || Columns[I].second == 0)
      continue;
    if (++Nodes > PackingNodeLimit)
      return true;
    size_t J = 0;
    while (J < Columns.size() && Columns[J].first != Rows - Height)
      ++J;
    bool Added = J == Columns.size();
    if (Added)
      Columns.emplace_back(Rows - Height, 0);
    --Columns[I].second;
    ++Columns[J].second;
    bool Packed = packs(Heights, Left - 1, Columns, Nodes);
    ++Columns[I].second;
    --Columns[J].second;
    if (Added)
      Columns.pop_back();
    if (Packed)
      return true;
  }
  return false;
}

/// Per-kind area bounds used by the shrinking passes (exclusive).
struct Bounds {
  unsigned MaxColumn = 0; ///< columns with index <= MaxColumn usable
  unsigned MaxRow = 0;    ///< rows with index <= MaxRow usable
};

/// Resolves a member's coordinates for given variable bases.
bool memberSlot(const Member &M, int64_t XBase, int64_t YBase,
                device::Slot &Out) {
  int64_t X = M.X.isLit() ? M.X.offset() : XBase + M.X.offset();
  int64_t Y = M.Y.isLit() ? M.Y.offset() : YBase + M.Y.offset();
  if (X < 0 || Y < 0)
    return false;
  Out = device::Slot{static_cast<unsigned>(X), static_cast<unsigned>(Y)};
  return true;
}

/// The variables, clauses and clause literals an encoding adds to a
/// solver: the counts behind sat::Solver::reserve.
struct EncodingSize {
  size_t Vars = 0;
  size_t Clauses = 0;
  size_t Lits = 0;
  void clauses(size_t Count, size_t Width) {
    Clauses += Count;
    Lits += Count * Width;
  }
};

/// Sequential at-most-one encoding over \p Lits. When \p Selector is
/// given, every emitted clause is guarded by it (clause ∨ ¬selector), so
/// assuming the selector true enables the constraint and dropping the
/// assumption switches the whole group off — the mechanism behind
/// UNSAT-core extraction over named constraint groups. Each auxiliary
/// variable is created where it is first used, which numbers them as
/// creating them all up front would.
void addAtMostOne(sat::Solver &S, std::span<const sat::Lit> Lits,
                  std::optional<sat::Lit> Selector = std::nullopt) {
  auto Add = [&](sat::Lit A, sat::Lit B) {
    if (Selector)
      S.addClause({A, B, ~*Selector});
    else
      S.addBinary(A, B);
  };
  if (Lits.size() <= 1)
    return;
  if (Lits.size() == 2) {
    Add(~Lits[0], ~Lits[1]);
    return;
  }
  sat::Lit Prev(S.newVar());
  Add(~Lits[0], Prev);
  for (size_t I = 1; I + 1 < Lits.size(); ++I) {
    sat::Lit Next(S.newVar());
    Add(~Lits[I], Next);
    Add(~Prev, Next);
    Add(~Lits[I], ~Prev);
    Prev = Next;
  }
  Add(~Lits.back(), ~Prev);
}

/// What addAtMostOne adds over \p N literals without a selector: N - 1
/// auxiliary variables and 3N - 4 binary clauses when N >= 3, one binary
/// clause when N == 2, nothing otherwise.
void addAtMostOneSize(EncodingSize &Size, size_t N) {
  if (N == 2)
    Size.clauses(1, 2);
  if (N >= 3) {
    Size.Vars += N - 1;
    Size.clauses(3 * N - 4, 2);
  }
}

/// The candidate literals competing for each device slot, in one flat
/// table indexed x * Rows + y. Index order is device::Slot's (x, y)
/// order, which fixes the order of the slot at-most-one clauses and so of
/// their auxiliary variables. A slot's users keep cluster, then
/// candidate, then member order. The table is compressed: slot I's users
/// are Users[Start[I], Start[I + 1]). Construction counts each slot's
/// users; fill() names them once the candidate variables exist.
class SlotTable {
public:
  explicit SlotTable(const std::vector<std::vector<Candidate>> &Cands) {
    unsigned Cols = 0;
    for (const std::vector<Candidate> &Cs : Cands)
      for (const Candidate &Cand : Cs)
        for (const device::Slot &S : Cand.Slots) {
          Cols = std::max(Cols, S.X + 1);
          Rows = std::max(Rows, S.Y + 1);
        }
    Start.assign(size_t(Cols) * Rows + 1, 0);
    for (const std::vector<Candidate> &Cs : Cands)
      for (const Candidate &Cand : Cs)
        for (const device::Slot &S : Cand.Slots)
          ++Start[index(S) + 1];
    for (size_t I = 1; I < Start.size(); ++I)
      Start[I] += Start[I - 1];
  }

  void fill(const std::vector<std::vector<Candidate>> &Cands,
            const std::vector<std::vector<sat::Var>> &Vars) {
    Users.resize(Start.back());
    std::vector<size_t> Fill(Start.begin(), Start.end() - 1);
    for (size_t I = 0; I < Cands.size(); ++I)
      for (size_t K = 0; K < Cands[I].size(); ++K)
        for (const device::Slot &S : Cands[I][K].Slots)
          Users[Fill[index(S)]++] = sat::Lit(Vars[I][K]);
  }

  size_t numSlots() const { return Start.size() - 1; }
  size_t numUsers(size_t I) const { return Start[I + 1] - Start[I]; }
  device::Slot slot(size_t I) const {
    return {static_cast<unsigned>(I / Rows), static_cast<unsigned>(I % Rows)};
  }
  std::span<const sat::Lit> users(size_t I) const {
    return {Users.data() + Start[I], Start[I + 1] - Start[I]};
  }

private:
  size_t index(const device::Slot &S) const { return size_t(S.X) * Rows + S.Y; }

  unsigned Rows = 0;
  std::vector<size_t> Start;
  std::vector<sat::Lit> Users;
};

/// The choose-one and distinct constraint families over per-cluster
/// candidates: one variable per candidate, exactly one candidate per
/// cluster (an at-least-one clause plus an at-most-one), then at most one
/// user per slot. A multi-member cluster may cover one slot with two
/// members only through distinct candidates, so the slot at-most-one over
/// candidate literals is exact. First reserves the solver's room for the
/// whole encoding. Fills \p Vars; returns false when an at-least-one
/// clause refutes the formula.
bool encodeChoices(sat::Solver &S,
                   const std::vector<std::vector<Candidate>> &Cands,
                   std::vector<std::vector<sat::Var>> &Vars) {
  SlotTable Slots(Cands);
  EncodingSize Size;
  for (const std::vector<Candidate> &Cs : Cands) {
    Size.Vars += Cs.size();
    Size.clauses(1, Cs.size());
    addAtMostOneSize(Size, Cs.size());
  }
  for (size_t I = 0; I < Slots.numSlots(); ++I)
    addAtMostOneSize(Size, Slots.numUsers(I));
  S.reserve(Size.Vars, Size.Clauses, Size.Lits);

  Vars.assign(Cands.size(), {});
  std::vector<sat::Lit> Lits;
  for (size_t I = 0; I < Cands.size(); ++I) {
    Lits.clear();
    for (size_t K = 0; K < Cands[I].size(); ++K) {
      sat::Var V = S.newVar();
      Vars[I].push_back(V);
      Lits.push_back(sat::Lit(V));
    }
    if (!S.addClause(Lits))
      return false;
    addAtMostOne(S, Lits);
  }
  Slots.fill(Cands, Vars);
  for (size_t I = 0; I < Slots.numSlots(); ++I)
    addAtMostOne(S, Slots.users(I));
  return true;
}

class Placer {
public:
  Placer(const AsmProgram &Prog, const device::Device &Dev,
         const PlacementOptions &Options, PlacementStats *Stats,
         const obs::Context &Ctx)
      : Prog(Prog), Dev(Dev), Options(Options), Stats(Stats), Ctx(Ctx) {}

  Result<AsmProgram> run();

private:
  Status buildClusters();
  Result<std::vector<Candidate>> enumerate(const Cluster &C,
                                           const Bounds &B,
                                           size_t Cap) const;
  /// Per-attempt search effort, reported back to the caller so shrink
  /// probes can attribute their cost (and distinguish a proved UNSAT from
  /// an exhausted budget).
  struct SolveInfo {
    uint64_t Conflicts = 0;
    uint64_t Decisions = 0;
    bool BudgetExhausted = false;
    /// True when the attempt reached the SAT solver (false: settled by an
    /// arithmetic precheck or an empty candidate range).
    bool SatBacked = false;
    /// True when the candidate cap cut some cluster's enumeration short,
    /// so a larger cap could change the formula.
    bool Capped = false;
  };
  /// One SAT attempt on a fresh encoding under the given bounds, with at
  /// most \p Cap candidates per cluster and, when \p ConflictBudget is
  /// nonzero, at most that many conflicts: every first-solution attempt
  /// and every shrink probe. Adds the solve's statistics to
  /// PlacementStats and reports its effort in \p Info. On success fills
  /// \p Assignment with the chosen candidate per non-fixed cluster.
  /// With \p Explain set (and no budget, so an UNSAT is proved), an
  /// unsatisfiable attempt that no cap cut short (a precheck, an empty
  /// range, or a solve over every candidate) is additionally explained:
  /// the encoding is re-emitted with one selector literal per constraint
  /// group, the failed-assumption core is extracted and minimized, and
  /// each surviving group is reported as a named sat:core remark and a
  /// PlacementStats::Core entry.
  enum class Attempt { Sat, Unsat, Error };
  Attempt solveOnce(const Bounds &B, size_t Cap,
                    std::vector<Candidate> &Assignment, std::string &Err,
                    bool Explain, uint64_t ConflictBudget, SolveInfo &Info);
  /// Records one named core constraint (stats + sat:core remark).
  void noteCore(const std::string &Kind, const std::string &Instr,
                const std::string &Detail);
  /// Selector-tagged re-encoding and core extraction for a proved-UNSAT
  /// attempt; \p Cands holds the enumerated candidates per cluster.
  void explainUnsat(const std::vector<std::vector<Candidate>> &Cands);

  /// What the placeable clusters demand of one resource kind, whatever
  /// the bounds: member slots, and the height of each tall cluster
  /// (cascade chain), ascending.
  struct KindDemand {
    size_t Need = 0;
    std::vector<unsigned> TallHeights;
  };
  /// Fills Demand from the clusters.
  void tallyDemand();
  /// The first resource kind whose demand does not fit within some bounds:
  /// either its slots (Need > Capacity), or the Tall clusters at least
  /// Height rows tall, which need more runs of Height consecutive rows than
  /// the Segments that fit there, or (Height 0) its Tall clusters' runs,
  /// which pack into no assignment to its columns.
  struct Shortfall {
    ir::Resource Kind;
    size_t Need = 0;
    size_t Capacity = 0;
    size_t Tall = 0;
    unsigned Height = 0;
    size_t Segments = 0;
  };
  /// Arithmetic infeasibility precheck shared by every solve path, as a
  /// pure predicate: demand vs capacity within \p B, cascade-chain segment
  /// capacity per height class, then the packing of the chains into the
  /// columns. Returns the shortfall when \p B provably cannot fit.
  /// Monotone in each bound (a larger bound never removes capacity,
  /// segments or a packing) except where the packing search stops at its
  /// node limit and admits: then it may admit a bound below one it
  /// refutes, which keeps every refutation proved.
  std::optional<Shortfall> capacityShortfall(const Bounds &B) const;
  /// The precheck as a solve path runs it: returns true when \p B
  /// provably cannot fit, tagging \p Sp and, with \p Explain, naming the
  /// shortfall as a capacity core.
  bool capacityInfeasible(const Bounds &B, bool Explain, obs::Span &Sp);
  /// The smallest bound on \p Axis (0: columns, 1: rows) that the
  /// precheck admits with the other bound held at \p B's, found by
  /// bisection below \p B's own bound, which must pass.
  unsigned lowestAdmitted(Bounds B, int Axis) const;

  /// Accumulates one solve's effort, a Statistics delta (After - Before
  /// snapshots around the solve), into PlacementStats.
  void accumulate(const sat::Solver::Statistics &D, bool BudgetHit);

  const AsmProgram &Prog;
  const device::Device &Dev;
  PlacementOptions Options;
  PlacementStats *Stats;
  const obs::Context &Ctx;

  std::vector<Cluster> Clusters;      // non-fixed
  std::vector<Cluster> FixedClusters; // fully literal
  std::set<device::Slot> FixedSlots;
  std::map<ir::Resource, KindDemand> Demand; // set by tallyDemand()
};

Status Placer::buildClusters() {
  // Union-find over coordinate variables, interned to dense ids; wildcards
  // become fresh variables so every placeable instruction lands in some
  // cluster.
  ir::NameInterner Vars;
  std::vector<ir::ValueId> Parent;
  auto Ensure = [&](const std::string &Name) {
    ir::ValueId Id = Vars.intern(Name);
    if (Id == Parent.size())
      Parent.push_back(Id);
    return Id;
  };
  auto Find = [&](ir::ValueId Id) {
    while (Parent[Id] != Id)
      Id = Parent[Id] = Parent[Parent[Id]];
    return Id;
  };
  auto Unite = [&](ir::ValueId A, ir::ValueId B) {
    Parent[Find(A)] = Find(B);
  };

  unsigned Fresh = 0;
  struct NormInstr {
    size_t BodyIndex;
    ir::Resource Prim;
    Coord X, Y;
  };
  std::vector<NormInstr> Instrs;
  for (size_t I = 0; I < Prog.body().size(); ++I) {
    const AsmInstr &A = Prog.body()[I];
    if (A.isWire())
      continue;
    Coord X = A.loc().X;
    Coord Y = A.loc().Y;
    if (X.isWild())
      X = Coord::var("$x" + std::to_string(Fresh++));
    if (Y.isWild())
      Y = Coord::var("$y" + std::to_string(Fresh++));
    ir::ValueId XId = X.isVar() ? Ensure(X.name()) : ir::InvalidValueId;
    ir::ValueId YId = Y.isVar() ? Ensure(Y.name()) : ir::InvalidValueId;
    if (XId != ir::InvalidValueId && YId != ir::InvalidValueId)
      Unite(XId, YId);
    Instrs.push_back({I, A.loc().Prim, X, Y});
  }

  // Group by representative id; fully literal instructions form fixed
  // singleton clusters. Cluster indices follow first-seen scan order.
  std::vector<size_t> GroupOf(Parent.size(), SIZE_MAX);
  for (const NormInstr &N : Instrs) {
    if (!N.X.isVar() && !N.Y.isVar()) {
      Cluster C;
      C.Prim = N.Prim;
      C.Members.push_back({N.BodyIndex, N.X, N.Y});
      FixedClusters.push_back(std::move(C));
      continue;
    }
    ir::ValueId Rep =
        Find(Vars.lookup(N.X.isVar() ? N.X.name() : N.Y.name()));
    if (GroupOf[Rep] == SIZE_MAX) {
      GroupOf[Rep] = Clusters.size();
      Clusters.emplace_back();
    }
    Cluster &C = Clusters[GroupOf[Rep]];
    if (C.Members.empty())
      C.Prim = N.Prim;
    if (C.Prim != N.Prim)
      return Status::failure(
          "instructions sharing coordinate variables must use one "
          "primitive kind (cluster mixes lut and dsp)");
    // At most one distinct variable per axis within a cluster.
    if (N.X.isVar()) {
      if (!C.XVar)
        C.XVar = N.X.name();
      else if (*C.XVar != N.X.name())
        return Status::failure("cluster uses two distinct column variables "
                               "('" + *C.XVar + "' and '" + N.X.name() +
                               "'); this layout constraint is unsupported");
    }
    if (N.Y.isVar()) {
      if (!C.YVar)
        C.YVar = N.Y.name();
      else if (*C.YVar != N.Y.name())
        return Status::failure("cluster uses two distinct row variables "
                               "('" + *C.YVar + "' and '" + N.Y.name() +
                               "'); this layout constraint is unsupported");
    }
    C.Members.push_back({N.BodyIndex, N.X, N.Y});
  }

  // Fixed clusters occupy slots up front.
  for (const Cluster &C : FixedClusters) {
    const Member &M = C.Members[0];
    device::Slot S;
    if (!memberSlot(M, 0, 0, S) ||
        !Dev.isValidSlot(C.Prim, S.X, S.Y))
      return Status::failure(
          "pinned location " + Prog.body()[M.BodyIndex].loc().str() +
          " is not a valid " + ir::resourceName(C.Prim) + " slot on device '" +
          Dev.name() + "'");
    if (!FixedSlots.insert(S).second)
      return Status::failure("two instructions pinned to one slot");
  }
  return Status::success();
}

Result<std::vector<Candidate>>
Placer::enumerate(const Cluster &C, const Bounds &B, size_t Cap) const {
  std::vector<Candidate> Out;
  // Column (x) base values to try: all usable columns when XVar is free,
  // else the single value 0 (unused).
  unsigned NumCols = std::min<unsigned>(Dev.numColumns(), B.MaxColumn + 1);
  unsigned MaxRows = std::min<unsigned>(Dev.maxHeight(C.Prim), B.MaxRow + 1);
  std::vector<int64_t> XBases;
  if (C.XVar) {
    for (unsigned X = 0; X < NumCols; ++X)
      XBases.push_back(X);
  } else {
    XBases.push_back(0);
  }
  std::vector<int64_t> YBases;
  if (C.YVar) {
    for (unsigned Y = 0; Y < MaxRows; ++Y)
      YBases.push_back(Y);
  } else {
    YBases.push_back(0);
  }
  for (int64_t XB : XBases) {
    for (int64_t YB : YBases) {
      Candidate Cand;
      Cand.XBase = XB;
      Cand.YBase = YB;
      bool Ok = true;
      for (const Member &M : C.Members) {
        device::Slot S;
        if (!memberSlot(M, XB, YB, S) || S.X > B.MaxColumn ||
            S.Y > B.MaxRow || !Dev.isValidSlot(C.Prim, S.X, S.Y) ||
            FixedSlots.count(S)) {
          Ok = false;
          break;
        }
        Cand.Slots.push_back(S);
      }
      if (!Ok)
        continue;
      Out.push_back(std::move(Cand));
      if (Out.size() >= Cap)
        return Out;
    }
  }
  return Out;
}

void Placer::noteCore(const std::string &Kind, const std::string &Instr,
                      const std::string &Detail) {
  if (Stats)
    Stats->Core.push_back({Kind, Instr, Detail});
  if (Ctx.remarksEnabled())
    obs::Remark(Ctx, "sat", "core")
        .instr(Instr)
        .message("unsat core: " + Detail)
        .arg("constraint", Kind)
        .arg("device", Dev.name());
}

void Placer::tallyDemand() {
  // Capacity precheck: SAT needs no help recognizing that N instructions
  // cannot fit N-1 slots, but resolution proofs of pigeonhole formulas are
  // exponential, so rule the case out arithmetically first.
  for (const Cluster &C : Clusters)
    Demand[C.Prim].Need += C.Members.size();
  // Tall clusters (cascade chains) need that many *consecutive* rows in
  // one column; capacityShortfall bounds the number of placeable tall
  // clusters per height class, then packs their runs into the columns. A
  // cluster's height is its longest run of consecutive row offsets among
  // members sharing one column expression: a row gap or a member in
  // another column leaves room for other clusters to interleave. This is
  // a sound relaxation that rejects pigeonhole-shaped boxes
  // arithmetically.
  std::vector<std::tuple<bool, int64_t, int64_t>> Cells;
  for (const Cluster &C : Clusters) {
    // (column is a variable, column offset, row offset) per member whose
    // row is relative.
    Cells.clear();
    for (const Member &M : C.Members)
      if (M.Y.isVar())
        Cells.emplace_back(M.X.isVar(), M.X.offset(), M.Y.offset());
    std::sort(Cells.begin(), Cells.end());
    Cells.erase(std::unique(Cells.begin(), Cells.end()), Cells.end());
    unsigned Height = 1, Run = 1;
    for (size_t I = 1; I < Cells.size(); ++I) {
      auto [PrevVar, PrevX, PrevY] = Cells[I - 1];
      auto [Var, X, Y] = Cells[I];
      Run = Var == PrevVar && X == PrevX && Y == PrevY + 1 ? Run + 1 : 1;
      Height = std::max(Height, Run);
    }
    if (Height >= 2)
      Demand[C.Prim].TallHeights.push_back(Height);
  }
  for (auto &[Kind, D] : Demand)
    std::sort(D.TallHeights.begin(), D.TallHeights.end());
}

std::optional<Placer::Shortfall>
Placer::capacityShortfall(const Bounds &B) const {
  unsigned NumCols = std::min<unsigned>(Dev.numColumns(), B.MaxColumn + 1);
  // Rows of column X of \p Kind within B (0 for another kind).
  auto RowsOf = [&](unsigned X, ir::Resource Kind) -> unsigned {
    const device::Column &Col = Dev.columns()[X];
    return Col.Kind == Kind ? std::min<unsigned>(Col.Height, B.MaxRow + 1)
                            : 0;
  };
  for (const auto &[Kind, D] : Demand) {
    size_t Capacity = 0;
    for (unsigned X = 0; X < NumCols; ++X)
      Capacity += RowsOf(X, Kind);
    for (const device::Slot &S : FixedSlots)
      if (S.X <= B.MaxColumn && S.Y <= B.MaxRow &&
          Dev.columns()[S.X].Kind == Kind)
        --Capacity;
    if (D.Need > Capacity)
      return Shortfall{Kind, D.Need, Capacity};
    // One check per height class h, ascending: the clusters at least h
    // tall need disjoint runs of h consecutive rows, and a column of R
    // rows holds R / h of them.
    const std::vector<unsigned> &Heights = D.TallHeights;
    for (auto It = Heights.begin(); It != Heights.end();
         It = std::upper_bound(It, Heights.end(), *It)) {
      size_t Segments = 0;
      for (unsigned X = 0; X < NumCols; ++X)
        Segments += RowsOf(X, Kind) / *It;
      size_t Tall = static_cast<size_t>(Heights.end() - It);
      if (Tall > Segments)
        return Shortfall{Kind, D.Need, Capacity, Tall, *It, Segments};
    }
  }
  // Then pack each kind's runs, tallest first, into its columns within B:
  // the runs one column takes must fit its rows together. Each run may
  // take any column of its kind, a pinned column included, and pinned
  // slots block none of its rows. So a refutation is proved, and it is
  // exact for programs of wildcard singletons and contiguous one-column
  // chains, the only clusters selection and cascading make.
  std::vector<std::pair<unsigned, size_t>> Columns;
  for (const auto &[Kind, D] : Demand) {
    if (D.TallHeights.size() < 2)
      continue;
    Columns.clear();
    for (unsigned X = 0; X < NumCols; ++X) {
      unsigned Rows = RowsOf(X, Kind);
      if (Rows == 0)
        continue;
      auto It = std::find_if(Columns.begin(), Columns.end(),
                             [&](const auto &C) { return C.first == Rows; });
      if (It == Columns.end())
        Columns.emplace_back(Rows, 1);
      else
        ++It->second;
    }
    size_t Nodes = 0;
    if (!packs(D.TallHeights, D.TallHeights.size(), Columns, Nodes))
      return Shortfall{Kind, 0, 0, D.TallHeights.size()};
  }
  return std::nullopt;
}

bool Placer::capacityInfeasible(const Bounds &B, bool Explain,
                                obs::Span &Sp) {
  std::optional<Shortfall> F = capacityShortfall(B);
  if (!F)
    return false;
  Sp.arg("outcome", "precheck_unsat");
  if (!Explain)
    return true;
  // Name the resource and a representative demanding instruction so the
  // explanation points back into the program.
  std::string Instr;
  for (const Cluster &C : Clusters)
    if (C.Prim == F->Kind) {
      Instr = Prog.body()[C.Members.front().BodyIndex].dst();
      break;
    }
  std::string Kind(ir::resourceName(F->Kind));
  std::string Within = " columns <= " + std::to_string(B.MaxColumn) +
                       ", rows <= " + std::to_string(B.MaxRow);
  std::string Detail;
  if (F->Need > F->Capacity) {
    Detail = "demand for " + std::to_string(F->Need) + " " + Kind +
             " slot(s) exceeds the " + std::to_string(F->Capacity) +
             " available within" + Within + " on device '" + Dev.name() + "'";
  } else if (F->Height) {
    Detail = std::to_string(F->Tall) + " cascade chain(s) of height >= " +
             std::to_string(F->Height) + " need " + std::to_string(F->Tall) +
             " consecutive-row segment(s) but only " +
             std::to_string(F->Segments) + " fit in " + Kind + Within;
  } else {
    const std::vector<unsigned> &Heights = Demand.at(F->Kind).TallHeights;
    Detail = std::to_string(F->Tall) + " cascade chain(s) of heights ";
    for (auto It = Heights.rbegin(); It != Heights.rend(); ++It)
      Detail += (It == Heights.rbegin() ? "" : ", ") + std::to_string(*It);
    Detail += " do not pack into " + Kind + Within;
  }
  noteCore("capacity", Instr, Detail);
  return true;
}

unsigned Placer::lowestAdmitted(Bounds B, int Axis) const {
  unsigned &Bound = Axis == 0 ? B.MaxColumn : B.MaxRow;
  unsigned Low = 0, High = Bound;
  while (Low < High) {
    Bound = Low + (High - Low) / 2;
    if (capacityShortfall(B))
      Low = Bound + 1;
    else
      High = Bound;
  }
  return Low;
}

Placer::Attempt Placer::solveOnce(const Bounds &B, size_t Cap,
                                  std::vector<Candidate> &Assignment,
                                  std::string &Err, bool Explain,
                                  uint64_t ConflictBudget, SolveInfo &Info) {
  Info = {};
  obs::Span Sp(Ctx, "place.solve");
  Sp.arg("max_col", B.MaxColumn);
  Sp.arg("max_row", B.MaxRow);
  Sp.arg("cap", static_cast<uint64_t>(Cap));
  Sp.arg("clusters", static_cast<uint64_t>(Clusters.size()));
  if (capacityInfeasible(B, Explain, Sp))
    return Attempt::Unsat;

  std::vector<std::vector<Candidate>> Cands(Clusters.size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    Result<std::vector<Candidate>> E = enumerate(Clusters[I], B, Cap);
    if (!E) {
      Err = E.error();
      return Attempt::Error;
    }
    Cands[I] = E.take();
    Info.Capped = Info.Capped || Cands[I].size() >= Cap;
    if (Cands[I].empty()) {
      // No cap gives this cluster a candidate, so the verdict is final.
      Info.Capped = false;
      Sp.arg("outcome", "no_candidates");
      if (Explain) {
        const Cluster &C = Clusters[I];
        noteCore("range",
                 Prog.body()[C.Members.front().BodyIndex].dst(),
                 "cluster of " + std::to_string(C.Members.size()) + " " +
                     std::string(ir::resourceName(C.Prim)) +
                     " instruction(s) has no valid base position within "
                     "columns <= " +
                     std::to_string(B.MaxColumn) + ", rows <= " +
                     std::to_string(B.MaxRow) + " on device '" + Dev.name() +
                     "'");
      }
      return Attempt::Unsat; // no feasible base under these bounds
    }
  }

  sat::Solver S(Ctx);
  if (Options.Proof)
    S.setProof(Options.Proof);
  // SAT variables per (cluster, candidate).
  std::vector<std::vector<sat::Var>> Vars;
  if (!encodeChoices(S, Cands, Vars))
    return Attempt::Unsat;

  if (Stats) {
    ++Stats->Solves;
    Stats->Vars = S.numVars();
    Stats->Clauses = static_cast<unsigned>(S.numClauses());
  }
  Sp.arg("vars", static_cast<uint64_t>(S.numVars()));
  // The solve's own effort: the encoding's unit clauses already
  // propagated at the root.
  const sat::Solver::Statistics StatsBefore = S.stats();
  sat::Outcome O = S.solve(ConflictBudget);
  sat::Solver::Statistics D =
      sat::Solver::Statistics::delta(S.stats(), StatsBefore);
  accumulate(D, O == sat::Outcome::Unknown);
  Info.Conflicts = D.Conflicts;
  Info.Decisions = D.Decisions;
  Info.BudgetExhausted = O == sat::Outcome::Unknown;
  Info.SatBacked = true;
  if (O != sat::Outcome::Sat) {
    Sp.arg("outcome", O == sat::Outcome::Unsat ? "unsat" : "budget_exhausted");
    // An explained search is unbounded, so an UNSAT here is proved and has
    // a refutation to extract a core from; it is final once no cluster's
    // enumeration was cut short.
    if (Explain && !Info.Capped)
      explainUnsat(Cands);
    return Attempt::Unsat; // Unknown (budget hit) also counts as no-shrink
  }
  Sp.arg("outcome", "sat");

  Assignment.clear();
  Assignment.resize(Clusters.size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    bool Chosen = false;
    for (size_t K = 0; K < Vars[I].size(); ++K)
      if (S.value(Vars[I][K])) {
        Assignment[I] = Cands[I][K];
        Chosen = true;
        break;
      }
    if (!Chosen) {
      Err = "internal error: satisfiable model without a chosen candidate";
      return Attempt::Error;
    }
  }
  return Attempt::Sat;
}

void Placer::accumulate(const sat::Solver::Statistics &D, bool BudgetHit) {
  if (!Stats)
    return;
  Stats->Conflicts += D.Conflicts;
  Stats->Decisions += D.Decisions;
  Stats->Propagations += D.Propagations;
  Stats->Restarts += D.Restarts;
  Stats->Learned += D.Learned;
  Stats->BudgetExhausted += BudgetHit ? 1 : 0;
  Stats->SatMs += D.SolveMs;
  static_assert(sat::Solver::Statistics::HistogramBuckets ==
                std::tuple_size_v<decltype(Stats->LbdHistogram)>);
  for (size_t K = 0; K < D.LbdHistogram.size(); ++K) {
    Stats->LbdHistogram[K] += D.LbdHistogram[K];
    Stats->LearnedSizeHistogram[K] += D.LearnedSizeHistogram[K];
  }
}

void Placer::explainUnsat(const std::vector<std::vector<Candidate>> &Cands) {
  // Re-emit the encoding with one selector literal per constraint group:
  // group clauses become (clause ∨ ¬selector) and the solve assumes every
  // selector, so the failed-assumption core names exactly the groups that
  // refute each other. Per-cluster exclusivity stays hard — relaxing "at
  // most one candidate" never models a real layout, so it cannot explain
  // one.
  obs::Span Sp(Ctx, "place.explain");
  // The extraction solver re-proves UNSAT once plus once per minimization
  // probe; mute its sat:unsat remarks (keeping spans, counters and
  // coverage) so the stream carries only the curated sat:core records.
  obs::RemarkStream MutedRemarks;
  obs::Context Quiet(*Ctx.Telem, MutedRemarks, *Ctx.Cov);
  sat::Solver S(Quiet);
  struct Group {
    std::string Kind;
    std::string Instr;
    std::string Detail;
  };
  std::vector<Group> Groups;
  std::vector<sat::Lit> Selectors;
  std::map<uint32_t, size_t> GroupOfVar;
  auto MakeSelector = [&](std::string Kind, std::string Instr,
                          std::string Detail) {
    sat::Var V = S.newVar();
    GroupOfVar[V] = Groups.size();
    Groups.push_back({std::move(Kind), std::move(Instr), std::move(Detail)});
    Selectors.push_back(sat::Lit(V));
    return sat::Lit(V);
  };

  std::vector<std::vector<sat::Var>> Vars(Clusters.size());
  std::vector<size_t> ClusterOfVar; // indexed by candidate variable
  for (size_t I = 0; I < Clusters.size(); ++I) {
    const Cluster &C = Clusters[I];
    std::vector<sat::Lit> Lits;
    for (size_t K = 0; K < Cands[I].size(); ++K) {
      sat::Var V = S.newVar();
      Vars[I].push_back(V);
      Lits.push_back(sat::Lit(V));
      ClusterOfVar.resize(V + 1, SIZE_MAX);
      ClusterOfVar[V] = I;
    }
    // The cluster's row span mirrors its relative adjacency constraints
    // (e.g. a cascade chain at (x, y) .. (x, y+k)), from its lowest
    // relative row to its highest.
    int64_t MinDy = INT64_MAX, MaxDy = INT64_MIN;
    for (const Member &M : C.Members)
      if (M.Y.isVar()) {
        MinDy = std::min(MinDy, M.Y.offset());
        MaxDy = std::max(MaxDy, M.Y.offset());
      }
    std::string Rep = Prog.body()[C.Members.front().BodyIndex].dst();
    std::string Detail =
        "cluster of " + std::to_string(C.Members.size()) + " " +
        std::string(ir::resourceName(C.Prim)) + " instruction(s)" +
        (MaxDy > MinDy
             ? " spanning " + std::to_string(MaxDy - MinDy + 1) + " row(s)"
             : "") +
        " must take one of " + std::to_string(Cands[I].size()) +
        " base position(s)";
    sat::Lit Sel = MakeSelector("choose-one", Rep, std::move(Detail));
    std::vector<sat::Lit> Guarded = Lits;
    Guarded.push_back(~Sel);
    S.addClause(std::move(Guarded));
    addAtMostOne(S, Lits);
  }
  SlotTable Slots(Cands);
  Slots.fill(Cands, Vars);
  for (size_t Idx = 0; Idx < Slots.numSlots(); ++Idx) {
    std::span<const sat::Lit> Lits = Slots.users(Idx);
    if (Lits.size() <= 1)
      continue; // a sole user can never collide
    device::Slot Slot = Slots.slot(Idx);
    size_t FirstCluster = ClusterOfVar[Lits.front().var()];
    std::string Rep =
        Prog.body()[Clusters[FirstCluster].Members.front().BodyIndex].dst();
    sat::Lit Sel = MakeSelector(
        "distinct", Rep,
        "slot " +
            std::string(ir::resourceName(Dev.columns()[Slot.X].Kind)) + "(" +
            std::to_string(Slot.X) + ", " + std::to_string(Slot.Y) +
            ") admits one instruction but " + std::to_string(Lits.size()) +
            " candidate(s) compete for it");
    addAtMostOne(S, Lits, Sel);
  }

  sat::Outcome O = S.solveWith(Selectors);
  Sp.arg("groups", static_cast<uint64_t>(Groups.size()));
  if (O != sat::Outcome::Unsat)
    return; // defensive: nothing to explain without a refutation
  std::vector<sat::Lit> Core =
      S.minimizeCore(S.unsatCore(), /*ProbeConflictBudget=*/5000);
  Sp.arg("core", static_cast<uint64_t>(Core.size()));
  std::vector<size_t> Indices;
  for (sat::Lit L : Core)
    if (auto It = GroupOfVar.find(L.var()); It != GroupOfVar.end())
      Indices.push_back(It->second);
  std::sort(Indices.begin(), Indices.end());
  for (size_t Idx : Indices)
    noteCore(Groups[Idx].Kind, Groups[Idx].Instr, Groups[Idx].Detail);
}

Result<AsmProgram> Placer::run() {
  ++Ctx.counter("place.runs");
  if (Status St = buildClusters(); !St)
    return fail<AsmProgram>(St.error());
  tallyDemand();
  Ctx.counter("place.clusters") += Clusters.size();

  Bounds Full{Dev.numColumns() ? Dev.numColumns() - 1 : 0, 0};
  unsigned TallestColumn = std::max(Dev.maxHeight(ir::Resource::Lut),
                                    Dev.maxHeight(ir::Resource::Dsp));
  Full.MaxRow = TallestColumn ? TallestColumn - 1 : 0;

  // First solution: grow the candidate cap (x4 per attempt) until an
  // attempt is satisfiable or no cluster's enumeration reached the cap,
  // each attempt on a fresh encoding.
  size_t FullCap = static_cast<size_t>(Dev.numColumns()) * TallestColumn + 1;
  const size_t StartCap =
      std::max<size_t>(InitialCandidateCap, 2 * Clusters.size() + 8);
  size_t Cap = StartCap;
  std::vector<Candidate> BestAssignment;
  SolveInfo Info;
  std::string Err;
  auto FirstSolution = [&](const Bounds &B, size_t MaxCap, bool LowerBound) {
    for (Cap = StartCap;; Cap = std::min(MaxCap, Cap * 4)) {
      if (Options.Proof)
        Options.Proof->comment(
            (LowerBound ? "place: lower-bound solve columns<=" +
                              std::to_string(B.MaxColumn) + " rows<=" +
                              std::to_string(B.MaxRow) + ", "
                        : std::string("place: initial solve, ")) +
            "fresh encoding, cap=" + std::to_string(Cap));
      // Box attempts are budgeted like probes and never explained. A
      // full-device attempt is unbudgeted, so its UNSAT is proved, and
      // solveOnce explains it once no cap cut the attempt short.
      Attempt A = solveOnce(B, Cap, BestAssignment, Err,
                            /*Explain=*/!LowerBound,
                            LowerBound ? ProbeConflictBudget : 0, Info);
      // An attempt that enumerated every candidate is conclusive whatever
      // its cap: a larger cap cannot change its formula.
      if (A != Attempt::Unsat || Cap >= MaxCap || !Info.Capped)
        return A;
    }
  };

  // A shrinking run first tries the smallest box the capacity precheck
  // admits: the smallest column bound with rows open, the order the
  // shrink search minimises, then the smallest row bound under it. The
  // precheck is sound, so no layout fits a smaller box, and a layout in
  // this one already has the area the search would end at: no probe
  // follows it. When no box attempt is satisfiable, the capped
  // full-device loop runs as without shrinking.
  std::optional<Bounds> Box;
  Attempt First = Attempt::Unsat;
  if (Options.Shrink && !Clusters.empty() && !capacityShortfall(Full)) {
    Box = Full;
    Box->MaxColumn = lowestAdmitted(Full, 0);
    Box->MaxRow = lowestAdmitted(*Box, 1);
    First = FirstSolution(
        *Box, static_cast<size_t>(Box->MaxColumn + 1) * (Box->MaxRow + 1) + 1,
        /*LowerBound=*/true);
  }
  const bool BoxHeld = First == Attempt::Sat;
  if (First == Attempt::Unsat)
    First = FirstSolution(Full, FullCap, /*LowerBound=*/false);
  if (First == Attempt::Error)
    return fail<AsmProgram>(Err);
  if (First == Attempt::Unsat)
    return fail<AsmProgram>("placement failed: no valid layout for " +
                            std::to_string(Clusters.size()) +
                            " cluster(s) on device '" + Dev.name() + "'");

  // Timeline frame recorder: every frame carries the bounding box of the
  // layout accepted so far.
  auto RecordFrame = [&](ShrinkProbe::Axis Ax, unsigned Bound,
                         ShrinkProbe::Outcome Oc, const SolveInfo &SI) {
    if (!Stats)
      return;
    ShrinkProbe P;
    P.ProbeAxis = Ax;
    P.Bound = Bound;
    P.Result = Oc;
    P.Conflicts = SI.Conflicts;
    P.Decisions = SI.Decisions;
    auto Cover = [&](const device::Slot &S) {
      P.MaxColumn = std::max(P.MaxColumn, S.X);
      P.MaxRow = std::max(P.MaxRow, S.Y);
    };
    for (const Candidate &Cand : BestAssignment)
      for (const device::Slot &S : Cand.Slots)
        Cover(S);
    for (const device::Slot &S : FixedSlots)
      Cover(S);
    Stats->Timeline.push_back(P);
  };
  RecordFrame(ShrinkProbe::Axis::Initial, 0, ShrinkProbe::Outcome::Sat, Info);
  if (Ctx.remarksEnabled()) {
    std::string BoxText =
        Box ? "the lower-bound box columns <= " +
                  std::to_string(Box->MaxColumn) + ", rows <= " +
                  std::to_string(Box->MaxRow)
            : "";
    std::string Message = "first placement found for " +
                          std::to_string(Clusters.size()) + " cluster(s) on '" +
                          Dev.name() + "'";
    if (Box && BoxHeld)
      Message += " within " + BoxText;
    Message += " (candidate cap " + std::to_string(Cap) + ")";
    if (Box && !BoxHeld)
      Message += "; " + BoxText + " gave none";
    obs::Remark R(Ctx, "place", "solve");
    R.message(Message)
        .arg("clusters", static_cast<uint64_t>(Clusters.size()))
        .arg("fixed_clusters", static_cast<uint64_t>(FixedClusters.size()))
        .arg("candidate_cap", static_cast<uint64_t>(Cap))
        .arg("device", Dev.name());
    if (Box)
      R.arg("lower_bound_column", Box->MaxColumn)
          .arg("lower_bound_row", Box->MaxRow)
          .arg("lower_bound", BoxHeld ? "held" : "missed");
  }

  // Shrinking passes: take the used area as the bound and binary-search a
  // smaller one, re-running placement (Section 5.3). Every probe is a
  // fresh encoding of its bounds over every candidate, under the probe
  // conflict budget.
  auto ShrinkT0 = std::chrono::steady_clock::now();
  if (Options.Shrink && !Clusters.empty()) {
    // Bounds needed by the placeable clusters alone. Fixed (pinned) slots
    // are excluded: they are not enumerated, so they may lie outside the
    // shrink window without affecting feasibility.
    auto UsedBounds = [&](const std::vector<Candidate> &Assignment) {
      Bounds B{0, 0};
      for (const Candidate &Cand : Assignment)
        for (const device::Slot &S : Cand.Slots) {
          B.MaxColumn = std::max(B.MaxColumn, S.X);
          B.MaxRow = std::max(B.MaxRow, S.Y);
        }
      return B;
    };
    Bounds Cur{Full.MaxColumn, Full.MaxRow};

    // Shrink columns, then rows, by binary search (Section 5.3). Columns
    // first: packing into few columns keeps DSP chains near their cascade
    // routing.
    obs::Counter &ShrinkIters = Ctx.counter("place.shrink_iters");
    for (int Axis = 0; Axis < 2; ++Axis) {
      // Every bound below the precheck's lowest admitted one is a probe
      // the precheck would refute, so the search starts there. After a
      // lower-bound box hit, Low == High on both axes and no probe runs.
      unsigned Low = lowestAdmitted(Cur, Axis);
      unsigned High = Axis == 0 ? UsedBounds(BestAssignment).MaxColumn
                                : UsedBounds(BestAssignment).MaxRow;
      while (Low < High) {
        unsigned Mid = Low + (High - Low) / 2;
        obs::Span Sp(Ctx, "place.shrink");
        Sp.arg("axis", Axis == 0 ? "col" : "row");
        Sp.arg("bound", Mid);
        ++ShrinkIters;
        if (Stats)
          ++Stats->ShrinkIterations;
        Bounds Try = Cur;
        (Axis == 0 ? Try.MaxColumn : Try.MaxRow) = Mid;
        std::vector<Candidate> Assignment;
        if (Options.Proof)
          Options.Proof->comment(
              std::string("place: shrink probe axis=") +
              (Axis == 0 ? "col" : "row") + " bound=" + std::to_string(Mid));
        Attempt A = solveOnce(Try, FullCap, Assignment, Err,
                              /*Explain=*/false, ProbeConflictBudget, Info);
        if (A == Attempt::Error)
          return fail<AsmProgram>(Err);
        if (Stats)
          ++(Info.SatBacked ? Stats->IncrementalProbes
                            : Stats->PrecheckProbes);
        Sp.arg("fits", A == Attempt::Sat ? "yes" : "no");
        const char *OutcomeName = A == Attempt::Sat ? "sat"
                                  : Info.BudgetExhausted ? "budget_exhausted"
                                                         : "unsat";
        // The constraint that stops an area shrink is exactly this UNSAT.
        // Per-probe conflict/decision counts come from the solver's delta
        // profile, which survives budget-exhausted (Unknown) outcomes, so
        // a probe that gave up still reports the work it did.
        if (Ctx.remarksEnabled()) {
          obs::Remark R(Ctx, "place", "shrink-probe");
          R.message(std::string("shrink ") +
                    (Axis == 0 ? "columns" : "rows") + " to <= " +
                    std::to_string(Mid) +
                    (A == Attempt::Sat
                         ? ": SAT, layout fits"
                         : Info.BudgetExhausted
                               ? ": conflict budget exhausted, bound kept"
                               : ": UNSAT, bound kept"))
              .arg("axis", Axis == 0 ? "col" : "row")
              .arg("bound", Mid)
              .arg("outcome", OutcomeName)
              .arg("conflicts", Info.Conflicts)
              .arg("decisions", Info.Decisions);
        }
        if (A == Attempt::Sat) {
          BestAssignment = std::move(Assignment);
          High = std::min(Mid, Axis == 0
                                   ? UsedBounds(BestAssignment).MaxColumn
                                   : UsedBounds(BestAssignment).MaxRow);
        } else {
          Low = Mid + 1;
        }
        RecordFrame(Axis == 0 ? ShrinkProbe::Axis::Column
                              : ShrinkProbe::Axis::Row,
                    Mid,
                    A == Attempt::Sat        ? ShrinkProbe::Outcome::Sat
                    : Info.BudgetExhausted   ? ShrinkProbe::Outcome::Budget
                                             : ShrinkProbe::Outcome::Unsat,
                    Info);
      }
      (Axis == 0 ? Cur.MaxColumn : Cur.MaxRow) = High;
    }
  }
  if (Stats)
    Stats->ShrinkMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - ShrinkT0)
                          .count();

  // Materialize the placed program.
  AsmProgram Placed(Prog.name());
  Placed.inputs() = Prog.inputs();
  Placed.outputs() = Prog.outputs();
  std::vector<device::Slot> SlotOf(Prog.body().size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    for (size_t K = 0; K < Clusters[I].Members.size(); ++K)
      SlotOf[Clusters[I].Members[K].BodyIndex] = BestAssignment[I].Slots[K];
    // Which column kind each cluster bound to, and where.
    if (Ctx.remarksEnabled() && !BestAssignment[I].Slots.empty()) {
      const device::Slot &Base = BestAssignment[I].Slots.front();
      obs::Remark(Ctx, "place", "bind")
          .instr(Prog.body()[Clusters[I].Members.front().BodyIndex].dst())
          .message("cluster of " +
                   std::to_string(Clusters[I].Members.size()) +
                   " bound to " +
                   std::string(ir::resourceName(Clusters[I].Prim)) +
                   " column " + std::to_string(Base.X) + ", base row " +
                   std::to_string(Base.Y))
          .arg("column_kind", ir::resourceName(Clusters[I].Prim))
          .arg("x", Base.X)
          .arg("y", Base.Y)
          .arg("members", static_cast<uint64_t>(Clusters[I].Members.size()));
    }
  }
  for (const Cluster &C : FixedClusters) {
    device::Slot S;
    memberSlot(C.Members[0], 0, 0, S);
    SlotOf[C.Members[0].BodyIndex] = S;
  }
  unsigned MaxC = 0, MaxR = 0, NumPlaced = 0;
  for (size_t I = 0; I < Prog.body().size(); ++I) {
    const AsmInstr &A = Prog.body()[I];
    if (A.isWire()) {
      Placed.addInstr(A);
      continue;
    }
    device::Slot S = SlotOf[I];
    rasm::Loc L{A.loc().Prim, Coord::lit(S.X), Coord::lit(S.Y)};
    Placed.addInstr(AsmInstr::makeOp(A.dst(), A.type(), A.opName(), A.args(),
                                     std::move(L), A.attrs()));
    MaxC = std::max(MaxC, S.X);
    MaxR = std::max(MaxR, S.Y);
    ++NumPlaced;
    if (Stats) {
      Stats->MaxColumn = std::max(Stats->MaxColumn, S.X);
      Stats->MaxRow = std::max(Stats->MaxRow, S.Y);
    }
  }
  if (Ctx.remarksEnabled())
    obs::Remark(Ctx, "place", "area")
        .message("final bounding box: columns 0.." + std::to_string(MaxC) +
                 ", rows 0.." + std::to_string(MaxR) + " for " +
                 std::to_string(NumPlaced) + " instruction(s) on '" +
                 Dev.name() + "'")
        .arg("max_column", MaxC)
        .arg("max_row", MaxR)
        .arg("placed", NumPlaced)
        .arg("device", Dev.name());
  return Placed;
}

} // namespace

Result<AsmProgram> reticle::place::place(const AsmProgram &Prog,
                                         const device::Device &Dev,
                                         const PlacementOptions &Options,
                                         PlacementStats *Stats,
                                         const obs::Context &Ctx) {
  Placer P(Prog, Dev, Options, Stats, Ctx);
  return P.run();
}

Status reticle::place::checkPlacement(const AsmProgram &Original,
                                      const AsmProgram &Placed,
                                      const device::Device &Dev) {
  if (Original.body().size() != Placed.body().size())
    return Status::failure("instruction count changed during placement");

  std::set<device::Slot> Used;
  // One interner per axis maps coordinate variables to dense ids; the
  // resolved base per variable lives in a flat vector alongside it.
  ir::NameInterner XVars, YVars;
  std::vector<std::optional<int64_t>> VarX, VarY;
  for (size_t I = 0; I < Original.body().size(); ++I) {
    const AsmInstr &O = Original.body()[I];
    const AsmInstr &P = Placed.body()[I];
    if (O.isWire() != P.isWire())
      return Status::failure("instruction kind changed during placement");
    if (O.isWire())
      continue;
    if (!P.loc().X.isLit() || !P.loc().Y.isLit())
      return Status::failure("unresolved coordinate in '" + P.str() + "'");
    int64_t X = P.loc().X.offset();
    int64_t Y = P.loc().Y.offset();
    if (X < 0 || Y < 0 ||
        !Dev.isValidSlot(O.loc().Prim, static_cast<unsigned>(X),
                         static_cast<unsigned>(Y)))
      return Status::failure("'" + P.str() + "' is placed on an invalid " +
                             std::string(ir::resourceName(O.loc().Prim)) +
                             " slot");
    device::Slot S{static_cast<unsigned>(X), static_cast<unsigned>(Y)};
    if (!Used.insert(S).second)
      return Status::failure("two instructions share slot (" +
                             std::to_string(X) + ", " + std::to_string(Y) +
                             ")");
    // Literal pins and relative variable constraints.
    auto CheckAxis = [&](const Coord &C, int64_t Value,
                         ir::NameInterner &Vars,
                         std::vector<std::optional<int64_t>> &Bases)
        -> Status {
      if (C.isLit() && C.offset() != Value)
        return Status::failure("pinned coordinate changed in '" + P.str() +
                               "'");
      if (C.isVar()) {
        int64_t Base = Value - C.offset();
        ir::ValueId Id = Vars.intern(C.name());
        if (Id == Bases.size())
          Bases.emplace_back();
        if (!Bases[Id])
          Bases[Id] = Base;
        else if (*Bases[Id] != Base)
          return Status::failure("relative constraint on '" + C.name() +
                                 "' violated in '" + P.str() + "'");
      }
      return Status::success();
    };
    if (Status St = CheckAxis(O.loc().X, X, XVars, VarX); !St)
      return St;
    if (Status St = CheckAxis(O.loc().Y, Y, YVars, VarY); !St)
      return St;
  }
  return Status::success();
}
