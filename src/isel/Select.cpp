//===- isel/Select.cpp - Instruction selection ---------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "isel/Select.h"

#include "isel/Dfg.h"
#include "obs/Context.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

using namespace reticle;
using namespace reticle::isel;

namespace {

/// Static IR coverage: one bin per op, per op x result type (the type
/// string carries the vector width, so "add:i8<4>" and "add:i8" are
/// distinct bins), per lane count, and per resource annotation on
/// compute instructions. Recorded once per selection, over the verified
/// function selection receives, so the corpus-wide coverage doc never
/// counts rejected IR and each count is a number of instructions.
void recordIrCoverage(const ir::Function &Fn, const obs::Context &Ctx) {
  obs::Coverage &Cov = Ctx.coverage();
  for (const ir::Instr &I : Fn.body()) {
    const char *Op = I.opName();
    const ir::Type Ty = I.type();
    Cov.hit("ir.op", Op);
    Cov.hit("ir.op_type", std::string(Op) + ":" + Ty.str());
    Cov.hit("ir.lanes", std::to_string(Ty.lanes()));
    if (!I.isWire())
      Cov.hit("ir.resource", ir::resourceName(I.resource()));
  }
}

/// Lexicographic (area, latency) cost.
struct Cost {
  int64_t Area = 0;
  int64_t Latency = 0;
  bool operator<(const Cost &Other) const {
    if (Area != Other.Area)
      return Area < Other.Area;
    return Latency < Other.Latency;
  }
  Cost operator+(const Cost &Other) const {
    return Cost{Area + Other.Area, Latency + Other.Latency};
  }
};

/// One successful tile match at a DFG node.
struct Match {
  const tdl::TargetDef *Def = nullptr;
  /// DFG node bound to each definition input, in definition port order.
  std::vector<size_t> InputNodes;
  /// Covered compute nodes that are internal to the tree (each needs its
  /// own materialization decision is *not* implied; covered nodes are
  /// consumed by this tile).
  std::vector<size_t> Covered;
  /// Attribute values transferred through `_` holes, in hole order.
  std::vector<int64_t> HoleValues;
};

class Selector {
public:
  Selector(const Dfg &G, const tdl::Target &Target, const obs::Context &Ctx)
      : G(G), Target(Target), Ctx(Ctx), Best(G.nodes().size()) {
    obs::Coverage &Cov = Ctx.coverage();
    for (const tdl::TargetDef &Def : Target.defs()) {
      const ir::Instr *RootPat = patternRoot(Def);
      if (!RootPat || RootPat->isWire())
        continue; // tiles rooted at wire operations are never selected
      // Declare every pattern that could fire — directly here, or via the
      // cascade rewrite — so never-selected patterns show up as
      // zero-count bins in the isel.pattern coverage space.
      Cov.declare("isel.pattern", Def.Name);
      if (Def.isCascadeVariant())
        continue;
      DefsByOp[RootPat->compOp()].push_back(&Def);
    }
  }

  Result<rasm::AsmProgram> run(SelectionStats *Stats);

private:
  /// The body instruction defining the definition's output.
  static const ir::Instr *patternRoot(const tdl::TargetDef &Def) {
    for (const ir::Instr &I : Def.Body)
      if (I.dst() == Def.Output.Name)
        return &I;
    return nullptr;
  }

  /// Attempts to match \p Def with its pattern root at node \p Root.
  bool matchDef(const tdl::TargetDef &Def, size_t Root, Match &Out);

  bool matchInstr(const tdl::TargetDef &Def, const ir::Instr &Pat,
                  size_t PatIndex, size_t NodeId,
                  std::map<std::string, size_t> &Bound,
                  std::map<std::pair<size_t, size_t>, int64_t> &HoleVals,
                  std::vector<size_t> &Covered);

  bool matchOperand(const tdl::TargetDef &Def, const std::string &PatArg,
                    size_t NodeId, std::map<std::string, size_t> &Bound,
                    std::map<std::pair<size_t, size_t>, int64_t> &HoleVals,
                    std::vector<size_t> &Covered);

  /// Minimum-cost cover of the internal compute node \p NodeId; memoized.
  Result<Cost> solve(size_t NodeId);

  /// Emits the chosen tile for \p NodeId and, first, those of its internal
  /// binding nodes.
  void emit(size_t NodeId, rasm::AsmProgram &Prog,
            std::set<size_t> &Emitted);

  const Dfg &G;
  const tdl::Target &Target;
  const obs::Context &Ctx;
  std::map<ir::CompOp, std::vector<const tdl::TargetDef *>> DefsByOp;
  /// Memoized minimum-cost cover per DFG node id (== ValueId).
  std::vector<std::optional<std::pair<Cost, Match>>> Best;
};

bool Selector::matchOperand(
    const tdl::TargetDef &Def, const std::string &PatArg, size_t NodeId,
    std::map<std::string, size_t> &Bound,
    std::map<std::pair<size_t, size_t>, int64_t> &HoleVals,
    std::vector<size_t> &Covered) {
  // A pattern variable (input or temporary) that is already bound must
  // rebind to the same node (non-linear patterns).
  auto It = Bound.find(PatArg);
  if (It != Bound.end())
    return It->second == NodeId;

  // Definition inputs bind freely: any node can feed the tile.
  bool IsInput = false;
  for (const ir::Port &P : Def.Inputs)
    if (P.Name == PatArg) {
      IsInput = true;
      break;
    }
  if (IsInput) {
    Bound[PatArg] = NodeId;
    return true;
  }

  // A temporary: the operand must be an internal (descendable) node whose
  // defining pattern instruction matches recursively.
  if (!G.isDescendable(NodeId))
    return false;
  const ir::Instr *Pat = nullptr;
  size_t PatIndex = 0;
  for (size_t I = 0; I < Def.Body.size(); ++I)
    if (Def.Body[I].dst() == PatArg) {
      Pat = &Def.Body[I];
      PatIndex = I;
      break;
    }
  assert(Pat && "pattern temporary without definition");
  Bound[PatArg] = NodeId;
  return matchInstr(Def, *Pat, PatIndex, NodeId, Bound, HoleVals, Covered);
}

bool Selector::matchInstr(
    const tdl::TargetDef &Def, const ir::Instr &Pat, size_t PatIndex,
    size_t NodeId, std::map<std::string, size_t> &Bound,
    std::map<std::pair<size_t, size_t>, int64_t> &HoleVals,
    std::vector<size_t> &Covered) {
  if (!G.isInstr(NodeId))
    return false;
  const ir::Instr &I = G.instrOf(NodeId);
  if (I.kind() != Pat.kind())
    return false;
  if (Pat.isWire() ? (Pat.wireOp() != I.wireOp())
                   : (Pat.compOp() != I.compOp()))
    return false;
  if (!(I.type() == Pat.type()))
    return false;
  if (I.args().size() != Pat.args().size())
    return false;

  // Resource annotations are hard constraints.
  if (I.isComp() && I.resource() != ir::Resource::Any &&
      I.resource() != Def.Prim)
    return false;

  // Attributes: exact match, except holes, which bind and transfer.
  if (I.attrs().size() != Pat.attrs().size())
    return false;
  const std::vector<bool> *Holes =
      PatIndex < Def.Holes.size() ? &Def.Holes[PatIndex] : nullptr;
  for (size_t K = 0; K < Pat.attrs().size(); ++K) {
    bool IsHole = Holes && K < Holes->size() && (*Holes)[K];
    if (IsHole)
      HoleVals[{PatIndex, K}] = I.attrs()[K];
    else if (I.attrs()[K] != Pat.attrs()[K])
      return false;
  }

  Covered.push_back(NodeId);

  const std::vector<size_t> &Operands = G.node(NodeId).Operands;
  assert(Operands.size() == Pat.args().size() && "operand arity mismatch");

  auto TryOrder = [&](bool Swap) {
    std::map<std::string, size_t> BoundCopy = Bound;
    std::map<std::pair<size_t, size_t>, int64_t> HoleCopy = HoleVals;
    std::vector<size_t> CoveredCopy = Covered;
    bool Ok = true;
    for (size_t K = 0; K < Operands.size(); ++K) {
      size_t OperandIndex = Swap ? (K < 2 ? 1 - K : K) : K;
      if (!matchOperand(Def, Pat.args()[K], Operands[OperandIndex],
                        BoundCopy, HoleCopy, CoveredCopy)) {
        Ok = false;
        break;
      }
    }
    if (Ok) {
      Bound = std::move(BoundCopy);
      HoleVals = std::move(HoleCopy);
      Covered = std::move(CoveredCopy);
    }
    return Ok;
  };

  if (TryOrder(/*Swap=*/false))
    return true;
  if (I.isComp() && ir::isCommutative(I.compOp()) && Operands.size() == 2)
    return TryOrder(/*Swap=*/true);
  return false;
}

bool Selector::matchDef(const tdl::TargetDef &Def, size_t Root, Match &Out) {
  const ir::Instr *Pat = patternRoot(Def);
  size_t PatIndex = 0;
  for (size_t I = 0; I < Def.Body.size(); ++I)
    if (&Def.Body[I] == Pat)
      PatIndex = I;
  std::map<std::string, size_t> Bound;
  std::map<std::pair<size_t, size_t>, int64_t> HoleVals;
  std::vector<size_t> Covered;
  Bound[Def.Output.Name] = Root;
  if (!matchInstr(Def, *Pat, PatIndex, Root, Bound, HoleVals, Covered))
    return false;

  Out.Def = &Def;
  Out.Covered = std::move(Covered);
  Out.InputNodes.clear();
  for (const ir::Port &P : Def.Inputs) {
    auto It = Bound.find(P.Name);
    if (It == Bound.end())
      return false; // input never reached (cannot happen: inputs are used)
    // Port types were already enforced structurally for covered operands,
    // but free bindings still need a type check. Node ids are ValueIds,
    // so the graph's def-use analysis answers directly.
    ir::Type NodeType =
        G.defUse().typeOfId(static_cast<ir::ValueId>(It->second));
    if (!(NodeType == P.Ty))
      return false;
    // A compute node consumed inside the tile cannot simultaneously feed
    // one of its input ports: it would never be materialized. The root is
    // exempt: binding an input to the tile's own result is the legal
    // register self-reference (Figure 12b), and the result name exists.
    if (G.isComp(It->second) && It->second != Root)
      for (size_t C : Out.Covered)
        if (C == It->second)
          return false;
    Out.InputNodes.push_back(It->second);
  }
  // Flatten hole values in (body instruction, attribute) order.
  Out.HoleValues.clear();
  for (size_t I = 0; I < Def.Body.size(); ++I) {
    if (I >= Def.Holes.size())
      continue;
    for (size_t K = 0; K < Def.Holes[I].size(); ++K)
      if (Def.Holes[I][K]) {
        auto It = HoleVals.find({I, K});
        assert(It != HoleVals.end() && "hole not bound during match");
        Out.HoleValues.push_back(It->second);
      }
  }
  return true;
}

Result<Cost> Selector::solve(size_t NodeId) {
  if (Best[NodeId])
    return Best[NodeId]->first;

  const ir::Instr &I = G.instrOf(NodeId);
  assert(I.isComp() && "solving a non-compute node");

  bool Found = false;
  Cost BestCost;
  Match BestMatch;
  unsigned Candidates = 0, Matched = 0;
  auto DefsIt = DefsByOp.find(I.compOp());
  if (DefsIt != DefsByOp.end()) {
    Candidates = static_cast<unsigned>(DefsIt->second.size());
    for (const tdl::TargetDef *Def : DefsIt->second) {
      Match M;
      if (!matchDef(*Def, NodeId, M))
        continue;
      ++Matched;
      Cost Total{Def->Area, Def->Latency};
      bool SubOk = true;
      std::set<size_t> CoveredSet(M.Covered.begin(), M.Covered.end());
      for (size_t Input : M.InputNodes) {
        // Internal compute bindings need their own cover; inputs, roots,
        // and wire nodes are materialized already.
        if (!G.isComp(Input) || G.node(Input).IsRoot ||
            CoveredSet.count(Input))
          continue;
        Result<Cost> Sub = solve(Input);
        if (!Sub) {
          SubOk = false;
          break;
        }
        Total = Total + Sub.value();
      }
      if (!SubOk)
        continue;
      if (!Found || Total < BestCost) {
        Found = true;
        BestCost = Total;
        BestMatch = std::move(M);
      }
    }
  }
  if (!Found) {
    std::string Where = I.str();
    if (I.resource() != ir::Resource::Any)
      return fail<Cost>("no '" + std::string(ir::resourceName(I.resource())) +
                        "' instruction on target '" + Target.name() +
                        "' can implement '" + Where +
                        "'; the resource constraint is unsatisfiable");
    return fail<Cost>("no instruction on target '" + Target.name() +
                      "' can implement '" + Where + "'");
  }
  // Pattern coverage records every win, whether or not remarks are on.
  Ctx.coverage().hit("isel.pattern", BestMatch.Def->Name);
  // Why this tile: the chosen pattern, what it costs, and how contested
  // the decision was (rejected = matched alternatives that lost on cost).
  if (Ctx.remarksEnabled())
    obs::Remark(Ctx, "isel", "pattern")
        .instr(I.dst())
        .message("covered with '" + BestMatch.Def->Name + "' on " +
                 std::string(ir::resourceName(BestMatch.Def->Prim)) + " (" +
                 std::to_string(Matched) + " of " +
                 std::to_string(Candidates) + " candidate tiles matched)")
        .arg("pattern", BestMatch.Def->Name)
        .arg("prim", ir::resourceName(BestMatch.Def->Prim))
        .arg("cost_area", BestCost.Area)
        .arg("cost_latency", BestCost.Latency)
        .arg("candidates", Candidates)
        .arg("matched", Matched)
        .arg("rejected", Matched ? Matched - 1 : 0);
  Best[NodeId].emplace(BestCost, std::move(BestMatch));
  return BestCost;
}

void Selector::emit(size_t NodeId, rasm::AsmProgram &Prog,
                    std::set<size_t> &Emitted) {
  if (Emitted.count(NodeId))
    return;
  Emitted.insert(NodeId);
  const Match &M = Best[NodeId]->second;
  std::set<size_t> CoveredSet(M.Covered.begin(), M.Covered.end());

  std::vector<std::string> Args;
  for (size_t Input : M.InputNodes) {
    // Materialize internal compute bindings first.
    if (G.isComp(Input) && !G.node(Input).IsRoot && !CoveredSet.count(Input))
      emit(Input, Prog, Emitted);
    Args.push_back(G.node(Input).Name);
  }
  const ir::Instr &I = G.instrOf(NodeId);
  rasm::Loc Location{M.Def->Prim, rasm::Coord::wild(), rasm::Coord::wild()};
  Prog.addInstr(rasm::AsmInstr::makeOp(I.dst(), I.type(), M.Def->Name,
                                       std::move(Args), std::move(Location),
                                       M.HoleValues));
}

Result<rasm::AsmProgram> Selector::run(SelectionStats *Stats) {
  using ProgT = rasm::AsmProgram;
  const ir::Function &Fn = G.function();
  rasm::AsmProgram Prog(Fn.name());
  Prog.inputs() = Fn.inputs();
  Prog.outputs() = Fn.outputs();

  // Wire instructions pass through unchanged (dead ones pruned below).
  for (const ir::Instr &I : Fn.body())
    if (I.isWire())
      Prog.addInstr(rasm::AsmInstr::makeWire(I.dst(), I.type(), I.wireOp(),
                                             I.attrs(), I.args()));

  // Cover every tree.
  {
    obs::Counter &Trees = Ctx.counter("isel.trees_covered");
    obs::Span Sp(Ctx, "isel.tree_cover");
    Sp.arg("trees", static_cast<uint64_t>(G.roots().size()));
    for (size_t Root : G.roots()) {
      if (Result<Cost> C = solve(Root); !C)
        return fail<ProgT>(C.error());
      ++Trees;
    }
  }

  std::set<size_t> Emitted;
  for (size_t Root : G.roots())
    emit(Root, Prog, Emitted);

  // Prune wire instructions whose results are never referenced, chasing
  // use counts down dead wire chains to their fixed point.
  {
    const ir::DefUse &DU = Prog.defUse(Ctx);
    std::vector<uint32_t> Count(DU.numValues());
    for (size_t Id = 0; Id < Count.size(); ++Id)
      Count[Id] = DU.useCount(static_cast<ir::ValueId>(Id));
    std::vector<uint8_t> Removed(Prog.body().size(), 0);
    std::vector<size_t> Work;
    for (size_t I = 0; I < Prog.body().size(); ++I)
      if (Prog.body()[I].isWire() && Count[DU.dstIdOf(I)] == 0)
        Work.push_back(I);
    while (!Work.empty()) {
      size_t I = Work.back();
      Work.pop_back();
      if (Removed[I])
        continue;
      Removed[I] = 1;
      for (ir::ValueId Arg : DU.argIdsOf(I)) {
        if (Arg == ir::InvalidValueId || --Count[Arg] != 0)
          continue;
        uint32_t Def = DU.defIndexOf(Arg);
        if (Def != ir::DefUse::NoDef && Prog.body()[Def].isWire())
          Work.push_back(Def);
      }
    }
    size_t Before = Prog.body().size();
    std::vector<rasm::AsmInstr> Kept;
    Kept.reserve(Before);
    for (size_t I = 0; I < Before; ++I)
      if (!Removed[I])
        Kept.push_back(std::move(Prog.body()[I]));
    Prog.body() = std::move(Kept);
    if (Prog.body().size() != Before)
      Prog.invalidateDefUse(Ctx);
  }

  if (Stats) {
    *Stats = SelectionStats();
    Stats->NumTrees = static_cast<unsigned>(G.roots().size());
    for (const rasm::AsmInstr &I : Prog.body())
      if (I.isWire())
        ++Stats->NumWire;
      else
        ++Stats->NumAsmOps;
    for (size_t Id : Emitted) {
      const auto &Entry = *Best[Id];
      Stats->TotalArea += Entry.second.Def->Area;
      Stats->TotalLatency += Entry.second.Def->Latency;
    }
  }
  return Prog;
}

} // namespace

Result<rasm::AsmProgram> reticle::isel::select(const ir::Function &Fn,
                                               const tdl::Target &Target,
                                               SelectionStats *Stats,
                                               const obs::Context &Ctx) {
  ++Ctx.counter("isel.selects");
  obs::Span Sp(Ctx, "isel.select");
  Sp.arg("fn", Fn.name());
  Result<Dfg> G = Dfg::build(Fn, Ctx);
  if (!G)
    return fail<rasm::AsmProgram>(G.error());
  recordIrCoverage(Fn, Ctx);
  Selector S(G.value(), Target, Ctx);
  Result<rasm::AsmProgram> Prog = S.run(Stats);
  if (Prog)
    Sp.arg("asm_ops", static_cast<uint64_t>(Prog.value().body().size()));
  return Prog;
}
