//===- synth/Synth.cpp - Baseline behavioral toolchain ---------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "synth/Synth.h"

#include "aig/Aig.h"
#include "aig/Mapper.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

using namespace reticle;
using namespace reticle::synth;
using aig::Aig;
using aig::Lit;
using aig::Word;
using ir::CompOp;
using ir::Instr;
using ir::WireOp;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// How the heuristic binder treats each instruction.
enum class Binding : uint8_t {
  Logic,    ///< bit-blasted into the AIG
  Dsp,      ///< some or all lanes on scalar DSPs (see DspLanes)
  FusedMul, ///< multiplication absorbed into a consumer's DSP post-adder
};

/// What a DSP-bound instruction computes.
enum class DspKind : uint8_t { Add, Sub, Mul, MulAdd };

/// Where a timing-graph node's output signal comes from.
struct PseudoInfo {
  enum class Kind : uint8_t { Pi, FfQ, DspOut } SrcKind = Kind::Pi;
  size_t Owner = 0; ///< input index or body index
};

class Synthesizer {
public:
  Synthesizer(const ir::Function &Fn, const SynthOptions &Options)
      : Fn(Fn), Options(Options) {}

  Result<SynthResult> run();

private:
  Status decideBindings();
  Status elaborate();
  Status buildNetlist(const aig::Mapping &Mapping);

  /// Timing-node id that drives the AIG literal \p L, or SIZE_MAX for
  /// constants.
  size_t sourceNode(Lit L, const aig::Mapping &Mapping) const;

  // Def/use facts come from the function's cached analysis (run() warms
  // it through ir::verify); function inputs report NoDef.
  uint32_t defIndexOf(const std::string &Var) const {
    ir::ValueId Id = DU->idOf(Var);
    return Id == ir::InvalidValueId ? ir::DefUse::NoDef
                                    : DU->defIndexOf(Id);
  }
  unsigned useCountOf(const std::string &Var) const {
    ir::ValueId Id = DU->idOf(Var);
    return Id == ir::InvalidValueId ? 0 : DU->useCount(Id);
  }
  Word &wordOf(const std::string &Var) { return Words[DU->idOf(Var)]; }

  const ir::Function &Fn;
  SynthOptions Options;
  SynthResult Out;
  /// The baseline runs outside any compile; its verifier and def-use
  /// activity records here and is dropped with the run.
  obs::Sinks Unobserved;
  std::shared_ptr<const ir::DefUse> DU;

  // Binding decisions.
  std::vector<Binding> Bindings;
  std::vector<unsigned> DspLanes;            // DSP-bound lane count
  std::map<size_t, DspKind> DspKindOf;       // body index -> kind
  std::map<size_t, size_t> FusedMulOf;       // muladd body idx -> mul idx

  // Elaboration. Words holds each value's AIG literals, by ValueId.
  Aig G;
  std::vector<Word> Words;
  std::vector<PseudoInfo> Pseudo; // per AIG input index

  // Netlist / timing.
  timing::TimingGraph Graph{timing::DelayModel()};
  std::map<size_t, size_t> NodeOfInput;  // fn input idx -> timing node
  std::map<size_t, size_t> NodeOfBody;   // body idx (reg/dsp) -> node
  std::map<uint32_t, size_t> NodeOfLut;  // aig root -> timing node
  std::vector<std::vector<size_t>> Chains; // cascade chains (body idxs)
  std::map<size_t, std::string> CascadePortOf; // consumer -> port variable
  std::map<size_t, size_t> AbsorbedRegOf; // reg body idx -> DSP body idx
  std::set<size_t> DspWithReg;            // DSP ops using PREG
};

Status Synthesizer::decideBindings() {
  const std::vector<Instr> &Body = Fn.body();
  Bindings.assign(Body.size(), Binding::Logic);

  auto IsDspMul = [&](const Instr &I) {
    return I.isComp() && I.compOp() == CompOp::Mul && I.type().isInt() &&
           I.type().width() <= 18;
  };

  // Fusion pre-pass: an add with a single-use DSP-eligible mul operand
  // absorbs it into the DSP post-adder (both modes; standard inference).
  std::set<size_t> Fused;
  for (size_t I = 0; I < Body.size(); ++I) {
    const Instr &Add = Body[I];
    if (!Add.isComp() || Add.compOp() != CompOp::Add)
      continue;
    for (const std::string &Arg : Add.args()) {
      uint32_t Def = defIndexOf(Arg);
      if (Def == ir::DefUse::NoDef || Fused.count(Def))
        continue;
      const Instr &Mul = Body[Def];
      if (!IsDspMul(Mul) || useCountOf(Arg) != 1 ||
          !(Mul.type() == Add.type()))
        continue;
      FusedMulOf[I] = Def;
      Fused.insert(Def);
      break;
    }
  }

  // Budgeted binding in program order. The behavioral flow scalarizes
  // vector operations, so allocation is per lane and exhaustion falls
  // back lane by lane — silently (Section 2's second challenge).
  DspLanes.assign(Body.size(), 0);
  size_t Budget = Options.Dev.numDsps();
  for (size_t I = 0; I < Body.size(); ++I) {
    const Instr &Instr = Body[I];
    if (!Instr.isComp())
      continue;
    unsigned Lanes = Instr.type().lanes();
    auto TakeBudget = [&](DspKind Kind, bool AllOrNothing) {
      unsigned Granted = static_cast<unsigned>(
          std::min<size_t>(Budget, Lanes));
      if (AllOrNothing && Granted < Lanes)
        Granted = 0;
      Out.DspFallbacks += Lanes - Granted;
      if (Granted == 0)
        return false;
      Budget -= Granted;
      Bindings[I] = Binding::Dsp;
      DspLanes[I] = Granted;
      DspKindOf[I] = Kind;
      return true;
    };
    if (FusedMulOf.count(I)) {
      // Fusion targets are scalar mul+add pairs: all or nothing.
      if (TakeBudget(DspKind::MulAdd, /*AllOrNothing=*/true)) {
        Bindings[FusedMulOf[I]] = Binding::FusedMul;
      } else {
        FusedMulOf.erase(I); // un-fuse: both fall back to logic
      }
      continue;
    }
    if (Fused.count(I))
      continue; // decided by its consumer
    if (IsDspMul(Instr)) {
      TakeBudget(DspKind::Mul, /*AllOrNothing=*/false);
      continue;
    }
    if (Options.SynthMode == Mode::Hint && Instr.type().isInt() &&
        Instr.type().width() <= 48 &&
        (Instr.compOp() == CompOp::Add || Instr.compOp() == CompOp::Sub))
      TakeBudget(Instr.compOp() == CompOp::Add ? DspKind::Add
                                               : DspKind::Sub,
                 /*AllOrNothing=*/false);
  }
  // A fused mul whose consumer lost its budget keeps Logic binding; make
  // sure bookkeeping is consistent.
  for ([[maybe_unused]] auto &[AddIdx, MulIdx] : FusedMulOf)
    assert(Bindings[MulIdx] == Binding::FusedMul && "fusion out of sync");

  // Register absorption: a register fed only by a fully DSP-bound
  // operation retimes into the DSP's PREG (standard vendor behavior).
  for (size_t I = 0; I < Body.size(); ++I) {
    if (!Body[I].isReg())
      continue;
    const std::string &Data = Body[I].args()[0];
    uint32_t DataDef = defIndexOf(Data);
    if (DataDef == ir::DefUse::NoDef || useCountOf(Data) != 1)
      continue;
    size_t Def = DataDef;
    if (Bindings[Def] != Binding::Dsp ||
        DspLanes[Def] != Body[Def].type().lanes() || DspWithReg.count(Def))
      continue;
    AbsorbedRegOf[I] = Def;
    DspWithReg.insert(Def);
  }

  // Cascade chains (Hint mode): muladd whose addend is another muladd's
  // single-use result, possibly through one pipeline register (absorbed
  // into the DSP's PREG by real toolchains).
  if (Options.SynthMode == Mode::Hint) {
    std::map<size_t, size_t> NextInChain; // producer -> consumer
    std::set<size_t> HasPredecessor;
    for (auto &[AddIdx, MulIdx] : FusedMulOf) {
      const Instr &Add = Fn.body()[AddIdx];
      for (const std::string &Arg : Add.args()) {
        uint32_t ArgDef = defIndexOf(Arg);
        if (ArgDef == ir::DefUse::NoDef || ArgDef == MulIdx)
          continue;
        size_t Producer = ArgDef;
        if (useCountOf(Arg) != 1)
          continue;
        if (Fn.body()[Producer].isReg()) {
          const std::string &Data = Fn.body()[Producer].args()[0];
          uint32_t Inner = defIndexOf(Data);
          if (Inner == ir::DefUse::NoDef || useCountOf(Data) != 1)
            continue;
          Producer = Inner;
        }
        if (FusedMulOf.count(Producer) &&
            Bindings[Producer] == Binding::Dsp) {
          NextInChain[Producer] = AddIdx;
          HasPredecessor.insert(AddIdx);
          CascadePortOf[AddIdx] = Arg;
        }
      }
    }
    for (auto &[Head, Next] : NextInChain) {
      if (HasPredecessor.count(Head))
        continue;
      std::vector<size_t> Chain = {Head};
      for (auto It = NextInChain.find(Head); It != NextInChain.end();
           It = NextInChain.find(It->second))
        Chain.push_back(It->second);
      if (Chain.size() >= 2)
        Chains.push_back(std::move(Chain));
    }
    Out.CascadeChains = static_cast<unsigned>(Chains.size());
  }
  return Status::success();
}

Status Synthesizer::elaborate() {
  const std::vector<Instr> &Body = Fn.body();

  // Pseudo-inputs: primary inputs, register outputs, DSP outputs.
  for (size_t I = 0; I < Fn.inputs().size(); ++I) {
    const ir::Port &P = Fn.inputs()[I];
    Word W;
    for (unsigned B = 0; B < P.Ty.totalBits(); ++B) {
      W.push_back(G.addInput(P.Name + "[" + std::to_string(B) + "]"));
      Pseudo.push_back({PseudoInfo::Kind::Pi, I});
    }
    wordOf(P.Name) = std::move(W);
  }
  std::map<size_t, Word> DspPrefix; // DSP-bound lanes of partial bindings
  for (size_t I = 0; I < Body.size(); ++I) {
    if (!Body[I].isReg() && Bindings[I] != Binding::Dsp)
      continue;
    bool IsReg = Body[I].isReg();
    if (!IsReg && DspWithReg.count(I))
      continue; // observable only through its absorbed register
    if (IsReg && AbsorbedRegOf.count(I)) {
      // The register output is the DSP's registered P output.
      size_t DspIdx = AbsorbedRegOf.at(I);
      Word W;
      for (unsigned B = 0; B < Body[I].type().totalBits(); ++B) {
        W.push_back(G.addInput(Body[I].dst() + "[" + std::to_string(B) +
                               "]"));
        Pseudo.push_back({PseudoInfo::Kind::DspOut, DspIdx});
      }
      // The DSP's pre-register value is unobservable (single use).
      wordOf(Body[DspIdx].dst()) = W;
      wordOf(Body[I].dst()) = std::move(W);
      continue;
    }
    unsigned Bits = IsReg ? Body[I].type().totalBits()
                          : DspLanes[I] * Body[I].type().width();
    Word W;
    for (unsigned B = 0; B < Bits; ++B) {
      W.push_back(G.addInput(Body[I].dst() + "[" + std::to_string(B) +
                             "]"));
      Pseudo.push_back({IsReg ? PseudoInfo::Kind::FfQ
                              : PseudoInfo::Kind::DspOut,
                        I});
    }
    if (IsReg || DspLanes[I] == Body[I].type().lanes())
      wordOf(Body[I].dst()) = std::move(W);
    else
      DspPrefix[I] = std::move(W); // logic lanes appended during blasting
  }

  // Combinational logic in dependency order.
  Result<std::vector<size_t>> OrderOr =
      ir::topoOrder(Fn, Unobserved.context());
  if (!OrderOr)
    return Status::failure(OrderOr.error());
  for (size_t Index : OrderOr.value()) {
    const Instr &I = Body[Index];
    bool PartialDsp = Bindings[Index] == Binding::Dsp &&
                      DspPrefix.count(Index);
    if (Bindings[Index] != Binding::Logic && !PartialDsp)
      continue; // DSP results are pseudo-inputs; fused muls are absorbed
    unsigned W = I.type().width();
    unsigned Lanes = I.type().lanes();
    unsigned FirstLane = PartialDsp ? DspLanes[Index] : 0;
    auto LaneOf = [&](const std::string &Var, unsigned L,
                      unsigned LaneWidth) {
      const Word &Full = wordOf(Var);
      return Word(Full.begin() + L * LaneWidth,
                  Full.begin() + (L + 1) * LaneWidth);
    };
    Word Out;
    if (I.isWire()) {
      switch (I.wireOp()) {
      case WireOp::Const: {
        for (unsigned L = 0; L < Lanes; ++L) {
          int64_t V = I.attrs().size() == 1 ? I.attrs()[0] : I.attrs()[L];
          Word Lane = aig::blastConst(G, static_cast<uint64_t>(V), W);
          Out.insert(Out.end(), Lane.begin(), Lane.end());
        }
        break;
      }
      case WireOp::Id:
        Out = wordOf(I.args()[0]);
        break;
      case WireOp::Slice: {
        const Word &Src = wordOf(I.args()[0]);
        size_t Off = static_cast<size_t>(I.attrs()[0]);
        Out.assign(Src.begin() + Off,
                   Src.begin() + Off + I.type().totalBits());
        break;
      }
      case WireOp::Cat: {
        Out = wordOf(I.args()[0]);
        const Word &Hi = wordOf(I.args()[1]);
        Out.insert(Out.end(), Hi.begin(), Hi.end());
        break;
      }
      case WireOp::Sll:
      case WireOp::Srl:
      case WireOp::Sra: {
        unsigned K = static_cast<unsigned>(I.attrs()[0]);
        for (unsigned L = 0; L < Lanes; ++L) {
          Word Lane = LaneOf(I.args()[0], L, W);
          Word Res(W, Lit::constFalse());
          for (unsigned B = 0; B < W; ++B) {
            if (I.wireOp() == WireOp::Sll) {
              if (B >= K)
                Res[B] = Lane[B - K];
            } else if (I.wireOp() == WireOp::Srl) {
              if (B + K < W)
                Res[B] = Lane[B + K];
            } else {
              Res[B] = Lane[std::min(B + K, W - 1)];
            }
          }
          Out.insert(Out.end(), Res.begin(), Res.end());
        }
        break;
      }
      }
      wordOf(I.dst()) = std::move(Out);
      continue;
    }
    // Compute instructions.
    switch (I.compOp()) {
    case CompOp::Add:
    case CompOp::Sub:
    case CompOp::Mul:
    case CompOp::And:
    case CompOp::Or:
    case CompOp::Xor: {
      if (PartialDsp)
        Out = DspPrefix.at(Index); // DSP lanes first, in lane order
      for (unsigned L = FirstLane; L < Lanes; ++L) {
        Word A = LaneOf(I.args()[0], L, W);
        Word B = LaneOf(I.args()[1], L, W);
        Word Res;
        switch (I.compOp()) {
        case CompOp::Add:
          Res = aig::blastAdd(G, A, B);
          break;
        case CompOp::Sub:
          Res = aig::blastSub(G, A, B);
          break;
        case CompOp::Mul:
          Res = aig::blastMul(G, A, B);
          break;
        case CompOp::And:
          Res = aig::blastAnd(G, A, B);
          break;
        case CompOp::Or:
          Res = aig::blastOr(G, A, B);
          break;
        default:
          Res = aig::blastXor(G, A, B);
          break;
        }
        Out.insert(Out.end(), Res.begin(), Res.end());
      }
      break;
    }
    case CompOp::Not:
      Out = aig::blastNot(G, wordOf(I.args()[0]));
      break;
    case CompOp::Eq:
      Out = {aig::blastEq(G, wordOf(I.args()[0]),
                          wordOf(I.args()[1]))};
      break;
    case CompOp::Neq:
      Out = {~aig::blastEq(G, wordOf(I.args()[0]),
                           wordOf(I.args()[1]))};
      break;
    case CompOp::Lt:
      Out = {aig::blastLtSigned(G, wordOf(I.args()[0]),
                                wordOf(I.args()[1]))};
      break;
    case CompOp::Gt:
      Out = {aig::blastLtSigned(G, wordOf(I.args()[1]),
                                wordOf(I.args()[0]))};
      break;
    case CompOp::Le:
      Out = {~aig::blastLtSigned(G, wordOf(I.args()[1]),
                                 wordOf(I.args()[0]))};
      break;
    case CompOp::Ge:
      Out = {~aig::blastLtSigned(G, wordOf(I.args()[0]),
                                 wordOf(I.args()[1]))};
      break;
    case CompOp::Mux:
      Out = aig::blastMux(G, wordOf(I.args()[0])[0],
                          wordOf(I.args()[1]), wordOf(I.args()[2]));
      break;
    case CompOp::Reg:
      return Status::failure("registers cannot be Logic-bound");
    }
    wordOf(I.dst()) = std::move(Out);
  }

  // Register the AIG outputs that anchor mapping: flip-flop D and enable
  // bits, DSP input ports, and primary outputs.
  auto AddWordOutputs = [&](const std::string &Tag, const Word &W) {
    for (size_t B = 0; B < W.size(); ++B)
      G.addOutput(Tag + "[" + std::to_string(B) + "]", W[B]);
  };
  for (size_t I = 0; I < Body.size(); ++I) {
    const Instr &Instr = Body[I];
    if (Instr.isReg()) {
      if (AbsorbedRegOf.count(I)) {
        // Only the clock enable reaches the DSP's CEP pin.
        AddWordOutputs(Instr.dst() + ".ce", wordOf(Instr.args()[1]));
        continue;
      }
      AddWordOutputs(Instr.dst() + ".d", wordOf(Instr.args()[0]));
      AddWordOutputs(Instr.dst() + ".en", wordOf(Instr.args()[1]));
      continue;
    }
    if (Bindings[I] != Binding::Dsp)
      continue;
    std::vector<std::string> Ports;
    if (auto It = FusedMulOf.find(I); It != FusedMulOf.end()) {
      const ir::Instr &Mul = Body[It->second];
      Ports = {Mul.args()[0], Mul.args()[1]};
      for (const std::string &Arg : Instr.args())
        if (Arg != Mul.dst())
          Ports.push_back(Arg);
    } else {
      Ports = Instr.args();
    }
    for (const std::string &Port : Ports)
      AddWordOutputs(Instr.dst() + "." + Port, wordOf(Port));
  }
  for (const ir::Port &P : Fn.outputs())
    AddWordOutputs("out." + P.Name, wordOf(P.Name));

  Out.AigAnds = G.numAnds();
  Out.AigDepth = G.depth();
  return Status::success();
}

size_t Synthesizer::sourceNode(Lit L, const aig::Mapping &Mapping) const {
  uint32_t Node = L.node();
  if (Node == 0)
    return SIZE_MAX; // constant
  if (G.isInput(Node)) {
    const PseudoInfo &Info = Pseudo[Node - 1];
    if (Info.SrcKind == PseudoInfo::Kind::Pi)
      return NodeOfInput.at(Info.Owner);
    return NodeOfBody.at(Info.Owner);
  }
  assert(Mapping.LutOfRoot.count(Node) && "consumed node was not mapped");
  return NodeOfLut.at(Node);
}

Status Synthesizer::buildNetlist(const aig::Mapping &Mapping) {
  Graph = timing::TimingGraph(Options.Delays);
  const std::vector<Instr> &Body = Fn.body();

  // Timing nodes for primary inputs.
  for (size_t I = 0; I < Fn.inputs().size(); ++I) {
    timing::TimingNode N;
    N.Name = Fn.inputs()[I].Name;
    NodeOfInput[I] = Graph.addNode(std::move(N));
  }
  // Registers and DSP operations.
  for (size_t I = 0; I < Body.size(); ++I) {
    if (Body[I].isReg()) {
      if (AbsorbedRegOf.count(I))
        continue; // lives inside its DSP's PREG
      timing::TimingNode N;
      N.Name = Body[I].dst();
      N.RegisteredOutput = true;
      NodeOfBody[I] = Graph.addNode(std::move(N));
      Out.Ffs += Body[I].type().totalBits();
      continue;
    }
    if (Bindings[I] != Binding::Dsp)
      continue;
    timing::TimingNode N;
    N.Name = Body[I].dst();
    N.RegisteredOutput = DspWithReg.count(I) > 0;
    switch (DspKindOf.at(I)) {
    case DspKind::Add:
    case DspKind::Sub:
      N.Delay = Options.Delays.DspAlu;
      break;
    case DspKind::Mul:
      N.Delay = Options.Delays.DspMul;
      break;
    case DspKind::MulAdd:
      N.Delay = Options.Delays.DspMulAdd;
      break;
    }
    Out.Dsps += DspLanes[I];
    NodeOfBody[I] = Graph.addNode(std::move(N));
  }
  // Mapped LUTs.
  for (const aig::MappedLut &L : Mapping.Luts) {
    timing::TimingNode N;
    N.Name = "lut" + std::to_string(L.Root);
    N.Delay = Options.Delays.LutLogic;
    NodeOfLut[L.Root] = Graph.addNode(std::move(N));
  }
  Out.Luts = static_cast<unsigned>(Mapping.Luts.size());
  Out.LutDepth = Mapping.Depth;

  // Edges: LUT leaves.
  for (const aig::MappedLut &L : Mapping.Luts)
    for (uint32_t Leaf : L.Leaves) {
      size_t Src = sourceNode(Lit(Leaf, false), Mapping);
      if (Src != SIZE_MAX)
        Graph.addEdge(Src, NodeOfLut.at(L.Root));
    }
  // Edges: register D/enable and DSP ports.
  auto AddWordEdges = [&](const Word &W, size_t To, bool Cascade) {
    std::set<size_t> Seen;
    for (Lit L : W) {
      size_t Src = sourceNode(L, Mapping);
      if (Src != SIZE_MAX && Seen.insert(Src).second)
        Graph.addEdge(Src, To, Cascade);
    }
  };
  for (size_t I = 0; I < Body.size(); ++I) {
    const Instr &Instr = Body[I];
    if (Instr.isReg()) {
      if (auto It = AbsorbedRegOf.find(I); It != AbsorbedRegOf.end()) {
        // The enable reaches the DSP's CEP pin; the data path is internal.
        AddWordEdges(wordOf(Instr.args()[1]), NodeOfBody.at(It->second),
                     false);
        continue;
      }
      AddWordEdges(wordOf(Instr.args()[0]), NodeOfBody.at(I), false);
      AddWordEdges(wordOf(Instr.args()[1]), NodeOfBody.at(I), false);
      continue;
    }
    if (Bindings[I] != Binding::Dsp)
      continue;
    size_t To = NodeOfBody.at(I);
    auto PortIt = CascadePortOf.find(I);
    std::string PredDst = PortIt != CascadePortOf.end() ? PortIt->second
                                                        : std::string();
    std::vector<std::string> Ports;
    if (auto It = FusedMulOf.find(I); It != FusedMulOf.end()) {
      const ir::Instr &Mul = Body[It->second];
      Ports = {Mul.args()[0], Mul.args()[1]};
      for (const std::string &Arg : Instr.args())
        if (Arg != Mul.dst())
          Ports.push_back(Arg);
    } else {
      Ports = Instr.args();
    }
    for (const std::string &Port : Ports)
      AddWordEdges(wordOf(Port), To, Port == PredDst);
  }

  // --- Cells for annealing ---------------------------------------------
  std::vector<anneal::Cell> Cells;
  std::vector<size_t> CellOfNode(Graph.nodes().size(), SIZE_MAX);
  std::map<size_t, size_t> CellOfBody; // DSP body idx -> cell

  // DSP and FF cells (FFs pack 16 bits per slice cell; the first cell
  // position stands for the group).
  for (auto &[BodyIdx, NodeId] : NodeOfBody) {
    const Instr &Instr = Body[BodyIdx];
    if (Instr.isReg()) {
      anneal::Cell C;
      C.Name = Instr.dst();
      C.Kind = ir::Resource::Lut; // FFs live in LUT slices
      CellOfNode[NodeId] = Cells.size();
      Cells.push_back(std::move(C));
      continue;
    }
    unsigned Lanes = DspLanes[BodyIdx];
    anneal::Cell C;
    C.Name = Instr.dst();
    C.Kind = ir::Resource::Dsp;
    CellOfNode[NodeId] = Cells.size();
    CellOfBody[BodyIdx] = Cells.size();
    Cells.push_back(std::move(C));
    // Extra lanes of a scalarized vector op occupy further DSP cells that
    // share the timing node's placement influence.
    for (unsigned L = 1; L < Lanes; ++L) {
      anneal::Cell Extra;
      Extra.Name = Instr.dst() + "#" + std::to_string(L);
      Extra.Kind = ir::Resource::Dsp;
      Cells.push_back(std::move(Extra));
    }
  }
  // LUT slice cells: eight mapped LUTs per slice, in creation order.
  std::vector<size_t> SliceOfLut(Mapping.Luts.size());
  size_t NumLutSliceCells = (Mapping.Luts.size() + 7) / 8;
  std::vector<size_t> LutSliceCell(NumLutSliceCells);
  for (size_t S = 0; S < NumLutSliceCells; ++S) {
    anneal::Cell C;
    C.Name = "slice" + std::to_string(S);
    C.Kind = ir::Resource::Lut;
    LutSliceCell[S] = Cells.size();
    Cells.push_back(std::move(C));
  }
  for (size_t L = 0; L < Mapping.Luts.size(); ++L) {
    SliceOfLut[L] = L / 8;
    CellOfNode[NodeOfLut.at(Mapping.Luts[L].Root)] =
        LutSliceCell[L / 8];
  }

  // Nets: one star net per driver cell over its sink cells.
  std::map<size_t, std::set<size_t>> Star;
  for (size_t N = 0; N < Graph.nodes().size(); ++N)
    for (size_t F : Graph.nodes()[N].Fanin) {
      size_t A = CellOfNode[F], B = CellOfNode[N];
      if (A == SIZE_MAX || B == SIZE_MAX || A == B)
        continue;
      Star[A].insert(B);
    }
  std::vector<anneal::Net> Nets;
  for (auto &[Driver, Sinks] : Star) {
    anneal::Net Net;
    Net.Cells.push_back(Driver);
    Net.Cells.insert(Net.Cells.end(), Sinks.begin(), Sinks.end());
    Nets.push_back(std::move(Net));
  }

  auto PlaceStart = std::chrono::steady_clock::now();
  Result<anneal::AnnealResult> Placed =
      anneal::place(Cells, Nets, Options.Dev, Options.Anneal);
  Out.PlaceMs = msSince(PlaceStart);
  if (!Placed)
    return Status::failure(Placed.error());

  // Legalize cascade chains (Hint mode): a cascaded pair must sit in
  // vertically adjacent DSP slots, so each chain moves to a free column
  // segment and the displaced cells take over the vacated slots.
  if (!Chains.empty()) {
    std::vector<device::Slot> &SlotOf = Placed.value().SlotOf;
    std::map<device::Slot, size_t> CellAt;
    for (size_t C = 0; C < Cells.size(); ++C)
      if (Cells[C].Kind == ir::Resource::Dsp)
        CellAt[SlotOf[C]] = C;
    std::vector<unsigned> DspCols =
        Options.Dev.columnsOf(ir::Resource::Dsp);
    std::vector<unsigned> NextRow(DspCols.size(), 0);
    for (const std::vector<size_t> &Chain : Chains) {
      size_t Column = DspCols.size();
      for (size_t C = 0; C < DspCols.size(); ++C) {
        if (NextRow[C] + Chain.size() <=
            Options.Dev.columns()[DspCols[C]].Height) {
          Column = C;
          break;
        }
      }
      if (Column == DspCols.size())
        continue; // no room: the chain keeps general routing placement
      for (size_t K = 0; K < Chain.size(); ++K) {
        size_t Cell = CellOfBody.at(Chain[K]);
        device::Slot Target{DspCols[Column], NextRow[Column] + unsigned(K)};
        device::Slot Old = SlotOf[Cell];
        if (Target == Old)
          continue;
        auto It = CellAt.find(Target);
        if (It != CellAt.end()) {
          size_t Displaced = It->second;
          SlotOf[Displaced] = Old;
          CellAt[Old] = Displaced;
        } else {
          CellAt.erase(Old);
        }
        SlotOf[Cell] = Target;
        CellAt[Target] = Cell;
      }
      NextRow[Column] += static_cast<unsigned>(Chain.size());
    }
  }

  // Positions flow back into the timing graph.
  for (size_t N = 0; N < Graph.nodes().size(); ++N) {
    size_t Cell = CellOfNode[N];
    if (Cell == SIZE_MAX)
      continue;
    const device::Slot &S = Placed.value().SlotOf[Cell];
    timing::TimingNode &Node = Graph.node(N);
    Node.HasPosition = true;
    Node.X = static_cast<int>(S.X);
    Node.Y = static_cast<int>(S.Y);
  }
  return Status::success();
}

Result<SynthResult> Synthesizer::run() {
  using ResultT = SynthResult;
  auto Total = std::chrono::steady_clock::now();
  if (Status S = ir::verify(Fn, Unobserved.context()); !S)
    return fail<ResultT>(S.error());
  // Verification warmed the function's analysis; share it for the whole
  // synthesis run and size the per-value AIG word table off it.
  DU = Fn.defUseShared(Unobserved.context());
  Words.resize(DU->numValues());

  auto Start = std::chrono::steady_clock::now();
  if (Status S = decideBindings(); !S)
    return fail<ResultT>(S.error());
  if (Status S = elaborate(); !S)
    return fail<ResultT>(S.error());
  Out.ElabMs = msSince(Start);

  Start = std::chrono::steady_clock::now();
  Result<aig::Mapping> Mapping = aig::mapAig(G, 6);
  if (!Mapping)
    return fail<ResultT>(Mapping.error());
  Out.MapMs = msSince(Start);

  if (Status S = buildNetlist(Mapping.value()); !S)
    return fail<ResultT>(S.error());

  Result<timing::TimingReport> Report = Graph.analyze();
  if (!Report)
    return fail<ResultT>(Report.error());
  Out.Timing = Report.take();
  Out.TotalMs = msSince(Total);
  return Out;
}

} // namespace

Result<SynthResult> reticle::synth::synthesize(const ir::Function &Fn,
                                               const SynthOptions &Options) {
  Synthesizer S(Fn, Options);
  return S.run();
}

verilog::Module reticle::synth::emitBehavioral(const ir::Function &Fn,
                                               Mode SynthMode) {
  using verilog::Dir;
  using verilog::Expr;
  verilog::Module M(Fn.name());
  if (SynthMode == Mode::Hint)
    M.addComment("(* use_dsp = \"yes\" *)");
  M.addPort(Dir::Input, "clock");
  for (const ir::Port &P : Fn.inputs())
    M.addPort(Dir::Input, P.Name,
              P.Ty.totalBits() > 1 ? P.Ty.totalBits() : 0);
  for (const ir::Port &P : Fn.outputs())
    M.addPort(Dir::Output, P.Name,
              P.Ty.totalBits() > 1 ? P.Ty.totalBits() : 0);

  std::set<std::string> PortNames = {"clock"};
  for (const ir::Port &P : Fn.inputs())
    PortNames.insert(P.Name);
  for (const ir::Port &P : Fn.outputs())
    PortNames.insert(P.Name);

  for (const Instr &I : Fn.body()) {
    if (PortNames.count(I.dst()))
      continue;
    if (I.isReg())
      M.addReg(I.dst(), I.type().totalBits() > 1 ? I.type().totalBits() : 0);
    else
      M.addWire(I.dst(),
                I.type().totalBits() > 1 ? I.type().totalBits() : 0);
  }

  // Behavioral statements: one per-lane assign per word operation (vector
  // semantics unroll, the "behavioral, scalar" shape of Figure 3/4).
  for (const Instr &I : Fn.body()) {
    unsigned W = I.type().width();
    unsigned Lanes = I.type().lanes();
    auto LaneExpr = [&](const std::string &Var, unsigned L) {
      if (Lanes == 1)
        return Expr::ref(Var);
      return Expr::range(Expr::ref(Var), L * W + W - 1, L * W);
    };
    if (I.isReg()) {
      verilog::Item &A = M.addAlwaysFF("clock");
      verilog::NonBlocking S;
      S.GuardName = I.args()[1];
      S.Lhs = Expr::ref(I.dst());
      S.Rhs = Expr::ref(I.args()[0]);
      A.Body.push_back(S);
      continue;
    }
    if (I.isWire() && I.wireOp() == WireOp::Const) {
      std::vector<Expr> Parts;
      for (unsigned L = Lanes; L-- > 0;) {
        int64_t V = I.attrs().size() == 1 ? I.attrs()[0] : I.attrs()[L];
        uint64_t Mask = W == 64 ? ~uint64_t(0) : ((uint64_t(1) << W) - 1);
        Parts.push_back(Expr::intLit(W, uint64_t(V) & Mask));
      }
      M.addAssign(Expr::ref(I.dst()),
                  Parts.size() == 1 ? Parts[0] : Expr::concat(Parts));
      continue;
    }
    const char *Op = nullptr;
    switch (I.isWire() ? CompOp::Add : I.compOp()) {
    case CompOp::Add:
      Op = "+";
      break;
    case CompOp::Sub:
      Op = "-";
      break;
    case CompOp::Mul:
      Op = "*";
      break;
    case CompOp::And:
      Op = "&";
      break;
    case CompOp::Or:
      Op = "|";
      break;
    case CompOp::Xor:
      Op = "^";
      break;
    case CompOp::Eq:
      Op = "==";
      break;
    case CompOp::Neq:
      Op = "!=";
      break;
    case CompOp::Lt:
      Op = "<";
      break;
    case CompOp::Gt:
      Op = ">";
      break;
    case CompOp::Le:
      Op = "<=";
      break;
    case CompOp::Ge:
      Op = ">=";
      break;
    default:
      break;
    }
    if (I.isWire()) {
      // Shifts, slices, and concatenations render as generic expressions.
      switch (I.wireOp()) {
      case WireOp::Id:
        M.addAssign(Expr::ref(I.dst()), Expr::ref(I.args()[0]));
        break;
      case WireOp::Sll:
        M.addAssign(Expr::ref(I.dst()),
                    Expr::binary("<<", Expr::ref(I.args()[0]),
                                 Expr::intLit(32, I.attrs()[0])));
        break;
      case WireOp::Srl:
      case WireOp::Sra:
        M.addAssign(Expr::ref(I.dst()),
                    Expr::binary(">>", Expr::ref(I.args()[0]),
                                 Expr::intLit(32, I.attrs()[0])));
        break;
      case WireOp::Slice:
        M.addAssign(Expr::ref(I.dst()),
                    Expr::range(Expr::ref(I.args()[0]),
                                unsigned(I.attrs()[0]) +
                                    I.type().totalBits() - 1,
                                unsigned(I.attrs()[0])));
        break;
      case WireOp::Cat:
        M.addAssign(Expr::ref(I.dst()),
                    Expr::concat({Expr::ref(I.args()[1]),
                                  Expr::ref(I.args()[0])}));
        break;
      case WireOp::Const:
        break; // handled above
      }
      continue;
    }
    if (I.compOp() == CompOp::Mux) {
      M.addAssign(Expr::ref(I.dst()),
                  Expr::ternary(Expr::ref(I.args()[0]),
                                Expr::ref(I.args()[1]),
                                Expr::ref(I.args()[2])));
      continue;
    }
    if (I.compOp() == CompOp::Not) {
      M.addAssign(Expr::ref(I.dst()),
                  Expr::unary("~", Expr::ref(I.args()[0])));
      continue;
    }
    assert(Op && "unhandled behavioral operation");
    for (unsigned L = 0; L < Lanes; ++L)
      M.addAssign(LaneExpr(I.dst(), L),
                  Expr::binary(Op, LaneExpr(I.args()[0], L),
                               LaneExpr(I.args()[1], L)));
  }
  return M;
}
