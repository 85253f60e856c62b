//===- codegen/NetlistSim.cpp - Gate-level netlist simulation --------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "codegen/NetlistSim.h"

#include "interp/Cycle.h"
#include "ir/DefUse.h"
#include "obs/Telemetry.h"

#include <stdexcept>

using namespace reticle;
using namespace reticle::codegen;
using verilog::Expr;
using verilog::Item;
using verilog::Module;

namespace {

using Bits = std::vector<bool>;

/// All signal values, as flattened bit vectors indexed by interned id.
class SignalTable {
public:
  Status declare(const std::string &Name, unsigned Width) {
    unsigned BitCount = Width == 0 ? 1 : Width;
    ir::ValueId Id = Names.intern(Name);
    if (Id != Table.size())
      return Status::failure("duplicate signal '" + Name + "'");
    Table.emplace_back(BitCount, false);
    return Status::success();
  }
  bool exists(const std::string &Name) const {
    return Names.lookup(Name) != ir::InvalidValueId;
  }
  Bits &get(const std::string &Name) { return Table[idOf(Name)]; }
  const Bits &get(const std::string &Name) const { return Table[idOf(Name)]; }

  /// Id-based access: names resolve to ids once per run, hot paths index
  /// the flat table directly.
  ir::ValueId lookup(const std::string &Name) const {
    return Names.lookup(Name);
  }
  size_t size() const { return Table.size(); }
  const std::string &name(ir::ValueId Id) const { return Names.name(Id); }
  Bits &at(ir::ValueId Id) { return Table[Id]; }
  const Bits &at(ir::ValueId Id) const { return Table[Id]; }

private:
  ir::ValueId idOf(const std::string &Name) const {
    ir::ValueId Id = Names.lookup(Name);
    if (Id == ir::InvalidValueId)
      throw std::out_of_range("no signal '" + Name + "'");
    return Id;
  }
  ir::NameInterner Names;
  std::vector<Bits> Table;
};

uint64_t toUint(const Bits &B) {
  uint64_t Out = 0;
  for (size_t I = 0; I < B.size() && I < 64; ++I)
    if (B[I])
      Out |= uint64_t(1) << I;
  return Out;
}

Bits fromUint(uint64_t Value, unsigned Width) {
  Bits Out(Width, false);
  for (unsigned I = 0; I < Width && I < 64; ++I)
    Out[I] = (Value >> I) & 1;
  return Out;
}

/// Interprets \p B as a signed two's-complement number. Signals wider
/// than 64 bits are a hard error rather than a silent truncation.
Result<int64_t> toSigned(const Bits &B) {
  unsigned W = static_cast<unsigned>(B.size());
  if (W > 64)
    return fail<int64_t>("DSP multiplier input wider than 64 bits (" +
                         std::to_string(W) + " bits)");
  uint64_t U = toUint(B);
  if (W >= 64)
    return static_cast<int64_t>(U);
  if (B.back())
    U |= ~((uint64_t(1) << W) - 1);
  return static_cast<int64_t>(U);
}

Result<Bits> evalExpr(const Expr &E, const SignalTable &Signals) {
  switch (E.kind()) {
  case Expr::Kind::Ref: {
    if (!Signals.exists(E.name()))
      return fail<Bits>("undriven reference '" + E.name() + "'");
    return Signals.get(E.name());
  }
  case Expr::Kind::IntLit:
    return fromUint(E.value(), E.width() == 0 ? 1 : E.width());
  case Expr::Kind::Index: {
    Result<Bits> Base = evalExpr(E.operands()[0], Signals);
    if (!Base)
      return Base;
    if (E.width() >= Base.value().size())
      return fail<Bits>("bit select out of range in '" + E.str() + "'");
    return Bits{Base.value()[E.width()]};
  }
  case Expr::Kind::Range: {
    Result<Bits> Base = evalExpr(E.operands()[0], Signals);
    if (!Base)
      return Base;
    if (E.width() >= Base.value().size() || E.lo() > E.width())
      return fail<Bits>("range select out of range in '" + E.str() + "'");
    return Bits(Base.value().begin() + E.lo(),
                Base.value().begin() + E.width() + 1);
  }
  case Expr::Kind::Concat: {
    // Operands are most-significant first.
    Bits Out;
    for (size_t I = E.operands().size(); I-- > 0;) {
      Result<Bits> Part = evalExpr(E.operands()[I], Signals);
      if (!Part)
        return Part;
      Out.insert(Out.end(), Part.value().begin(), Part.value().end());
    }
    return Out;
  }
  case Expr::Kind::Repeat: {
    Result<Bits> Part = evalExpr(E.operands()[0], Signals);
    if (!Part)
      return Part;
    Bits Out;
    for (unsigned I = 0; I < E.width(); ++I)
      Out.insert(Out.end(), Part.value().begin(), Part.value().end());
    return Out;
  }
  default:
    return fail<Bits>("expression form not supported by the netlist "
                      "simulator: " + E.str());
  }
}

/// Writes \p Value into the signal bits denoted by an lvalue expression.
/// Returns true when any bit changed.
Result<bool> storeLValue(const Expr &Lhs, const Bits &Value,
                         SignalTable &Signals) {
  const Expr *Base = &Lhs;
  unsigned Hi = 0, Lo = 0;
  bool Whole = true;
  if (Lhs.kind() == Expr::Kind::Index) {
    Base = &Lhs.operands()[0];
    Hi = Lo = Lhs.width();
    Whole = false;
  } else if (Lhs.kind() == Expr::Kind::Range) {
    Base = &Lhs.operands()[0];
    Hi = Lhs.width();
    Lo = Lhs.lo();
    Whole = false;
  }
  if (Base->kind() != Expr::Kind::Ref)
    return fail<bool>("unsupported assignment target: " + Lhs.str());
  if (!Signals.exists(Base->name()))
    return fail<bool>("assignment to undeclared signal '" + Base->name() +
                      "'");
  Bits &Target = Signals.get(Base->name());
  if (Whole) {
    Hi = static_cast<unsigned>(Target.size()) - 1;
    Lo = 0;
  }
  if (Hi >= Target.size() || Hi - Lo + 1 != Value.size())
    return fail<bool>("width mismatch assigning " + Lhs.str());
  bool Changed = false;
  for (unsigned I = 0; I < Value.size(); ++I) {
    if (Target[Lo + I] != Value[I]) {
      Target[Lo + I] = Value[I];
      Changed = true;
    }
  }
  return Changed;
}

uint64_t paramOf(const Item &I, const std::string &Name, uint64_t Default) {
  for (const auto &[PName, PExpr] : I.Params)
    if (PName == Name)
      return PExpr.value();
  return Default;
}

std::string paramStr(const Item &I, const std::string &Name,
                     const std::string &Default) {
  for (const auto &[PName, PExpr] : I.Params)
    if (PName == Name)
      return PExpr.name();
  return Default;
}

const Expr *connOf(const Item &I, const std::string &Port) {
  for (const auto &[PName, PExpr] : I.Connections)
    if (PName == Port)
      return &PExpr;
  return nullptr;
}

/// Sequential state carried across cycles.
struct SeqState {
  std::map<size_t, Bits> FdreQ; // item index -> 1 bit
  std::map<size_t, Bits> DspP;  // item index -> 48 bits
};

/// The DSP48E2 combinational P function for the configurations this
/// project emits.
Result<Bits> dspCombP(const Item &I, const SignalTable &Signals) {
  std::string Simd = paramStr(I, "USE_SIMD", "ONE48");
  bool Mult = paramStr(I, "USE_MULT", "NONE") == "MULTIPLY";
  uint64_t Opmode = paramOf(I, "OPMODE", 0x33);
  uint64_t Alumode = paramOf(I, "ALUMODE", 0);
  bool UsePcin = ((Opmode >> 4) & 0x3) == 0x1;

  // Z operand: C or the cascade input.
  Bits Z(48, false);
  if (UsePcin) {
    const Expr *Pcin = connOf(I, "PCIN");
    if (!Pcin)
      return fail<Bits>("DSP uses PCIN but has no connection");
    Result<Bits> V = evalExpr(*Pcin, Signals);
    if (!V)
      return V;
    Z = V.take();
  } else if (const Expr *C = connOf(I, "C")) {
    Result<Bits> V = evalExpr(*C, Signals);
    if (!V)
      return V;
    Z = V.take();
  }
  Z.resize(48, false);

  // X:Y operand: the multiplier result or A:B.
  Bits Xy(48, false);
  Result<Bits> A = evalExpr(*connOf(I, "A"), Signals);
  Result<Bits> B = evalExpr(*connOf(I, "B"), Signals);
  if (!A || !B)
    return fail<Bits>("DSP input evaluation failed");
  if (Mult) {
    Result<int64_t> As = toSigned(A.value());
    if (!As)
      return fail<Bits>(As.error());
    Result<int64_t> Bs = toSigned(B.value());
    if (!Bs)
      return fail<Bits>(Bs.error());
    int64_t Product = As.value() * Bs.value();
    Xy = fromUint(static_cast<uint64_t>(Product), 48);
  } else {
    // {A, B}: A in the top 30 bits, B in the low 18.
    Bits Ab = B.take();
    Ab.resize(18, false);
    Bits Atop = A.take();
    Atop.resize(30, false);
    Ab.insert(Ab.end(), Atop.begin(), Atop.end());
    Xy = std::move(Ab);
  }

  bool Subtract = Alumode == 0x3;
  unsigned Lanes = Simd == "FOUR12" ? 4 : (Simd == "TWO24" ? 2 : 1);
  unsigned FieldBits = 48 / Lanes;
  Bits P(48, false);
  for (unsigned L = 0; L < Lanes; ++L) {
    uint64_t Mask = ((uint64_t(1) << FieldBits) - 1);
    uint64_t Zv = 0, Xv = 0;
    for (unsigned K = 0; K < FieldBits; ++K) {
      if (Z[L * FieldBits + K])
        Zv |= uint64_t(1) << K;
      if (Xy[L * FieldBits + K])
        Xv |= uint64_t(1) << K;
    }
    uint64_t Res = (Subtract ? (Zv - Xv) : (Zv + Xv)) & Mask;
    for (unsigned K = 0; K < FieldBits; ++K)
      P[L * FieldBits + K] = (Res >> K) & 1;
  }
  return P;
}

/// Evaluates one combinational sweep over all items; registered elements
/// drive their stored state. Returns whether anything changed.
Result<bool> sweep(const Module &M, SignalTable &Signals,
                   const SeqState &State) {
  bool Changed = false;
  auto Store = [&](const Expr &Lhs, const Bits &Value) -> Status {
    Result<bool> R = storeLValue(Lhs, Value, Signals);
    if (!R)
      return Status::failure(R.error());
    Changed = Changed || R.value();
    return Status::success();
  };

  const std::vector<Item> &Items = M.items();
  for (size_t Index = 0; Index < Items.size(); ++Index) {
    const Item &I = Items[Index];
    switch (I.ItemKind) {
    case Item::Kind::Assign: {
      Result<Bits> V = evalExpr(I.Rhs, Signals);
      if (!V)
        return fail<bool>(V.error());
      if (Status S = Store(I.Lhs, V.value()); !S)
        return fail<bool>(S.error());
      break;
    }
    case Item::Kind::Instance: {
      if (I.ModuleName.rfind("LUT", 0) == 0) {
        unsigned K = static_cast<unsigned>(I.ModuleName[3] - '0');
        uint64_t Init = paramOf(I, "INIT", 0);
        unsigned Minterm = 0;
        for (unsigned P = 0; P < K; ++P) {
          const Expr *In = connOf(I, "I" + std::to_string(P));
          if (!In)
            return fail<bool>("LUT missing input I" + std::to_string(P));
          Result<Bits> V = evalExpr(*In, Signals);
          if (!V)
            return fail<bool>(V.error());
          if (V.value()[0])
            Minterm |= 1u << P;
        }
        Bits Out{((Init >> Minterm) & 1) != 0};
        if (Status S = Store(*connOf(I, "O"), Out); !S)
          return fail<bool>(S.error());
        break;
      }
      if (I.ModuleName == "CARRY8") {
        Result<Bits> S = evalExpr(*connOf(I, "S"), Signals);
        Result<Bits> Di = evalExpr(*connOf(I, "DI"), Signals);
        Result<Bits> Ci = evalExpr(*connOf(I, "CI"), Signals);
        if (!S || !Di || !Ci)
          return fail<bool>("CARRY8 input evaluation failed");
        Bits O(8, false), Co(8, false);
        bool Carry = Ci.value()[0];
        for (unsigned B = 0; B < 8; ++B) {
          bool Prop = S.value()[B];
          O[B] = Prop ^ Carry;
          Carry = Prop ? Carry : Di.value()[B];
          Co[B] = Carry;
        }
        if (Status St = Store(*connOf(I, "O"), O); !St)
          return fail<bool>(St.error());
        if (Status St = Store(*connOf(I, "CO"), Co); !St)
          return fail<bool>(St.error());
        break;
      }
      if (I.ModuleName == "FDRE") {
        // Output the stored state; the edge update happens separately.
        if (Status St = Store(*connOf(I, "Q"), State.FdreQ.at(Index)); !St)
          return fail<bool>(St.error());
        break;
      }
      if (I.ModuleName == "DSP48E2") {
        bool Preg = paramOf(I, "PREG", 0) != 0;
        Bits P;
        if (Preg) {
          P = State.DspP.at(Index);
        } else {
          Result<Bits> Comb = dspCombP(I, Signals);
          if (!Comb)
            return fail<bool>(Comb.error());
          P = Comb.take();
        }
        if (const Expr *Pout = connOf(I, "P"))
          if (Status St = Store(*Pout, P); !St)
            return fail<bool>(St.error());
        if (const Expr *Pcout = connOf(I, "PCOUT"))
          if (Status St = Store(*Pcout, P); !St)
            return fail<bool>(St.error());
        break;
      }
      return fail<bool>("unknown primitive '" + I.ModuleName + "'");
    }
    default:
      break; // wires, comments
    }
  }
  return Changed;
}

} // namespace

Result<interp::Trace> reticle::codegen::simulate(const Module &M,
                                                 const interp::Trace &Input,
                                                 const obs::Context &Ctx) {
  return simulate(M, Input, nullptr, Ctx);
}

Result<interp::Trace> reticle::codegen::simulate(const Module &M,
                                                 const interp::Trace &Input,
                                                 sim::WaveSink *Wave,
                                                 const obs::Context &Ctx) {
  obs::Span Sp(Ctx, "sim.simulate");
  Sp.arg("module", M.name());
  Sp.arg("cycles", static_cast<uint64_t>(Input.size()));
  using TraceT = interp::Trace;
  SignalTable Signals;
  auto WidthOf = [](const verilog::Port &P) {
    return P.Width == 0 ? 1u : P.Width;
  };
  // Ports and internal signals resolve to table ids once per run; the
  // shared binder/prototype do the per-cycle merge walk and cloning.
  struct BoundPort {
    const verilog::Port *P;
    ir::ValueId Id;
    unsigned Width;
  };
  std::vector<BoundPort> Inputs, Outputs;
  for (const verilog::Port &P : M.ports()) {
    if (Status S = Signals.declare(P.Name, P.Width); !S)
      return fail<TraceT>(S.error());
    if (P.Name == "clock")
      continue;
    BoundPort B{&P, Signals.lookup(P.Name), WidthOf(P)};
    (P.Direction == verilog::Dir::Input ? Inputs : Outputs).push_back(B);
  }
  for (const Item &I : M.items())
    if (I.ItemKind == Item::Kind::Wire || I.ItemKind == Item::Kind::Reg)
      if (Status S = Signals.declare(I.Name, I.Width); !S)
        return fail<TraceT>(S.error());

  sim::InputBinder Binder;
  for (unsigned K = 0; K < Inputs.size(); ++K)
    Binder.add(Inputs[K].P->Name, K);
  Binder.seal();

  sim::OutputProto Proto;
  std::vector<std::pair<ir::ValueId, ir::Type>> OutSlots;
  OutSlots.reserve(Outputs.size());
  for (const BoundPort &B : Outputs) {
    unsigned W = B.Width;
    // Ports wider than 64 bits (flattened vectors) are reported as bit
    // vectors (i1<W>); callers compare through toBits().
    ir::Type Ty = W == 1    ? ir::Type::makeBool()
                  : W <= 64 ? ir::Type::makeInt(W)
                            : ir::Type::makeInt(1, W);
    Proto.add(B.P->Name, static_cast<unsigned>(OutSlots.size()));
    OutSlots.emplace_back(B.Id, Ty);
  }
  Proto.seal();

  // Initialize sequential state, resolving each element's clock-edge
  // connections up front (one linear scan per run, not per cycle).
  SeqState State;
  struct FdreConns {
    const Expr *Ce, *R, *D;
  };
  std::map<size_t, FdreConns> FdreBind;
  std::map<size_t, const Expr *> DspCep;
  const std::vector<Item> &Items = M.items();
  for (size_t Index = 0; Index < Items.size(); ++Index) {
    const Item &I = Items[Index];
    if (I.ItemKind != Item::Kind::Instance)
      continue;
    if (I.ModuleName == "FDRE") {
      State.FdreQ[Index] = Bits{paramOf(I, "INIT", 0) != 0};
      FdreConns C{connOf(I, "CE"), connOf(I, "R"), connOf(I, "D")};
      if (!C.Ce || !C.R || !C.D)
        return fail<TraceT>("FDRE instance missing CE/R/D connection");
      FdreBind[Index] = C;
    } else if (I.ModuleName == "DSP48E2" && paramOf(I, "PREG", 0)) {
      State.DspP[Index] = fromUint(paramOf(I, "PINIT", 0), 48);
      const Expr *Cep = connOf(I, "CEP");
      if (!Cep)
        return fail<TraceT>("DSP48E2 with PREG missing CEP connection");
      DspCep[Index] = Cep;
    }
  }

  obs::Counter &Evals = Ctx.counter("netlist.evals");
  obs::Counter &Sweeps = Ctx.counter("netlist.sweeps");

  sim::EngineFrame Frame(Wave, Ctx, "netlist.cycles");
  std::vector<ir::ValueId> WaveIds;
  if (Frame.waveActive()) {
    std::vector<uint8_t> KindOf(Signals.size(),
                                uint8_t(sim::WaveSignal::Kind::Internal));
    for (const BoundPort &B : Inputs)
      KindOf[B.Id] = uint8_t(sim::WaveSignal::Kind::Input);
    for (const BoundPort &B : Outputs)
      KindOf[B.Id] = uint8_t(sim::WaveSignal::Kind::Output);
    std::vector<sim::WaveSignal> WaveSigs;
    for (ir::ValueId Id = 0; Id < Signals.size(); ++Id) {
      if (Signals.name(Id) == "clock")
        continue;
      WaveIds.push_back(Id);
      WaveSigs.emplace_back(Signals.name(Id),
                            static_cast<unsigned>(Signals.at(Id).size()),
                            sim::WaveSignal::Kind(KindOf[Id]));
    }
    if (Status S = Frame.recorder().begin(std::move(WaveSigs)); !S)
      return fail<TraceT>(S.error());
  }

  // Any mid-run failure still flushes the partial waveform.
  auto Abort = [&](std::string Msg) {
    return fail<TraceT>(Frame.abort(std::move(Msg)));
  };

  interp::Trace Output;
  for (size_t Cycle = 0; Cycle < Input.size(); ++Cycle) {
    Frame.beginCycle();
    // Drive inputs: one merge walk over the step's ordered map.
    Status Bound = Binder.bind(
        Input.step(Cycle), Cycle,
        [&](unsigned Slot, const interp::Value &V) {
          const BoundPort &B = Inputs[Slot];
          Bits Flat = V.toBits();
          if (Flat.size() != B.Width)
            return Status::failure("input '" + B.P->Name +
                                   "' width mismatch");
          Signals.at(B.Id) = std::move(Flat);
          return Status::success();
        });
    if (!Bound)
      return Abort(Bound.error());
    // Settle combinational logic (the netlist is acyclic, so this
    // converges within the logic depth).
    size_t MaxSweeps = Items.size() + 2;
    for (size_t S = 0; S < MaxSweeps; ++S) {
      ++Sweeps;
      Evals += Items.size();
      Result<bool> Changed = sweep(M, Signals, State);
      if (!Changed)
        return Abort(Changed.error());
      if (!Changed.value())
        break;
      if (S + 1 == MaxSweeps)
        return Abort("netlist did not settle (combinational loop?)");
    }
    // Sample outputs into a clone of the prototype step, filling values
    // by map position.
    Proto.emit(Output, [&](unsigned Slot) {
      const auto &[Id, Ty] = OutSlots[Slot];
      const Bits &B = Signals.at(Id);
      return interp::Value::fromBits(
          Ty, Bits(B.begin(), B.begin() + Ty.totalBits()));
    });
    // The waveform observes the settled post-sweep state: FDRE Q shows
    // the value held during the cycle, matching the interpreter's
    // pre-update register semantics.
    if (Frame.waveActive()) {
      Frame.recorder().cycle(Cycle);
      for (size_t W = 0; W < WaveIds.size(); ++W)
        Frame.recorder().recordBits(static_cast<unsigned>(W),
                                    Signals.at(WaveIds[W]));
    }
    // Clock edge: FDRE and DSP P registers capture.
    std::map<size_t, Bits> NextFdre = State.FdreQ;
    std::map<size_t, Bits> NextDsp = State.DspP;
    for (auto &[Index, Q] : NextFdre) {
      const FdreConns &C = FdreBind.at(Index);
      Result<Bits> Ce = evalExpr(*C.Ce, Signals);
      Result<Bits> R = evalExpr(*C.R, Signals);
      Result<Bits> D = evalExpr(*C.D, Signals);
      if (!Ce || !R || !D)
        return Abort("FDRE input evaluation failed");
      if (R.value()[0])
        Q = Bits{false};
      else if (Ce.value()[0])
        Q = D.take();
    }
    for (auto &[Index, P] : NextDsp) {
      Result<Bits> Ce = evalExpr(*DspCep.at(Index), Signals);
      if (!Ce)
        return Abort(Ce.error());
      if (!Ce.value()[0])
        continue;
      Result<Bits> Comb = dspCombP(Items[Index], Signals);
      if (!Comb)
        return Abort(Comb.error());
      P = Comb.take();
    }
    State.FdreQ = std::move(NextFdre);
    State.DspP = std::move(NextDsp);
  }
  if (Status S = Frame.finish(); !S)
    return fail<TraceT>(S.error());
  return Output;
}
