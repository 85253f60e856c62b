//===- sim/CompileIr.cpp - Lowering IR functions to sim programs -----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a verified `ir::Function` into a `sim::Program` whose execution
/// matches the reference interpreter lane for lane. Each value gets one
/// table word per lane holding the canonical (sign-extended) lane payload
/// `interp::Value` uses, so outputs and waveforms reassemble to exactly
/// the interpreter's values. Constants and register initial values
/// evaluate once into the `Init` segment; the `Eval` segment follows the
/// interpreter's topological order; the `Commit` segment computes every
/// register's next state on the stack before storing any, preserving the
/// simultaneous clock edge.
///
//===----------------------------------------------------------------------===//

#include "sim/Compile.h"

#include "interp/Eval.h"
#include "ir/Verifier.h"
#include "obs/Telemetry.h"
#include "sim/Emitter.h"

using namespace reticle;
using namespace reticle::sim;
using detail::Emitter;
using ir::Instr;
using ir::Type;
using ir::ValueId;

namespace {

/// Where one source flat bit lives: a table word and a bit within it.
struct BitAddr {
  uint32_t Word;
  uint32_t Bit;
};

/// The flattened LSB-first bit addresses of value \p Id, as
/// `Value::toBits` orders them (lane 0's low bit first).
std::vector<BitAddr> flatBits(const ir::DefUse &DU,
                              const std::vector<uint32_t> &BaseOf,
                              ValueId Id) {
  Type Ty = DU.typeOfId(Id);
  std::vector<BitAddr> Out;
  Out.reserve(Ty.totalBits());
  for (unsigned L = 0; L < Ty.lanes(); ++L)
    for (unsigned B = 0; B < Ty.width(); ++B)
      Out.push_back({BaseOf[Id] + L, B});
  return Out;
}

/// Assembles result bits [\p From, \p From + width) of \p Src onto the
/// stack: contiguous runs within one source word load as single fields,
/// shifted into place and OR-combined.
void emitGather(Emitter &E, const std::vector<BitAddr> &Src, size_t From,
                unsigned Width) {
  bool First = true;
  unsigned Pos = 0;
  while (Pos < Width) {
    const BitAddr &A = Src[From + Pos];
    unsigned Len = 1;
    while (Pos + Len < Width &&
           Src[From + Pos + Len].Word == A.Word &&
           Src[From + Pos + Len].Bit == A.Bit + Len)
      ++Len;
    E.loadField(A.Word, A.Bit, Len);
    if (Pos > 0)
      E.op(Op::Shl, {Pos});
    if (!First)
      E.op(Op::OrB);
    First = false;
    Pos += Len;
  }
}

} // namespace

Result<Program> reticle::sim::compile(const ir::Function &Fn,
                                      const obs::Context &Ctx) {
  obs::Span Sp(Ctx, "sim.compile.ir");
  Sp.arg("function", Fn.name());
  if (Status S = ir::verify(Fn, Ctx); !S)
    return fail<Program>(S.error());
  Result<std::vector<size_t>> OrderOr = ir::topoOrder(Fn, Ctx);
  if (!OrderOr)
    return fail<Program>(OrderOr.error());
  const std::vector<size_t> &PureOrder = OrderOr.value();
  const ir::DefUse &DU = Fn.defUse(Ctx);
  const std::vector<Instr> &Body = Fn.body();

  Program P;
  P.Name = Fn.name();
  P.Source = "ir";

  // Layout: one word per lane, in ValueId order; the wave signal list is
  // exactly the interpreter's (every value, kinds from def-use facts).
  std::vector<uint32_t> BaseOf(DU.numValues());
  uint32_t Next = 0;
  for (ValueId Id = 0; Id < DU.numValues(); ++Id) {
    Type Ty = DU.typeOfId(Id);
    BaseOf[Id] = Next;
    Next += Ty.lanes();
    WaveSignal::Kind K = DU.isInputId(Id)
                             ? WaveSignal::Kind::Input
                             : (DU.isLiveOut(Id) ? WaveSignal::Kind::Output
                                                 : WaveSignal::Kind::Internal);
    P.Signals.push_back(
        {DU.nameOf(Id), Ty.totalBits(), Ty.width(), Ty.lanes(), BaseOf[Id], K});
  }
  P.NumWords = Next;

  for (const ir::Port &Port : Fn.inputs())
    P.Inputs.push_back({Port.Name, Port.Ty, BaseOf[DU.idOf(Port.Name)],
                        /*Packed=*/false});
  for (const ir::Port &Port : Fn.outputs()) {
    ValueId Id = DU.idOf(Port.Name);
    // Report the defining value's type, as the interpreter snapshots
    // Env[id] directly.
    P.Outputs.push_back({Port.Name, DU.typeOfId(Id), BaseOf[Id],
                         /*Packed=*/false});
  }

  Emitter E(P);

  // Init: register initial values and constants, evaluated once.
  E.use(P.Init);
  auto StoreValue = [&](ValueId Id, const interp::Value &V) {
    for (unsigned L = 0; L < V.type().lanes(); ++L) {
      E.loadConst(static_cast<uint64_t>(V.lane(L)));
      E.storeWord(BaseOf[Id] + L);
    }
  };
  for (size_t Index = 0; Index < Body.size(); ++Index) {
    const Instr &I = Body[Index];
    if (I.isReg()) {
      E.setSource(I.dst());
      StoreValue(DU.dstIdOf(Index), interp::regInitValue(I));
    } else if (I.isWire() && I.wireOp() == ir::WireOp::Const) {
      Result<interp::Value> V = interp::evalPure(I, {});
      if (!V)
        return fail<Program>(V.error());
      E.setSource(I.dst());
      StoreValue(DU.dstIdOf(Index), V.value());
    }
  }
  E.endSeg();

  // Eval: pure instructions in the interpreter's topological order.
  E.use(P.Eval);
  for (size_t Index : PureOrder) {
    const Instr &I = Body[Index];
    E.setSource(I.dst());
    ValueId Dst = DU.dstIdOf(Index);
    Type Ty = I.type();
    unsigned W = Ty.width();
    const std::vector<ValueId> &Args = DU.argIdsOf(Index);
    auto ArgBase = [&](size_t K) { return BaseOf[Args[K]]; };

    auto Binary = [&](Op O, bool NeedsCanon) {
      for (unsigned L = 0; L < Ty.lanes(); ++L) {
        E.loadWord(ArgBase(0) + L);
        E.loadWord(ArgBase(1) + L);
        E.op(O);
        if (NeedsCanon || Ty.isBool())
          E.canonTo(Ty);
        E.storeWord(BaseOf[Dst] + L);
      }
    };
    auto Compare = [&](Op O) {
      // Comparisons read lane 0 (Value::scalar) and produce a bool.
      E.loadWord(ArgBase(0));
      E.loadWord(ArgBase(1));
      E.op(O);
      E.storeWord(BaseOf[Dst]);
    };
    auto Shift = [&](bool MaskFirst, Op O, bool NeedsCanon) -> Status {
      int64_t Amount = I.attrs()[0];
      if (Amount < 0 || Amount >= 64)
        return Status::failure("shift amount out of range in '" + I.dst() +
                               "'");
      for (unsigned L = 0; L < Ty.lanes(); ++L) {
        E.loadWord(ArgBase(0) + L);
        if (MaskFirst)
          E.op(Op::Mask, {W});
        E.op(O, {static_cast<uint32_t>(Amount)});
        if (NeedsCanon || Ty.isBool())
          E.canonTo(Ty);
        E.storeWord(BaseOf[Dst] + L);
      }
      return Status::success();
    };
    auto Gather = [&](const std::vector<BitAddr> &Src, size_t Offset) {
      for (unsigned L = 0; L < Ty.lanes(); ++L) {
        emitGather(E, Src, Offset + size_t(L) * W, W);
        E.canonTo(Ty);
        E.storeWord(BaseOf[Dst] + L);
      }
    };

    if (I.isWire()) {
      switch (I.wireOp()) {
      case ir::WireOp::Const:
        break; // evaluated once in Init
      case ir::WireOp::Id:
        for (unsigned L = 0; L < Ty.lanes(); ++L) {
          E.loadWord(ArgBase(0) + L);
          E.storeWord(BaseOf[Dst] + L);
        }
        break;
      case ir::WireOp::Sll:
        if (Status S = Shift(/*MaskFirst=*/true, Op::Shl, true); !S)
          return fail<Program>(S.error());
        break;
      case ir::WireOp::Srl:
        if (Status S = Shift(/*MaskFirst=*/true, Op::Shr, true); !S)
          return fail<Program>(S.error());
        break;
      case ir::WireOp::Sra:
        // Lanes are sign-extended, so the native arithmetic shift stays
        // canonical; bool lanes renormalize.
        if (Status S = Shift(/*MaskFirst=*/false, Op::Sar, false); !S)
          return fail<Program>(S.error());
        break;
      case ir::WireOp::Slice:
        Gather(flatBits(DU, BaseOf, Args[0]),
               static_cast<size_t>(I.attrs()[0]));
        break;
      case ir::WireOp::Cat: {
        std::vector<BitAddr> Src = flatBits(DU, BaseOf, Args[0]);
        std::vector<BitAddr> High = flatBits(DU, BaseOf, Args[1]);
        Src.insert(Src.end(), High.begin(), High.end());
        Gather(Src, 0);
        break;
      }
      }
      continue;
    }
    switch (I.compOp()) {
    case ir::CompOp::Add:
      Binary(Op::Add, true);
      break;
    case ir::CompOp::Sub:
      Binary(Op::Sub, true);
      break;
    case ir::CompOp::Mul:
      Binary(Op::Mul, true);
      break;
    case ir::CompOp::Not:
      // ~canonical is canonical for integer lanes; a bool lane (0 or 1)
      // keeps only the flipped bit 0.
      for (unsigned L = 0; L < Ty.lanes(); ++L) {
        E.loadWord(ArgBase(0) + L);
        E.op(Op::NotB);
        if (Ty.isBool())
          E.op(Op::Mask, {1});
        E.storeWord(BaseOf[Dst] + L);
      }
      break;
    case ir::CompOp::And:
      Binary(Op::AndB, false);
      break;
    case ir::CompOp::Or:
      Binary(Op::OrB, false);
      break;
    case ir::CompOp::Xor:
      Binary(Op::XorB, false);
      break;
    case ir::CompOp::Eq:
      Compare(Op::CmpEq);
      break;
    case ir::CompOp::Neq:
      Compare(Op::CmpNe);
      break;
    case ir::CompOp::Lt:
      Compare(Op::CmpLt);
      break;
    case ir::CompOp::Gt:
      Compare(Op::CmpGt);
      break;
    case ir::CompOp::Le:
      Compare(Op::CmpLe);
      break;
    case ir::CompOp::Ge:
      Compare(Op::CmpGe);
      break;
    case ir::CompOp::Mux:
      for (unsigned L = 0; L < Ty.lanes(); ++L) {
        E.loadWord(ArgBase(2) + L); // if-false
        E.loadWord(ArgBase(1) + L); // if-true
        E.loadWord(ArgBase(0));     // condition (scalar bool)
        E.op(Op::Select);
        E.storeWord(BaseOf[Dst] + L);
      }
      break;
    case ir::CompOp::Reg:
      break; // handled by Init/Commit
    }
  }
  E.endSeg();

  // Commit: every register's next state is computed onto the stack, then
  // all stores happen — the simultaneous clock edge.
  E.use(P.Commit);
  struct RegStore {
    uint32_t Word;
    unsigned Lanes;
    std::string Name;
  };
  std::vector<RegStore> Stores; // per reg, in body order
  for (size_t Index = 0; Index < Body.size(); ++Index) {
    const Instr &I = Body[Index];
    if (!I.isReg())
      continue;
    E.setSource(I.dst());
    ValueId Dst = DU.dstIdOf(Index);
    const std::vector<ValueId> &Args = DU.argIdsOf(Index);
    for (unsigned L = 0; L < I.type().lanes(); ++L) {
      E.loadWord(BaseOf[Dst] + L);     // if-false: hold current state
      E.loadWord(BaseOf[Args[0]] + L); // if-true: capture data
      E.loadWord(BaseOf[Args[1]]);     // condition: enable
      E.op(Op::Select);
    }
    Stores.push_back({BaseOf[Dst], I.type().lanes(), I.dst()});
  }
  for (size_t R = Stores.size(); R-- > 0;) {
    E.setSource(Stores[R].Name);
    for (unsigned L = Stores[R].Lanes; L-- > 0;)
      E.storeWord(Stores[R].Word + L);
  }
  E.endSeg();

  E.countInto(Ctx);
  if (Status S = verify(P); !S)
    return fail<Program>(S.error());
  return P;
}
