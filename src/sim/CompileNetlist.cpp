//===- sim/CompileNetlist.cpp - Lowering netlists to sim programs ----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a generated structural-Verilog module into a `sim::Program`,
/// the gate-level engine (vm-netlist) that is checked against the
/// reference interpreter. This pass topologically orders the
/// combinational items *once* (signal writer -> reader edges; FDRE/DSP-PREG
/// outputs are sources), so the VM evaluates each item exactly once per
/// cycle. Expressions in the structural subset (references, sized
/// literals, bit/range selects, concatenation, replication) flatten into
/// bit "pieces" that lower to word-level field moves — wires wider than
/// 64 bits copy chunk by chunk and never pass through a single arithmetic
/// word.
///
/// Signals store flattened bits packed 64 per word. Sequential state
/// (FDRE Q, DSP P with PREG) lives in hidden state words initialized in
/// the `Init` segment; the `Commit` segment computes every next state on
/// the stack before storing any, preserving the simultaneous clock edge.
///
//===----------------------------------------------------------------------===//

#include "sim/Compile.h"

#include "ir/DefUse.h"
#include "obs/Telemetry.h"
#include "sim/Emitter.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

using namespace reticle;
using namespace reticle::sim;
using detail::Emitter;
using verilog::Expr;
using verilog::Item;
using verilog::Module;

namespace {

uint64_t maskOf(unsigned Len) {
  return Len >= 64 ? ~uint64_t(0) : ((uint64_t(1) << Len) - 1);
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

/// A contiguous run of an expression's flattened bits: either a constant
/// payload or a bit range of one signal.
struct Piece {
  bool IsConst = false;
  uint64_t Value = 0; ///< constant payload (low Len bits), IsConst only
  uint32_t Sig = 0;   ///< signal index, !IsConst only
  unsigned Bit = 0;   ///< start bit within the signal, !IsConst only
  unsigned Len = 0;
};

size_t totalLen(const std::vector<Piece> &Pieces) {
  size_t Out = 0;
  for (const Piece &P : Pieces)
    Out += P.Len;
  return Out;
}

/// The sub-range [Start, Start+Len) of a piece list.
std::vector<Piece> subRange(const std::vector<Piece> &Pieces, size_t Start,
                            size_t Len) {
  std::vector<Piece> Out;
  size_t Pos = 0;
  for (const Piece &P : Pieces) {
    if (Len == 0)
      break;
    size_t End = Pos + P.Len;
    if (End <= Start) {
      Pos = End;
      continue;
    }
    size_t Off = Start > Pos ? Start - Pos : 0;
    size_t Take = std::min<size_t>(P.Len - Off, Len);
    Piece Sub = P;
    if (Sub.IsConst)
      Sub.Value = (Sub.Value >> Off) & maskOf(static_cast<unsigned>(Take));
    else
      Sub.Bit += static_cast<unsigned>(Off);
    Sub.Len = static_cast<unsigned>(Take);
    Out.push_back(Sub);
    Len -= Take;
    Start += Take;
    Pos = End;
  }
  return Out;
}

/// A coalesced run of pieces emitted as one stack value. Three shapes:
/// a merged constant (adjacent const pieces folded into one payload), a
/// contiguous bit range of one signal (adjacent pieces whose ranges
/// abut), or one signal bit replicated \p Rep times — the shape `Repeat`
/// flattening produces for sign extension, emitted as a single
/// bit × ones-mask multiply instead of \p Rep unit copies.
struct Group {
  Piece P;
  unsigned Rep = 1; ///< > 1 only when P is a 1-bit signal piece
};

/// Folds adjacent pieces into groups: consecutive constants merge while
/// the payload fits 64 bits, contiguous ranges of the same signal merge,
/// and repeated copies of the same single bit collapse into a Rep group.
std::vector<Group> coalesce(const std::vector<Piece> &Pieces) {
  std::vector<Group> Out;
  for (const Piece &P : Pieces) {
    if (!Out.empty()) {
      Group &G = Out.back();
      if (P.IsConst && G.P.IsConst && G.Rep == 1 &&
          G.P.Len + P.Len <= 64) {
        G.P.Value |= P.Value << G.P.Len;
        G.P.Len += P.Len;
        continue;
      }
      if (!P.IsConst && !G.P.IsConst && P.Sig == G.P.Sig) {
        if (G.P.Len == 1 && P.Len == 1 && P.Bit == G.P.Bit &&
            G.Rep < 64) {
          ++G.Rep;
          continue;
        }
        if (G.Rep == 1 && P.Bit == G.P.Bit + G.P.Len) {
          G.P.Len += P.Len;
          continue;
        }
      }
    }
    Out.push_back({P, 1});
  }
  return Out;
}

/// Bits a group contributes to the assembled value.
unsigned groupLen(const Group &G) { return G.P.Len * G.Rep; }

/// The compile-time signal table: packed-bit layout plus lookup.
struct Signals {
  struct Sig {
    std::string Name;
    unsigned Width;
    uint32_t Base;
  };
  std::vector<Sig> Table;
  ir::NameInterner Names;

  Status declare(const std::string &Name, unsigned Width, uint32_t &Next) {
    unsigned BitCount = Width == 0 ? 1 : Width;
    ir::ValueId Id = Names.intern(Name);
    if (Id != Table.size())
      return Status::failure("duplicate signal '" + Name + "'");
    Table.push_back({Name, BitCount, Next});
    Next += (BitCount + 63) / 64;
    return Status::success();
  }
  bool exists(const std::string &Name) const {
    return Names.lookup(Name) != ir::InvalidValueId;
  }
  uint32_t indexOf(const std::string &Name) const {
    return Names.lookup(Name);
  }
  const Sig &at(uint32_t Index) const { return Table[Index]; }

  /// The table word and in-word position of signal bit \p Bit.
  std::pair<uint32_t, unsigned> addr(uint32_t Index, unsigned Bit) const {
    return {Table[Index].Base + Bit / 64, Bit % 64};
  }
};

/// Flattens \p E into LSB-first pieces over declared signals.
Result<std::vector<Piece>> flatten(const Expr &E, const Signals &Sigs) {
  using Pieces = std::vector<Piece>;
  switch (E.kind()) {
  case Expr::Kind::Ref: {
    if (!Sigs.exists(E.name()))
      return fail<Pieces>("undriven reference '" + E.name() + "'");
    uint32_t Index = Sigs.indexOf(E.name());
    Piece P;
    P.Sig = Index;
    P.Bit = 0;
    P.Len = Sigs.at(Index).Width;
    return Pieces{P};
  }
  case Expr::Kind::IntLit: {
    unsigned W = E.width() == 0 ? 1 : E.width();
    Pieces Out;
    Piece P;
    P.IsConst = true;
    P.Len = std::min(W, 64u);
    P.Value = E.value() & maskOf(P.Len);
    Out.push_back(P);
    if (W > 64) {
      Piece Zero;
      Zero.IsConst = true;
      Zero.Len = W - 64;
      Out.push_back(Zero);
    }
    return Out;
  }
  case Expr::Kind::Index: {
    Result<Pieces> Base = flatten(E.operands()[0], Sigs);
    if (!Base)
      return Base;
    if (E.width() >= totalLen(Base.value()))
      return fail<Pieces>("bit select out of range in '" + E.str() + "'");
    return subRange(Base.value(), E.width(), 1);
  }
  case Expr::Kind::Range: {
    Result<Pieces> Base = flatten(E.operands()[0], Sigs);
    if (!Base)
      return Base;
    if (E.width() >= totalLen(Base.value()) || E.lo() > E.width())
      return fail<Pieces>("range select out of range in '" + E.str() + "'");
    return subRange(Base.value(), E.lo(), E.width() - E.lo() + 1);
  }
  case Expr::Kind::Concat: {
    // Operands are most-significant first.
    Pieces Out;
    for (size_t I = E.operands().size(); I-- > 0;) {
      Result<Pieces> Part = flatten(E.operands()[I], Sigs);
      if (!Part)
        return Part;
      for (Piece &P : Part.value())
        Out.push_back(std::move(P));
    }
    return Out;
  }
  case Expr::Kind::Repeat: {
    Result<Pieces> Part = flatten(E.operands()[0], Sigs);
    if (!Part)
      return Part;
    Pieces Out;
    for (unsigned I = 0; I < E.width(); ++I)
      for (const Piece &P : Part.value())
        Out.push_back(P);
    return Out;
  }
  default:
    return fail<Pieces>("expression form not supported by the netlist "
                        "simulator: " + E.str());
  }
}

/// An assignment target resolved to one signal bit range.
struct LTarget {
  uint32_t Sig;
  unsigned Lo;
  unsigned Len;
};

Result<LTarget> lvalueOf(const Expr &Lhs, const Signals &Sigs) {
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
    return fail<LTarget>("unsupported assignment target: " + Lhs.str());
  if (!Sigs.exists(Base->name()))
    return fail<LTarget>("assignment to undeclared signal '" + Base->name() +
                         "'");
  uint32_t Index = Sigs.indexOf(Base->name());
  unsigned Width = Sigs.at(Index).Width;
  if (Whole) {
    Hi = Width - 1;
    Lo = 0;
  }
  if (Hi >= Width)
    return fail<LTarget>("width mismatch assigning " + Lhs.str());
  return LTarget{Index, Lo, Hi - Lo + 1};
}

/// Collects the signal indices an expression reads.
void collectReads(const Expr &E, const Signals &Sigs,
                  std::set<uint32_t> &Out) {
  if (E.kind() == Expr::Kind::Ref) {
    if (Sigs.exists(E.name()))
      Out.insert(Sigs.indexOf(E.name()));
    return;
  }
  for (const Expr &Opnd : E.operands())
    collectReads(Opnd, Sigs, Out);
}

/// The resolved DSP48E2 configuration shared by eval and commit lowering.
struct DspConfig {
  bool Mult = false;
  bool Subtract = false;
  bool UsePcin = false;
  unsigned Lanes = 1;
  const Expr *Z = nullptr; // PCIN or C connection (null: zero)
  const Expr *A = nullptr;
  const Expr *B = nullptr;
};

Result<DspConfig> dspConfigOf(const Item &I) {
  DspConfig C;
  std::string Simd = paramStr(I, "USE_SIMD", "ONE48");
  C.Mult = paramStr(I, "USE_MULT", "NONE") == "MULTIPLY";
  uint64_t Opmode = paramOf(I, "OPMODE", 0x33);
  C.Subtract = paramOf(I, "ALUMODE", 0) == 0x3;
  C.UsePcin = ((Opmode >> 4) & 0x3) == 0x1;
  C.Lanes = Simd == "FOUR12" ? 4 : (Simd == "TWO24" ? 2 : 1);
  if (C.UsePcin) {
    C.Z = connOf(I, "PCIN");
    if (!C.Z)
      return fail<DspConfig>("DSP uses PCIN but has no connection");
  } else {
    C.Z = connOf(I, "C"); // may be null: Z is zero
  }
  C.A = connOf(I, "A");
  C.B = connOf(I, "B");
  if (!C.A || !C.B)
    return fail<DspConfig>("DSP input evaluation failed");
  return C;
}

/// Lowers the module; a class only to share the tables between the
/// eval/commit emission helpers.
class NetlistLowering {
public:
  NetlistLowering(const Module &M, Program &P) : M(M), P(P), E(P) {}

  Status run();
  void countInto(const obs::Context &Ctx) { E.countInto(Ctx); }

private:
  const Module &M;
  Program &P;
  Emitter E;
  Signals Sigs;
  uint32_t NextWord = 0;
  // Hidden scratch words, allocated on first use.
  uint32_t CarryW = 0, ZW = 0, XyW = 0, PW = 0;
  bool HaveCarryW = false, HaveDspW = false;
  std::map<size_t, uint32_t> FdreState; // item index -> state word
  std::map<size_t, uint32_t> DspState;  // item index -> state word

  uint32_t scratch() { return NextWord++; }

  /// Assembles pieces [Start, Start+Len) (Len <= 64) onto the stack,
  /// zero-extended.
  void assemble(const std::vector<Piece> &Pieces, size_t Start,
                unsigned Len) {
    std::vector<Piece> Range = subRange(Pieces, Start, Len);
    // Pad with zeros when the source is narrower than requested.
    size_t Have = totalLen(Range);
    if (Have < Len) {
      Piece Zero;
      Zero.IsConst = true;
      Zero.Len = static_cast<unsigned>(Len - Have);
      Range.push_back(Zero);
    }
    bool First = true;
    unsigned Pos = 0;
    for (const Group &G : coalesce(Range)) {
      if (G.Rep > 1) {
        // One bit replicated: bit × ones-mask spreads it across Rep
        // positions in three instructions instead of Rep copies.
        auto [Word, Bit] = Sigs.addr(G.P.Sig, G.P.Bit);
        E.loadField(Word, Bit, 1);
        E.loadConst(maskOf(G.Rep));
        E.op(Op::Mul);
        if (Pos > 0)
          E.op(Op::Shl, {Pos});
        if (!First)
          E.op(Op::OrB);
        First = false;
        Pos += G.Rep;
        continue;
      }
      const Piece &Pc = G.P;
      unsigned Off = 0;
      while (Off < Pc.Len) {
        unsigned ChunkLen = Pc.Len - Off;
        if (Pc.IsConst) {
          E.loadConst((Pc.Value >> Off) & maskOf(ChunkLen));
        } else {
          auto [Word, Bit] = Sigs.addr(Pc.Sig, Pc.Bit + Off);
          ChunkLen = std::min(ChunkLen, 64 - Bit);
          E.loadField(Word, Bit, ChunkLen);
        }
        if (Pos + Off > 0)
          E.op(Op::Shl, {Pos + Off});
        if (!First)
          E.op(Op::OrB);
        First = false;
        Off += ChunkLen;
      }
      Pos += Pc.Len;
    }
    if (First)
      E.loadConst(0);
  }

  /// Pushes one source bit (piece-addressed) onto the stack.
  void loadBit(const std::vector<Piece> &Pieces, size_t Bit) {
    assemble(Pieces, Bit, 1);
  }

  /// Copies \p Pieces into the target bit range, chunking at word
  /// boundaries on both sides; never routes wide values through a single
  /// word.
  void copyTo(const std::vector<Piece> &Pieces, const LTarget &Dst) {
    size_t SrcPos = 0;
    for (const Group &G : coalesce(Pieces)) {
      unsigned GLen = groupLen(G);
      unsigned Off = 0;
      while (Off < GLen) {
        unsigned DstBit = Dst.Lo + static_cast<unsigned>(SrcPos) + Off;
        auto [DstWord, DstLo] = Sigs.addr(Dst.Sig, DstBit);
        unsigned ChunkLen = std::min(GLen - Off, 64 - DstLo);
        if (G.P.IsConst) {
          E.loadConst((G.P.Value >> Off) & maskOf(ChunkLen));
        } else if (G.Rep > 1) {
          // Replicated bit: spread with one multiply per destination
          // word instead of one store per bit.
          auto [SrcWord, SrcLo] = Sigs.addr(G.P.Sig, G.P.Bit);
          E.loadField(SrcWord, SrcLo, 1);
          if (ChunkLen > 1) {
            E.loadConst(maskOf(ChunkLen));
            E.op(Op::Mul);
          }
        } else {
          auto [SrcWord, SrcLo] = Sigs.addr(G.P.Sig, G.P.Bit + Off);
          ChunkLen = std::min(ChunkLen, 64 - SrcLo);
          E.loadField(SrcWord, SrcLo, ChunkLen);
        }
        E.storeField(DstWord, DstLo, ChunkLen);
        Off += ChunkLen;
      }
      SrcPos += GLen;
    }
  }

  /// Resolves a connection into an assignment target of exactly
  /// \p ValueLen bits.
  Result<LTarget> targetOf(const Expr &Lhs, unsigned ValueLen) {
    Result<LTarget> T = lvalueOf(Lhs, Sigs);
    if (!T)
      return T;
    if (T.value().Len != ValueLen)
      return fail<LTarget>("width mismatch assigning " + Lhs.str());
    return T;
  }

  /// Emits the DSP48E2 combinational P computation into the PW scratch
  /// word. \p Where names the item for error messages.
  Status emitDspComb(const Item &I) {
    Result<DspConfig> CfgOr = dspConfigOf(I);
    if (!CfgOr)
      return Status::failure(CfgOr.error());
    const DspConfig &Cfg = CfgOr.value();
    if (!HaveDspW) {
      ZW = scratch();
      XyW = scratch();
      PW = scratch();
      HaveDspW = true;
    }
    // Z operand: PCIN, C, or zero; truncated/padded to 48 bits.
    if (Cfg.Z) {
      Result<std::vector<Piece>> Z = flatten(*Cfg.Z, Sigs);
      if (!Z)
        return Status::failure(Z.error());
      assemble(Z.value(), 0, 48);
    } else {
      E.loadConst(0);
    }
    E.storeField(ZW, 0, 48);
    // X:Y operand: the signed product or {A[29:0], B[17:0]}.
    Result<std::vector<Piece>> A = flatten(*Cfg.A, Sigs);
    Result<std::vector<Piece>> B = flatten(*Cfg.B, Sigs);
    if (!A || !B)
      return Status::failure("DSP input evaluation failed");
    if (Cfg.Mult) {
      unsigned WA = static_cast<unsigned>(totalLen(A.value()));
      unsigned WB = static_cast<unsigned>(totalLen(B.value()));
      if (WA > 64 || WB > 64)
        return Status::failure(
            "DSP multiplier input wider than 64 bits (" +
            std::to_string(std::max(WA, WB)) + " bits)");
      assemble(A.value(), 0, WA);
      if (WA < 64)
        E.op(Op::Canon, {WA});
      assemble(B.value(), 0, WB);
      if (WB < 64)
        E.op(Op::Canon, {WB});
      E.op(Op::Mul);
      E.op(Op::Mask, {48});
    } else {
      assemble(B.value(), 0, 18);
      assemble(A.value(), 0, 30);
      E.op(Op::Shl, {18});
      E.op(Op::OrB);
    }
    E.storeField(XyW, 0, 48);
    // Per-SIMD-lane add/subtract into PW.
    unsigned FieldBits = 48 / Cfg.Lanes;
    for (unsigned L = 0; L < Cfg.Lanes; ++L) {
      E.loadField(ZW, L * FieldBits, FieldBits);
      E.loadField(XyW, L * FieldBits, FieldBits);
      E.op(Cfg.Subtract ? Op::Sub : Op::Add);
      E.op(Op::Mask, {FieldBits});
      E.storeField(PW, L * FieldBits, FieldBits);
    }
    return Status::success();
  }

  /// Copies the 48-bit value in word \p From to the DSP's P and PCOUT
  /// connections.
  Status emitDspOutputs(const Item &I, uint32_t From) {
    for (const char *Port : {"P", "PCOUT"}) {
      const Expr *Conn = connOf(I, Port);
      if (!Conn)
        continue;
      Result<LTarget> T = targetOf(*Conn, 48);
      if (!T)
        return Status::failure(T.error());
      // 48 bits always fit one scratch word, but the target may straddle
      // a word boundary.
      unsigned Off = 0;
      while (Off < 48) {
        auto [DstWord, DstLo] = Sigs.addr(T.value().Sig, T.value().Lo + Off);
        unsigned ChunkLen = std::min(48 - Off, 64 - DstLo);
        E.loadField(From, Off, ChunkLen);
        E.storeField(DstWord, DstLo, ChunkLen);
        Off += ChunkLen;
      }
    }
    return Status::success();
  }

  /// The source-mark label of an item: the signal it drives (the
  /// assign target, LUT/CARRY8 O, FDRE Q, DSP P/PCOUT). Empty when the
  /// target cannot be resolved — those items stay unattributed rather
  /// than failing the lowering here (the emission path reports the real
  /// error).
  std::string itemLabel(const Item &I) {
    auto NameOfLhs = [&](const Expr *Lhs) -> std::string {
      if (!Lhs)
        return std::string();
      Result<LTarget> T = lvalueOf(*Lhs, Sigs);
      if (!T)
        return std::string();
      return Sigs.at(T.value().Sig).Name;
    };
    if (I.ItemKind == Item::Kind::Assign)
      return NameOfLhs(&I.Lhs);
    if (I.ItemKind != Item::Kind::Instance)
      return std::string();
    if (I.ModuleName.rfind("LUT", 0) == 0 || I.ModuleName == "CARRY8")
      return NameOfLhs(connOf(I, "O"));
    if (I.ModuleName == "FDRE")
      return NameOfLhs(connOf(I, "Q"));
    if (I.ModuleName == "DSP48E2") {
      std::string Name = NameOfLhs(connOf(I, "P"));
      return Name.empty() ? NameOfLhs(connOf(I, "PCOUT")) : Name;
    }
    return std::string();
  }

  /// Attributes subsequent emissions to \p I's driven signal (or clears
  /// the attribution when the item has no resolvable target).
  void attribute(const Item &I) {
    std::string Label = itemLabel(I);
    if (Label.empty())
      E.clearSource();
    else
      E.setSource(Label);
  }

  Status emitEvalItem(size_t Index);
  Result<std::vector<size_t>> orderItems();
};

/// Topologically orders the items by signal writer -> reader edges.
/// Sequential elements read nothing during evaluation, so they are
/// sources; a cycle means real combinational feedback and fails the
/// lowering.
Result<std::vector<size_t>> NetlistLowering::orderItems() {
  const std::vector<Item> &Items = M.items();
  std::map<uint32_t, std::vector<size_t>> WritersOf;
  std::vector<std::set<uint32_t>> Reads(Items.size());
  std::vector<bool> Emits(Items.size(), false);

  auto AddWrite = [&](size_t Index, const Expr *Lhs) -> Status {
    if (!Lhs)
      return Status::success();
    Result<LTarget> T = lvalueOf(*Lhs, Sigs);
    if (!T)
      return Status::failure(T.error());
    WritersOf[T.value().Sig].push_back(Index);
    return Status::success();
  };

  for (size_t Index = 0; Index < Items.size(); ++Index) {
    const Item &I = Items[Index];
    if (I.ItemKind == Item::Kind::Assign) {
      Emits[Index] = true;
      collectReads(I.Rhs, Sigs, Reads[Index]);
      if (Status S = AddWrite(Index, &I.Lhs); !S)
        return fail<std::vector<size_t>>(S.error());
      continue;
    }
    if (I.ItemKind != Item::Kind::Instance)
      continue;
    Emits[Index] = true;
    if (I.ModuleName.rfind("LUT", 0) == 0) {
      unsigned K = static_cast<unsigned>(I.ModuleName[3] - '0');
      for (unsigned Pin = 0; Pin < K; ++Pin)
        if (const Expr *In = connOf(I, "I" + std::to_string(Pin)))
          collectReads(*In, Sigs, Reads[Index]);
      if (Status S = AddWrite(Index, connOf(I, "O")); !S)
        return fail<std::vector<size_t>>(S.error());
    } else if (I.ModuleName == "CARRY8") {
      for (const char *Port : {"S", "DI", "CI"})
        if (const Expr *In = connOf(I, Port))
          collectReads(*In, Sigs, Reads[Index]);
      for (const char *Port : {"O", "CO"})
        if (Status S = AddWrite(Index, connOf(I, Port)); !S)
          return fail<std::vector<size_t>>(S.error());
    } else if (I.ModuleName == "FDRE") {
      if (Status S = AddWrite(Index, connOf(I, "Q")); !S)
        return fail<std::vector<size_t>>(S.error());
    } else if (I.ModuleName == "DSP48E2") {
      if (!paramOf(I, "PREG", 0)) {
        Result<DspConfig> Cfg = dspConfigOf(I);
        if (!Cfg)
          return fail<std::vector<size_t>>(Cfg.error());
        collectReads(*Cfg.value().A, Sigs, Reads[Index]);
        collectReads(*Cfg.value().B, Sigs, Reads[Index]);
        if (Cfg.value().Z)
          collectReads(*Cfg.value().Z, Sigs, Reads[Index]);
      }
      for (const char *Port : {"P", "PCOUT"})
        if (Status S = AddWrite(Index, connOf(I, Port)); !S)
          return fail<std::vector<size_t>>(S.error());
    } else {
      return fail<std::vector<size_t>>("unknown primitive '" + I.ModuleName +
                                       "'");
    }
  }

  std::vector<std::set<size_t>> Preds(Items.size());
  for (size_t Index = 0; Index < Items.size(); ++Index)
    for (uint32_t Sig : Reads[Index])
      if (auto It = WritersOf.find(Sig); It != WritersOf.end())
        for (size_t Writer : It->second)
          if (Writer != Index)
            Preds[Index].insert(Writer);

  std::vector<std::vector<size_t>> Succs(Items.size());
  std::vector<size_t> Indegree(Items.size(), 0);
  for (size_t Index = 0; Index < Items.size(); ++Index) {
    Indegree[Index] = Preds[Index].size();
    for (size_t Writer : Preds[Index])
      Succs[Writer].push_back(Index);
  }

  std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>>
      Ready;
  for (size_t Index = 0; Index < Items.size(); ++Index)
    if (Emits[Index] && Indegree[Index] == 0)
      Ready.push(Index);
  std::vector<size_t> Order;
  size_t Remaining = 0;
  for (size_t Index = 0; Index < Items.size(); ++Index)
    Remaining += Emits[Index];
  while (!Ready.empty()) {
    size_t Index = Ready.top();
    Ready.pop();
    Order.push_back(Index);
    for (size_t Succ : Succs[Index])
      if (--Indegree[Succ] == 0 && Emits[Succ])
        Ready.push(Succ);
  }
  if (Order.size() != Remaining)
    return fail<std::vector<size_t>>(
        "netlist did not settle (combinational loop?)");
  return Order;
}

Status NetlistLowering::emitEvalItem(size_t Index) {
  const Item &I = M.items()[Index];
  attribute(I);
  if (I.ItemKind == Item::Kind::Assign) {
    Result<std::vector<Piece>> V = flatten(I.Rhs, Sigs);
    if (!V)
      return Status::failure(V.error());
    Result<LTarget> T =
        targetOf(I.Lhs, static_cast<unsigned>(totalLen(V.value())));
    if (!T)
      return Status::failure(T.error());
    copyTo(V.value(), T.value());
    return Status::success();
  }
  if (I.ModuleName.rfind("LUT", 0) == 0) {
    unsigned K = static_cast<unsigned>(I.ModuleName[3] - '0');
    uint64_t Init = paramOf(I, "INIT", 0);
    // The LUT output is bit (INIT >> minterm): push INIT, assemble the
    // minterm from the input bits, shift dynamically, keep one bit.
    E.loadConst(Init);
    bool First = true;
    for (unsigned Pin = 0; Pin < K; ++Pin) {
      const Expr *In = connOf(I, "I" + std::to_string(Pin));
      if (!In)
        return Status::failure("LUT missing input I" + std::to_string(Pin));
      Result<std::vector<Piece>> V = flatten(*In, Sigs);
      if (!V)
        return Status::failure(V.error());
      loadBit(V.value(), 0);
      if (Pin > 0)
        E.op(Op::Shl, {Pin});
      if (!First)
        E.op(Op::OrB);
      First = false;
    }
    if (First)
      E.loadConst(0);
    E.op(Op::ShrV);
    E.op(Op::Mask, {1});
    const Expr *O = connOf(I, "O");
    if (!O)
      return Status::failure("LUT missing output O");
    Result<LTarget> T = targetOf(*O, 1);
    if (!T)
      return Status::failure(T.error());
    auto [Word, Bit] = Sigs.addr(T.value().Sig, T.value().Lo);
    E.storeField(Word, Bit, 1);
    return Status::success();
  }
  if (I.ModuleName == "CARRY8") {
    const Expr *SConn = connOf(I, "S");
    const Expr *DiConn = connOf(I, "DI");
    const Expr *CiConn = connOf(I, "CI");
    const Expr *OConn = connOf(I, "O");
    const Expr *CoConn = connOf(I, "CO");
    if (!SConn || !DiConn || !CiConn || !OConn || !CoConn)
      return Status::failure("CARRY8 input evaluation failed");
    Result<std::vector<Piece>> S = flatten(*SConn, Sigs);
    Result<std::vector<Piece>> Di = flatten(*DiConn, Sigs);
    Result<std::vector<Piece>> Ci = flatten(*CiConn, Sigs);
    if (!S || !Di || !Ci)
      return Status::failure("CARRY8 input evaluation failed");
    Result<LTarget> O = targetOf(*OConn, 8);
    Result<LTarget> Co = targetOf(*CoConn, 8);
    if (!O || !Co)
      return Status::failure(O ? Co.error() : O.error());
    if (!HaveCarryW) {
      CarryW = scratch();
      HaveCarryW = true;
    }
    loadBit(Ci.value(), 0);
    E.storeField(CarryW, 0, 1);
    for (unsigned B = 0; B < 8; ++B) {
      // O[B] = S[B] ^ carry (the carry *into* this bit).
      loadBit(S.value(), B);
      E.loadField(CarryW, 0, 1);
      E.op(Op::XorB);
      auto [OWord, OBit] = Sigs.addr(O.value().Sig, O.value().Lo + B);
      E.storeField(OWord, OBit, 1);
      // carry = S[B] ? carry : DI[B]; CO[B] = carry.
      loadBit(Di.value(), B);
      E.loadField(CarryW, 0, 1);
      loadBit(S.value(), B);
      E.op(Op::Select);
      E.op(Op::Dup);
      E.storeField(CarryW, 0, 1);
      auto [CoWord, CoBit] = Sigs.addr(Co.value().Sig, Co.value().Lo + B);
      E.storeField(CoWord, CoBit, 1);
    }
    return Status::success();
  }
  if (I.ModuleName == "FDRE") {
    const Expr *Q = connOf(I, "Q");
    if (!Q)
      return Status::failure("FDRE instance missing Q connection");
    Result<LTarget> T = targetOf(*Q, 1);
    if (!T)
      return Status::failure(T.error());
    E.loadField(FdreState.at(Index), 0, 1);
    auto [Word, Bit] = Sigs.addr(T.value().Sig, T.value().Lo);
    E.storeField(Word, Bit, 1);
    return Status::success();
  }
  if (I.ModuleName == "DSP48E2") {
    uint32_t From;
    if (paramOf(I, "PREG", 0)) {
      From = DspState.at(Index);
    } else {
      if (Status S = emitDspComb(I); !S)
        return S;
      From = PW;
    }
    return emitDspOutputs(I, From);
  }
  return Status::failure("unknown primitive '" + I.ModuleName + "'");
}

Status NetlistLowering::run() {
  auto WidthOf = [](const verilog::Port &Port) {
    return Port.Width == 0 ? 1u : Port.Width;
  };
  // Declare ports, then wires and regs, in module order.
  for (const verilog::Port &Port : M.ports())
    if (Status S = Sigs.declare(Port.Name, Port.Width, NextWord); !S)
      return S;
  for (const Item &I : M.items())
    if (I.ItemKind == Item::Kind::Wire || I.ItemKind == Item::Kind::Reg)
      if (Status S = Sigs.declare(I.Name, I.Width, NextWord); !S)
        return S;

  // Boundary ports (the implicit clock is a table signal but not bound).
  for (const verilog::Port &Port : M.ports()) {
    if (Port.Name == "clock")
      continue;
    unsigned W = WidthOf(Port);
    ir::Type Ty = W == 1    ? ir::Type::makeBool()
                  : W <= 64 ? ir::Type::makeInt(W)
                            : ir::Type::makeInt(1, W);
    uint32_t Index = Sigs.indexOf(Port.Name);
    PortInfo Info{Port.Name, Ty, Sigs.at(Index).Base, /*Packed=*/true};
    (Port.Direction == verilog::Dir::Input ? P.Inputs : P.Outputs)
        .push_back(std::move(Info));
  }

  // The wave signal list: every table signal except the clock, port
  // kinds from the direction.
  std::map<std::string, WaveSignal::Kind> PortKind;
  for (const verilog::Port &Port : M.ports())
    PortKind[Port.Name] = Port.Direction == verilog::Dir::Input
                              ? WaveSignal::Kind::Input
                              : WaveSignal::Kind::Output;
  for (uint32_t Index = 0; Index < Sigs.Table.size(); ++Index) {
    const Signals::Sig &S = Sigs.at(Index);
    if (S.Name == "clock")
      continue;
    WaveSignal::Kind K = WaveSignal::Kind::Internal;
    if (auto It = PortKind.find(S.Name); It != PortKind.end())
      K = It->second;
    P.Signals.push_back(
        {S.Name, S.Width, 64, (S.Width + 63) / 64, S.Base, K});
  }

  // Sequential state words and their edge connections.
  const std::vector<Item> &Items = M.items();
  struct FdreConns {
    const Expr *Ce, *R, *D;
  };
  std::map<size_t, FdreConns> FdreBind;
  std::map<size_t, const Expr *> DspCep;
  for (size_t Index = 0; Index < Items.size(); ++Index) {
    const Item &I = Items[Index];
    if (I.ItemKind != Item::Kind::Instance)
      continue;
    if (I.ModuleName == "FDRE") {
      FdreState[Index] = scratch();
      FdreConns C{connOf(I, "CE"), connOf(I, "R"), connOf(I, "D")};
      if (!C.Ce || !C.R || !C.D)
        return Status::failure("FDRE instance missing CE/R/D connection");
      FdreBind[Index] = C;
    } else if (I.ModuleName == "DSP48E2" && paramOf(I, "PREG", 0)) {
      DspState[Index] = scratch();
      const Expr *Cep = connOf(I, "CEP");
      if (!Cep)
        return Status::failure("DSP48E2 with PREG missing CEP connection");
      DspCep[Index] = Cep;
    }
  }

  Result<std::vector<size_t>> OrderOr = orderItems();
  if (!OrderOr)
    return Status::failure(OrderOr.error());

  // Init: state words take their INIT/PINIT values.
  E.use(P.Init);
  for (const auto &[Index, Word] : FdreState) {
    attribute(Items[Index]);
    E.loadConst(paramOf(Items[Index], "INIT", 0) != 0 ? 1 : 0);
    E.storeField(Word, 0, 1);
  }
  for (const auto &[Index, Word] : DspState) {
    attribute(Items[Index]);
    E.loadConst(paramOf(Items[Index], "PINIT", 0) & maskOf(48));
    E.storeField(Word, 0, 48);
  }
  E.endSeg();

  // Eval: each item exactly once, in topological order.
  E.use(P.Eval);
  for (size_t Index : OrderOr.value())
    if (Status S = emitEvalItem(Index); !S)
      return S;
  E.endSeg();

  // Commit: every next state is computed onto the stack against the
  // settled signals and the *old* state, then all stores happen.
  E.use(P.Commit);
  std::vector<uint32_t> StateStores; // state word per pushed value
  std::vector<unsigned> StateLens;
  std::vector<std::string> StateNames; // attribution per pushed value
  for (const auto &[Index, Word] : FdreState) {
    attribute(Items[Index]);
    const FdreConns &C = FdreBind.at(Index);
    Result<std::vector<Piece>> Ce = flatten(*C.Ce, Sigs);
    Result<std::vector<Piece>> R = flatten(*C.R, Sigs);
    Result<std::vector<Piece>> D = flatten(*C.D, Sigs);
    if (!Ce || !R || !D)
      return Status::failure("FDRE input evaluation failed");
    // inner = CE ? D : Q; next = R ? 0 : inner.
    E.loadField(Word, 0, 1); // if-false: hold
    loadBit(D.value(), 0);   // if-true: capture
    loadBit(Ce.value(), 0);  // condition
    E.op(Op::Select);
    E.loadConst(0);         // if-true: reset
    loadBit(R.value(), 0);  // condition
    E.op(Op::Select);
    StateStores.push_back(Word);
    StateLens.push_back(1);
    StateNames.push_back(itemLabel(Items[Index]));
  }
  for (const auto &[Index, Word] : DspState) {
    attribute(Items[Index]);
    if (Status S = emitDspComb(Items[Index]); !S)
      return S;
    Result<std::vector<Piece>> Cep = flatten(*DspCep.at(Index), Sigs);
    if (!Cep)
      return Status::failure(Cep.error());
    E.loadField(Word, 0, 48); // if-false: hold
    E.loadField(PW, 0, 48);   // if-true: capture the combinational P
    loadBit(Cep.value(), 0);  // condition
    E.op(Op::Select);
    StateStores.push_back(Word);
    StateLens.push_back(48);
    StateNames.push_back(itemLabel(Items[Index]));
  }
  for (size_t K = StateStores.size(); K-- > 0;) {
    if (StateNames[K].empty())
      E.clearSource();
    else
      E.setSource(StateNames[K]);
    E.storeField(StateStores[K], 0, StateLens[K]);
  }
  E.endSeg();

  P.NumWords = NextWord;
  return Status::success();
}

} // namespace

Result<Program> reticle::sim::compile(const Module &M,
                                      const obs::Context &Ctx) {
  obs::Span Sp(Ctx, "sim.compile.netlist");
  Sp.arg("module", M.name());
  Program P;
  P.Name = M.name();
  P.Source = "netlist";
  NetlistLowering Lowering(M, P);
  if (Status S = Lowering.run(); !S)
    return fail<Program>(S.error());
  Lowering.countInto(Ctx);
  if (Status S = verify(P); !S)
    return fail<Program>(S.error());
  return P;
}

Result<Program> reticle::sim::compile(const Module &M) {
  return compile(M, obs::Sinks().context());
}
