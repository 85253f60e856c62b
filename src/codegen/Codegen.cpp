//===- codegen/Codegen.cpp - Structural Verilog generation ---------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "obs/Telemetry.h"

#include <map>
#include <set>
#include <stdexcept>

using namespace reticle;
using namespace reticle::codegen;
using rasm::AsmInstr;
using rasm::AsmProgram;
using verilog::Dir;
using verilog::Expr;
using verilog::Item;
using verilog::Module;

namespace {

/// LUT INIT truth tables (inputs indexed I0, I1, I2 from the low bit).
constexpr uint64_t InitAnd2 = 0x8;   // I0 & I1
constexpr uint64_t InitOr2 = 0xE;    // I0 | I1
constexpr uint64_t InitXor2 = 0x6;   // I0 ^ I1
constexpr uint64_t InitXnor2 = 0x9;  // ~(I0 ^ I1)
constexpr uint64_t InitNot1 = 0x1;   // ~I0
constexpr uint64_t InitMux3 = 0xCA;  // I2 ? I1 : I0
constexpr uint64_t InitAndXor3 = 0x78; // (I0 & I1) ^ I2

/// Emits structural Verilog for one placed program.
class Emitter {
public:
  Emitter(const AsmProgram &Prog, const tdl::Target &Target,
          const device::Device &Dev)
      : Prog(Prog), Target(Target), Dev(Dev), Mod(Prog.name()) {}

  Result<Module> run();

private:
  // -- Name/type table: an Emitter-local interner maps every signal name
  // (ports, instruction results, aux wires, inlined temporaries) to a
  // dense id indexing the flat type vector. --
  bool hasType(const std::string &Name) const {
    return Names.lookup(Name) != ir::InvalidValueId;
  }
  /// First recording wins, matching the historical map emplace.
  void recordType(const std::string &Name, const ir::Type &Ty) {
    ir::ValueId Id = Names.intern(Name);
    if (Id == Types.size())
      Types.push_back(Ty);
  }
  const ir::Type &typeAt(const std::string &Name) const {
    ir::ValueId Id = Names.lookup(Name);
    if (Id == ir::InvalidValueId)
      throw std::out_of_range("no type recorded for '" + Name + "'");
    return Types[Id];
  }

  // -- Bit-level expression helpers (flattened bit order, lane 0 low). --
  unsigned widthOf(const std::string &Name) const {
    return typeAt(Name).totalBits();
  }
  Expr bit(const std::string &Name, unsigned Index) const {
    if (widthOf(Name) == 1)
      return Expr::ref(Name);
    return Expr::index(Expr::ref(Name), Index);
  }
  Expr bits(const std::string &Name, unsigned Hi, unsigned Lo) const {
    if (Lo == 0 && Hi + 1 == widthOf(Name))
      return Expr::ref(Name);
    if (Hi == Lo)
      return bit(Name, Lo);
    return Expr::range(Expr::ref(Name), Hi, Lo);
  }

  /// Declares a fresh helper wire and returns its name.
  std::string auxWire(const std::string &Base, unsigned Width) {
    std::string Name = Base + "__w" + std::to_string(AuxCounter++);
    Mod.addWire(Name, Width > 1 ? Width : 0);
    recordType(Name, ir::Type::makeInt(Width == 0 ? 1 : Width));
    return Name;
  }

  std::string instName() { return "i" + std::to_string(InstCounter++); }

  /// Next LUT BEL letter within the instruction's slice (A..H cycling).
  std::string nextBel() {
    static const char Letters[] = "ABCDEFGH";
    char L = Letters[BelCounter++ % Dev.lutsPerSlice()];
    return std::string(1, L) + "6LUT";
  }

  void addLutAttrs(Item &I, unsigned X, unsigned Y) {
    I.Attributes.push_back({"LOC", "SLICE_X" + std::to_string(X) + "Y" +
                                       std::to_string(Y)});
    I.Attributes.push_back({"BEL", nextBel()});
  }
  void addSliceLoc(Item &I, unsigned X, unsigned Y) {
    I.Attributes.push_back({"LOC", "SLICE_X" + std::to_string(X) + "Y" +
                                       std::to_string(Y)});
  }

  /// One LUT instance computing \p Init over \p Inputs, driving \p Out.
  void emitLut(const std::vector<Expr> &Inputs, Expr Out, uint64_t Init,
               unsigned X, unsigned Y) {
    unsigned K = static_cast<unsigned>(Inputs.size());
    Item &I = Mod.addInstance("LUT" + std::to_string(K), instName());
    addLutAttrs(I, X, Y);
    I.Params.push_back({"INIT", Expr::intLit(1u << K, Init)});
    for (unsigned P = 0; P < K; ++P)
      I.Connections.push_back({"I" + std::to_string(P), Inputs[P]});
    I.Connections.push_back({"O", std::move(Out)});
  }

  /// A carry chain adding/subtracting over precomputed propagate bits.
  /// \p Prop and \p Gen have \p Width bits; \p Sum receives the result.
  void emitCarryChain(const std::string &Prop, const std::string &Gen,
                      const std::string &Sum, unsigned Width, bool CarryInit,
                      unsigned X, unsigned Y) {
    unsigned Blocks = (Width + 7) / 8;
    Expr Carry = Expr::intLit(1, CarryInit ? 1 : 0);
    for (unsigned B = 0; B < Blocks; ++B) {
      unsigned Lo = B * 8;
      unsigned Hi = std::min(Width, Lo + 8) - 1;
      unsigned Span = Hi - Lo + 1;
      Item I = Module::makeInstance("CARRY8", instName());
      addSliceLoc(I, X, Y);
      auto Pad8 = [&](Expr E) {
        if (Span == 8)
          return E;
        return Expr::concat({Expr::intLit(8 - Span, 0), std::move(E)});
      };
      I.Connections.push_back({"S", Pad8(bits(Prop, Hi, Lo))});
      I.Connections.push_back({"DI", Pad8(bits(Gen, Hi, Lo))});
      I.Connections.push_back({"CI", Carry});
      std::string CoWire = auxWire(Sum, 8);
      std::string OWire = auxWire(Sum, 8);
      I.Connections.push_back({"CO", Expr::ref(CoWire)});
      I.Connections.push_back({"O", Expr::ref(OWire)});
      Mod.addItem(std::move(I));
      Mod.addAssign(bits(Sum, Hi, Lo), bits(OWire, Span - 1, 0));
      Carry = Expr::index(Expr::ref(CoWire), 7);
    }
  }

  // -- Instruction emitters. --
  Status emitWireInstr(const AsmInstr &I);
  Status emitDspInstr(const AsmInstr &I, const tdl::TargetDef &Def);
  Status emitLutInstr(const AsmInstr &I, const tdl::TargetDef &Def);
  Status emitLutBodyInstr(const ir::Instr &B, unsigned X, unsigned Y);

  const AsmProgram &Prog;
  const tdl::Target &Target;
  const device::Device &Dev;
  Module Mod;
  ir::NameInterner Names;
  std::vector<ir::Type> Types;
  std::set<std::string> PortNames;
  unsigned AuxCounter = 0;
  unsigned InstCounter = 0;
  unsigned BelCounter = 0;
};

Status Emitter::emitWireInstr(const AsmInstr &I) {
  ir::Type Ty = typeAt(I.dst());
  unsigned W = Ty.width();
  switch (I.wireOp()) {
  case ir::WireOp::Sll:
  case ir::WireOp::Srl:
  case ir::WireOp::Sra: {
    unsigned K = static_cast<unsigned>(I.attrs()[0]);
    const std::string &Src = I.args()[0];
    for (unsigned L = 0; L < Ty.lanes(); ++L) {
      unsigned Lo = L * W, Hi = Lo + W - 1;
      Expr Rhs = Expr::ref(Src);
      if (K == 0) {
        Rhs = bits(Src, Hi, Lo);
      } else if (I.wireOp() == ir::WireOp::Sll) {
        Rhs = Expr::concat(
            {bits(Src, Hi - K, Lo), Expr::intLit(K, 0)});
      } else if (I.wireOp() == ir::WireOp::Srl) {
        Rhs = Expr::concat({Expr::intLit(K, 0), bits(Src, Hi, Lo + K)});
      } else {
        Rhs = Expr::concat(
            {Expr::repeat(K, bit(Src, Hi)), bits(Src, Hi, Lo + K)});
      }
      Mod.addAssign(bits(I.dst(), Hi, Lo), std::move(Rhs));
    }
    return Status::success();
  }
  case ir::WireOp::Slice: {
    unsigned Off = static_cast<unsigned>(I.attrs()[0]);
    Mod.addAssign(Expr::ref(I.dst()),
                  bits(I.args()[0], Off + Ty.totalBits() - 1, Off));
    return Status::success();
  }
  case ir::WireOp::Cat: {
    // Second argument occupies the high bits.
    Mod.addAssign(Expr::ref(I.dst()),
                  Expr::concat({Expr::ref(I.args()[1]),
                                Expr::ref(I.args()[0])}));
    return Status::success();
  }
  case ir::WireOp::Id:
    Mod.addAssign(Expr::ref(I.dst()), Expr::ref(I.args()[0]));
    return Status::success();
  case ir::WireOp::Const: {
    // Constants come from power and ground rails: a plain literal.
    std::vector<Expr> Lanes;
    for (unsigned L = Ty.lanes(); L-- > 0;) {
      int64_t V = I.attrs().size() == 1 ? I.attrs()[0]
                                        : I.attrs()[L];
      uint64_t Mask = W == 64 ? ~uint64_t(0) : ((uint64_t(1) << W) - 1);
      Lanes.push_back(Expr::intLit(W, static_cast<uint64_t>(V) & Mask));
    }
    Mod.addAssign(Expr::ref(I.dst()),
                  Lanes.size() == 1 ? Lanes[0] : Expr::concat(Lanes));
    return Status::success();
  }
  }
  return Status::failure("unhandled wire operation");
}

Status Emitter::emitDspInstr(const AsmInstr &I, const tdl::TargetDef &Def) {
  ir::Type Ty = typeAt(I.dst());
  unsigned W = Ty.width();
  unsigned Lanes = Ty.lanes();
  unsigned X = static_cast<unsigned>(I.loc().X.offset());
  unsigned Y = static_cast<unsigned>(I.loc().Y.offset());

  // Decode the configuration from the operation name.
  const std::string &Name = Def.Name;
  bool HasMul = Name.rfind("mul", 0) == 0;
  bool HasPostAdd = Name.find("muladd") == 0;
  bool HasReg = Name.find("reg") != std::string::npos;
  bool CascadeOut = Name.find("_co") != std::string::npos ||
                    Name.find("_cio") != std::string::npos;
  bool CascadeIn = Name.find("_ci") != std::string::npos;
  bool IsSub = Name.rfind("sub", 0) == 0;

  Item D = Module::makeInstance("DSP48E2", instName());
  D.Attributes.push_back({"LOC", "DSP48E2_X" + std::to_string(X) + "Y" +
                                     std::to_string(Y)});
  const char *Simd = Lanes == 1 ? "ONE48" : (Lanes == 2 ? "TWO24" : "FOUR12");
  D.Params.push_back({"USE_SIMD", Expr::str(HasMul ? "ONE48" : Simd)});
  D.Params.push_back({"USE_MULT", Expr::str(HasMul ? "MULTIPLY" : "NONE")});
  D.Params.push_back({"ALUMODE", Expr::intLit(4, IsSub ? 0x3 : 0x0)});
  // OPMODE: the X/Y multiplexers take A:B (0x33) or the multiplier result
  // (0x05); the Z multiplexer takes C (0x30) or the cascade input PCIN
  // (0x10).
  unsigned Opmode = (HasMul ? 0x05u : 0x33u) |
                    ((CascadeIn ? 0x1u : 0x3u) << 4);
  D.Params.push_back({"OPMODE", Expr::intLit(9, Opmode)});
  D.Params.push_back({"PREG", Expr::intLit(1, HasReg ? 1 : 0)});
  // Non-zero register init values have no standard DSP48E2 parameter; the
  // PINIT extension keeps them visible to the netlist lowering (the
  // hardware P register powers up to zero).
  if (HasReg && !I.attrs().empty() && I.attrs()[0] != 0) {
    uint64_t Mask = (uint64_t(1) << 48) - 1;
    uint64_t Init = 0;
    for (unsigned L = Lanes; L-- > 0;) {
      uint64_t LaneVal = static_cast<uint64_t>(I.attrs()[0]) &
                         ((uint64_t(1) << W) - 1);
      Init = (Init << (48 / Lanes)) | LaneVal;
    }
    D.Params.push_back({"PINIT", Expr::intLit(48, Init & Mask)});
  }
  D.Params.push_back({"AREG", Expr::intLit(2, 0)});
  D.Params.push_back({"BREG", Expr::intLit(2, 0)});
  D.Params.push_back({"CREG", Expr::intLit(1, 0)});
  D.Params.push_back({"MREG", Expr::intLit(1, 0)});

  // Pack value operands into the 48-bit datapath. For the ALU ops the
  // first operand rides A:B and the second rides C; for multiplies the
  // operands ride A and B and the accumulator rides C (or PCIN).
  auto PackLanes = [&](const std::string &Arg, unsigned FieldBits,
                       unsigned Fields) {
    std::string Wire = auxWire(I.dst(), FieldBits * Fields);
    std::vector<Expr> Parts; // most significant first
    for (unsigned L = Fields; L-- > 0;) {
      if (L >= Lanes) {
        Parts.push_back(Expr::intLit(FieldBits, 0));
        continue;
      }
      unsigned Lo = L * W, Hi = Lo + W - 1;
      if (FieldBits == W)
        Parts.push_back(bits(Arg, Hi, Lo));
      else
        Parts.push_back(Expr::concat(
            {Expr::repeat(FieldBits - W, bit(Arg, Hi)), bits(Arg, Hi, Lo)}));
    }
    Mod.addAssign(Expr::ref(Wire),
                  Parts.size() == 1 ? Parts[0] : Expr::concat(Parts));
    return Wire;
  };
  auto SignExtend = [&](const std::string &Arg, unsigned To) {
    std::string Wire = auxWire(I.dst(), To);
    unsigned ArgBits = widthOf(Arg);
    Expr E = ArgBits >= To
                 ? bits(Arg, To - 1, 0)
                 : Expr::concat({Expr::repeat(To - ArgBits,
                                              bit(Arg, ArgBits - 1)),
                                 Expr::ref(Arg)});
    Mod.addAssign(Expr::ref(Wire), std::move(E));
    return Wire;
  };

  unsigned FieldBits = 48 / Lanes;
  std::string PWire = auxWire(I.dst(), 48);
  if (HasMul) {
    D.Connections.push_back({"A", Expr::ref(SignExtend(I.args()[0], 30))});
    D.Connections.push_back({"B", Expr::ref(SignExtend(I.args()[1], 18))});
    if (HasPostAdd && !CascadeIn)
      D.Connections.push_back({"C", Expr::ref(SignExtend(I.args()[2], 48))});
    else
      D.Connections.push_back({"C", Expr::intLit(48, 0)});
  } else {
    // ALU operations ride the concatenated A:B path (A holds the top 30
    // bits, B the low 18) against the C port. ALUMODE 0x3 computes
    // Z - X:Y, so subtraction puts the minuend on C (the Z multiplexer)
    // and the subtrahend on A:B.
    const std::string &AbArg = I.args()[IsSub ? 1 : 0];
    const std::string &CArg = I.args()[IsSub ? 0 : 1];
    std::string Ab = PackLanes(AbArg, FieldBits, Lanes);
    D.Connections.push_back({"A", bits(Ab, 47, 18)});
    D.Connections.push_back({"B", bits(Ab, 17, 0)});
    D.Connections.push_back(
        {"C", Expr::ref(PackLanes(CArg, FieldBits, Lanes))});
  }
  if (CascadeIn) {
    // The accumulator arrives over the dedicated cascade wires from the
    // vertically adjacent producer (Section 5.2).
    const std::string &Producer = I.args()[2];
    D.Connections.push_back({"PCIN", Expr::ref(Producer + "__pcout")});
  }
  if (CascadeOut) {
    std::string PcWire = I.dst() + "__pcout";
    Mod.addWire(PcWire, 48);
    recordType(PcWire, ir::Type::makeInt(48));
    D.Connections.push_back({"PCOUT", Expr::ref(PcWire)});
  }
  D.Connections.push_back({"P", Expr::ref(PWire)});
  D.Connections.push_back({"CLK", Expr::ref("clock")});
  if (HasReg)
    D.Connections.push_back({"CEP", Expr::ref(I.args().back())});
  else
    D.Connections.push_back({"CEP", Expr::intLit(1, 0)});

  Mod.addItem(std::move(D));

  // Unpack the result lanes from P.
  if (Lanes == 1) {
    Mod.addAssign(Expr::ref(I.dst()), bits(PWire, Ty.totalBits() - 1, 0));
  } else {
    std::vector<Expr> Parts;
    for (unsigned L = Lanes; L-- > 0;)
      Parts.push_back(bits(PWire, L * FieldBits + W - 1, L * FieldBits));
    Mod.addAssign(Expr::ref(I.dst()), Expr::concat(Parts));
  }
  return Status::success();
}

Status Emitter::emitLutBodyInstr(const ir::Instr &B, unsigned X, unsigned Y) {
  ir::Type Ty = typeAt(B.dst());
  unsigned Bits = Ty.totalBits();
  switch (B.compOp()) {
  case ir::CompOp::And:
  case ir::CompOp::Or:
  case ir::CompOp::Xor: {
    uint64_t Init = B.compOp() == ir::CompOp::And
                        ? InitAnd2
                        : (B.compOp() == ir::CompOp::Or ? InitOr2 : InitXor2);
    for (unsigned K = 0; K < Bits; ++K)
      emitLut({bit(B.args()[0], K), bit(B.args()[1], K)}, bit(B.dst(), K),
              Init, X, Y);
    return Status::success();
  }
  case ir::CompOp::Not:
    for (unsigned K = 0; K < Bits; ++K)
      emitLut({bit(B.args()[0], K)}, bit(B.dst(), K), InitNot1, X, Y);
    return Status::success();
  case ir::CompOp::Mux:
    for (unsigned K = 0; K < Bits; ++K)
      emitLut({bit(B.args()[2], K), bit(B.args()[1], K),
               Expr::ref(B.args()[0])},
              bit(B.dst(), K), InitMux3, X, Y);
    return Status::success();
  case ir::CompOp::Add:
  case ir::CompOp::Sub: {
    bool Sub = B.compOp() == ir::CompOp::Sub;
    // Per lane: propagate LUTs feed the slice carry chain.
    unsigned W = Ty.width();
    for (unsigned L = 0; L < Ty.lanes(); ++L) {
      std::string Prop = auxWire(B.dst(), W);
      std::string Gen = auxWire(B.dst(), W);
      for (unsigned K = 0; K < W; ++K) {
        unsigned Bit = L * W + K;
        emitLut({bit(B.args()[0], Bit), bit(B.args()[1], Bit)},
                bit(Prop, K), Sub ? InitXnor2 : InitXor2, X, Y);
        Mod.addAssign(bit(Gen, K), bit(B.args()[0], Bit));
      }
      std::string LaneSum = auxWire(B.dst(), W);
      emitCarryChain(Prop, Gen, LaneSum, W, Sub, X, Y);
      Mod.addAssign(bits(B.dst(), L * W + W - 1, L * W),
                    Expr::ref(LaneSum));
    }
    return Status::success();
  }
  case ir::CompOp::Eq:
  case ir::CompOp::Neq: {
    // Per-bit XNOR over the *argument* width, then a LUT6 AND-reduction
    // tree down to the single-bit result.
    unsigned ArgBits = typeAt(B.args()[0]).totalBits();
    std::string Xn = auxWire(B.dst(), ArgBits);
    for (unsigned K = 0; K < ArgBits; ++K)
      emitLut({bit(B.args()[0], K), bit(B.args()[1], K)}, bit(Xn, K),
              InitXnor2, X, Y);
    std::vector<Expr> Level;
    for (unsigned K = 0; K < ArgBits; ++K)
      Level.push_back(bit(Xn, K));
    bool Invert = B.compOp() == ir::CompOp::Neq;
    while (Level.size() > 1 || Invert) {
      std::vector<Expr> NextLevel;
      for (size_t Start = 0; Start < Level.size(); Start += 6) {
        size_t K = std::min<size_t>(6, Level.size() - Start);
        std::vector<Expr> Inputs(Level.begin() + Start,
                                 Level.begin() + Start + K);
        bool Last = Level.size() <= 6;
        // AND of K inputs: only the all-ones row is set.
        uint64_t Init = uint64_t(1) << ((uint64_t(1) << K) - 1);
        if (Last && Invert)
          Init = (K == 6 ? ~Init
                         : ((uint64_t(1) << (uint64_t(1) << K)) - 1) & ~Init);
        std::string OutWire = auxWire(B.dst(), 1);
        emitLut(Inputs, Expr::ref(OutWire), Init, X, Y);
        NextLevel.push_back(Expr::ref(OutWire));
      }
      if (Level.size() <= 6)
        Invert = false;
      Level = std::move(NextLevel);
      if (Level.size() == 1 && !Invert)
        break;
    }
    Mod.addAssign(Expr::ref(B.dst()), Level[0]);
    return Status::success();
  }
  case ir::CompOp::Lt:
  case ir::CompOp::Gt:
  case ir::CompOp::Le:
  case ir::CompOp::Ge: {
    // A carry-chain comparator: subtract and inspect the result sign.
    // Gt/Le swap operands; Le/Ge invert the strict comparison.
    bool SwapArgs = B.compOp() == ir::CompOp::Gt ||
                    B.compOp() == ir::CompOp::Le;
    bool InvertOut = B.compOp() == ir::CompOp::Le ||
                     B.compOp() == ir::CompOp::Ge;
    const std::string &A = B.args()[SwapArgs ? 1 : 0];
    const std::string &C = B.args()[SwapArgs ? 0 : 1];
    unsigned W = typeAt(A).totalBits();
    std::string Prop = auxWire(B.dst(), W);
    std::string Gen = auxWire(B.dst(), W);
    for (unsigned K = 0; K < W; ++K) {
      emitLut({bit(A, K), bit(C, K)}, bit(Prop, K), InitXnor2, X, Y);
      Mod.addAssign(bit(Gen, K), bit(A, K));
    }
    std::string Diff = auxWire(B.dst(), W);
    emitCarryChain(Prop, Gen, Diff, W, /*CarryInit=*/true, X, Y);
    // Signed less-than: sign(a) != sign(b) ? sign(a) : sign(diff).
    std::string SignPick = auxWire(B.dst(), 1);
    emitLut({bit(A, W - 1), bit(C, W - 1), bit(Diff, W - 1)},
            Expr::ref(SignPick),
            /*INIT: I0^I1 ? I0 : I2*/ 0xB2, X, Y);
    if (InvertOut)
      emitLut({Expr::ref(SignPick)}, Expr::ref(B.dst()), InitNot1, X, Y);
    else
      Mod.addAssign(Expr::ref(B.dst()), Expr::ref(SignPick));
    return Status::success();
  }
  case ir::CompOp::Reg: {
    uint64_t Init = static_cast<uint64_t>(B.attrs()[0]);
    unsigned W = Ty.width();
    for (unsigned K = 0; K < Bits; ++K) {
      Item &F = Mod.addInstance("FDRE", instName());
      addSliceLoc(F, X, Y);
      F.Params.push_back({"INIT", Expr::intLit(1, (Init >> (K % W)) & 1)});
      F.Connections.push_back({"C", Expr::ref("clock")});
      F.Connections.push_back({"CE", Expr::ref(B.args()[1])});
      F.Connections.push_back({"R", Expr::intLit(1, 0)});
      F.Connections.push_back({"D", bit(B.args()[0], K)});
      F.Connections.push_back({"Q", bit(B.dst(), K)});
    }
    return Status::success();
  }
  case ir::CompOp::Mul: {
    // A LUT multiplier: each row combines the partial product with the
    // running sum through AND-XOR LUT3s and a carry chain (the classic
    // reason LUT multipliers cost ~width^2 LUTs).
    unsigned W = Ty.width();
    for (unsigned L = 0; L < Ty.lanes(); ++L) {
      unsigned Lo = L * W;
      std::string Acc = auxWire(B.dst(), W);
      // Row 0: plain AND partial products.
      for (unsigned K = 0; K < W; ++K)
        emitLut({bit(B.args()[0], Lo + K), bit(B.args()[1], Lo)},
                bit(Acc, K), InitAnd2, X, Y);
      for (unsigned R = 1; R < W; ++R) {
        std::string Prop = auxWire(B.dst(), W);
        std::string Gen = auxWire(B.dst(), W);
        for (unsigned K = 0; K + R < W; ++K) {
          emitLut({bit(B.args()[0], Lo + K), bit(B.args()[1], Lo + R),
                   bit(Acc, K + R)},
                  bit(Prop, K + R), InitAndXor3, X, Y);
          Mod.addAssign(bit(Gen, K + R), bit(Acc, K + R));
        }
        for (unsigned K = 0; K < R && K < W; ++K) {
          Mod.addAssign(bit(Prop, K), bit(Acc, K));
          Mod.addAssign(bit(Gen, K), Expr::intLit(1, 0));
        }
        std::string Next = auxWire(B.dst(), W);
        emitCarryChain(Prop, Gen, Next, W, false, X, Y);
        Acc = Next;
      }
      Mod.addAssign(bits(B.dst(), Lo + W - 1, Lo), Expr::ref(Acc));
    }
    return Status::success();
  }
  }
  return Status::failure("operation '" + B.str() +
                         "' has no LUT-level expansion");
}

Status Emitter::emitLutInstr(const AsmInstr &I, const tdl::TargetDef &Def) {
  unsigned X = static_cast<unsigned>(I.loc().X.offset());
  unsigned Y = static_cast<unsigned>(I.loc().Y.offset());
  BelCounter = 0;

  // Inline the definition body with renamed temporaries, then expand each
  // compute instruction to primitives and each wire instruction to
  // assigns.
  ir::Function Body = Def.toFunction(I.attrs());
  std::map<std::string, std::string> Rename;
  for (size_t K = 0; K < Def.Inputs.size(); ++K)
    Rename[Def.Inputs[K].Name] = I.args()[K];
  Rename[Def.Output.Name] = I.dst();
  auto Mapped = [&](const std::string &Name) {
    auto It = Rename.find(Name);
    return It != Rename.end() ? It->second : I.dst() + "__" + Name;
  };
  for (const ir::Instr &B : Body.body()) {
    std::string Dst = Mapped(B.dst());
    if (!hasType(Dst)) {
      Mod.addWire(Dst, B.type().totalBits() > 1 ? B.type().totalBits() : 0);
      recordType(Dst, B.type());
    }
    std::vector<std::string> Args;
    for (const std::string &Arg : B.args())
      Args.push_back(Mapped(Arg));
    ir::Instr Local =
        B.isWire()
            ? ir::Instr::makeWire(Dst, B.type(), B.wireOp(), B.attrs(), Args)
            : ir::Instr::makeComp(Dst, B.type(), B.compOp(), Args,
                                  B.attrs());
    if (Local.isWire()) {
      rasm::AsmInstr W = rasm::AsmInstr::makeWire(
          Local.dst(), Local.type(), Local.wireOp(), Local.attrs(),
          Local.args());
      if (Status S = emitWireInstr(W); !S)
        return S;
    } else {
      if (Status S = emitLutBodyInstr(Local, X, Y); !S)
        return S;
    }
  }
  return Status::success();
}

Result<Module> Emitter::run() {
  if (!Prog.isPlaced())
    return fail<Module>("program '" + Prog.name() +
                        "' has unresolved locations; run placement first");

  Mod.addPort(Dir::Input, "clock");
  PortNames.insert("clock");
  for (const ir::Port &P : Prog.inputs()) {
    Mod.addPort(Dir::Input, P.Name,
                P.Ty.totalBits() > 1 ? P.Ty.totalBits() : 0);
    recordType(P.Name, P.Ty);
    if (!PortNames.insert(P.Name).second)
      return fail<Module>("duplicate port '" + P.Name + "'");
  }
  for (const ir::Port &P : Prog.outputs()) {
    if (PortNames.count(P.Name))
      return fail<Module>("output '" + P.Name +
                          "' conflicts with an input port; insert an id "
                          "instruction to rename it");
    Mod.addPort(Dir::Output, P.Name,
                P.Ty.totalBits() > 1 ? P.Ty.totalBits() : 0);
    PortNames.insert(P.Name);
  }
  // Declare a wire for every instruction result that is not an output
  // port, and record all result types.
  for (const AsmInstr &I : Prog.body())
    recordType(I.dst(), I.type());
  for (const AsmInstr &I : Prog.body()) {
    bool IsOutput = false;
    for (const ir::Port &P : Prog.outputs())
      if (P.Name == I.dst())
        IsOutput = true;
    if (!IsOutput)
      Mod.addWire(I.dst(),
                  I.type().totalBits() > 1 ? I.type().totalBits() : 0);
  }

  for (const AsmInstr &I : Prog.body()) {
    if (I.isWire()) {
      if (Status S = emitWireInstr(I); !S)
        return fail<Module>(S.error());
      continue;
    }
    std::vector<ir::Type> ArgTypes;
    for (const std::string &Arg : I.args()) {
      ir::ValueId Id = Names.lookup(Arg);
      if (Id == ir::InvalidValueId)
        return fail<Module>("in '" + I.str() + "': undefined variable '" +
                            Arg + "'");
      ArgTypes.push_back(Types[Id]);
    }
    const tdl::TargetDef *Def =
        Target.resolve(I.opName(), I.loc().Prim, ArgTypes, I.type());
    if (!Def)
      return fail<Module>("in '" + I.str() + "': no definition of '" +
                          I.opName() + "' on target '" + Target.name() +
                          "'");
    Status S = I.loc().Prim == ir::Resource::Dsp ? emitDspInstr(I, *Def)
                                                 : emitLutInstr(I, *Def);
    if (!S)
      return fail<Module>(S.error());
  }
  return Mod;
}

} // namespace

Result<verilog::Module> reticle::codegen::generate(const AsmProgram &Placed,
                                                   const tdl::Target &Target,
                                                   const device::Device &Dev,
                                                   Utilization *Util,
                                                   const obs::Context &Ctx) {
  ++Ctx.counter("codegen.generates");
  obs::Span Sp(Ctx, "codegen.generate");
  Sp.arg("instrs", static_cast<uint64_t>(Placed.body().size()));
  Emitter E(Placed, Target, Dev);
  Result<Module> M = E.run();
  if (M) {
    Ctx.counter("codegen.instances") += M.value().items().size();
    Sp.arg("items", static_cast<uint64_t>(M.value().items().size()));
  }
  if (M && Util) {
    Util->Luts = M.value().countInstances("LUT");
    Util->Dsps = M.value().countInstances("DSP48E2");
    Util->Carries = M.value().countInstances("CARRY8");
    Util->Ffs = M.value().countInstances("FDRE");
  }
  return M;
}
