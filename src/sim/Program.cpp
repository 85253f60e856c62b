//===- sim/Program.cpp - Program verification and disassembly ---------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sim/Program.h"

#include <array>
#include <cstdio>
#include <sstream>

using namespace reticle;
using namespace reticle::sim;

namespace {

struct OpDesc {
  const char *Name;
  uint8_t Operands;
  uint8_t Pops;
  uint8_t Pushes;
};

constexpr std::array<OpDesc, NumOps> OpTable = {{
    {"endseg", 0, 0, 0},     // EndSeg
    {"loadconst", 1, 0, 1},  // LoadConst
    {"loadfield", 3, 0, 1},  // LoadField
    {"storefield", 3, 1, 0}, // StoreField
    {"dup", 0, 1, 2},        // Dup
    {"canon", 1, 1, 1},      // Canon
    {"bool", 0, 1, 1},       // Bool
    {"mask", 1, 1, 1},       // Mask
    {"add", 0, 2, 1},        // Add
    {"sub", 0, 2, 1},        // Sub
    {"mul", 0, 2, 1},        // Mul
    {"notb", 0, 1, 1},       // NotB
    {"andb", 0, 2, 1},       // AndB
    {"orb", 0, 2, 1},        // OrB
    {"xorb", 0, 2, 1},       // XorB
    {"shl", 1, 1, 1},        // Shl
    {"shr", 1, 1, 1},        // Shr
    {"sar", 1, 1, 1},        // Sar
    {"shrv", 0, 2, 1},       // ShrV
    {"cmpeq", 0, 2, 1},      // CmpEq
    {"cmpne", 0, 2, 1},      // CmpNe
    {"cmplt", 0, 2, 1},      // CmpLt
    {"cmpgt", 0, 2, 1},      // CmpGt
    {"cmple", 0, 2, 1},      // CmpLe
    {"cmpge", 0, 2, 1},      // CmpGe
    {"select", 0, 3, 1},     // Select
}};

const char *SegNames[3] = {"init", "eval", "commit"};

const char *kindName(WaveSignal::Kind K) {
  switch (K) {
  case WaveSignal::Kind::Input:
    return "input";
  case WaveSignal::Kind::Output:
    return "output";
  case WaveSignal::Kind::Internal:
    return "internal";
  }
  return "internal";
}

/// Checks one segment's stack discipline and operand bounds.
Status verifySegment(const Program &P, const std::vector<uint32_t> &Code,
                     const char *Seg) {
  auto Fail = [&](size_t Pc, const std::string &Msg) {
    return Status::failure("sim program '" + P.Name + "': segment " + Seg +
                           " at word " + std::to_string(Pc) + ": " + Msg);
  };
  size_t Depth = 0;
  size_t Pc = 0;
  bool Terminated = false;
  while (Pc < Code.size()) {
    uint32_t Raw = Code[Pc];
    if (Raw >= NumOps)
      return Fail(Pc, "invalid opcode " + std::to_string(Raw));
    Op O = static_cast<Op>(Raw);
    const OpDesc &D = OpTable[Raw];
    if (Pc + 1 + D.Operands > Code.size())
      return Fail(Pc, std::string("truncated operands for '") + D.Name + "'");
    const uint32_t *A = Code.data() + Pc + 1;
    switch (O) {
    case Op::EndSeg:
      if (Depth != 0)
        return Fail(Pc, "segment ends with " + std::to_string(Depth) +
                            " value(s) on the stack");
      if (Pc + 1 != Code.size())
        return Fail(Pc, "code after segment terminator");
      Terminated = true;
      break;
    case Op::LoadConst:
      if (A[0] >= P.Pool.size())
        return Fail(Pc, "constant pool index " + std::to_string(A[0]) +
                            " out of bounds (pool size " +
                            std::to_string(P.Pool.size()) + ")");
      break;
    case Op::LoadField:
    case Op::StoreField:
      if (A[0] >= P.NumWords)
        return Fail(Pc, "word index " + std::to_string(A[0]) +
                            " out of bounds (table size " +
                            std::to_string(P.NumWords) + ")");
      if (A[2] < 1 || A[2] > 64 || A[1] >= 64 || A[1] + A[2] > 64)
        return Fail(Pc, "field [" + std::to_string(A[1]) + ", " +
                            std::to_string(A[1] + A[2]) +
                            ") outside a 64-bit word");
      break;
    case Op::Canon:
    case Op::Mask:
      if (A[0] < 1 || A[0] > 64)
        return Fail(Pc, "width " + std::to_string(A[0]) + " out of range");
      break;
    case Op::Shl:
    case Op::Shr:
    case Op::Sar:
      if (A[0] >= 64)
        return Fail(Pc, "shift amount " + std::to_string(A[0]) +
                            " out of range");
      break;
    default:
      break;
    }
    if (Depth < D.Pops)
      return Fail(Pc, std::string("stack underflow in '") + D.Name +
                          "' (depth " + std::to_string(Depth) + ", pops " +
                          std::to_string(D.Pops) + ")");
    Depth = Depth - D.Pops + D.Pushes;
    if (Depth > P.MaxStack)
      return Fail(Pc, "stack depth " + std::to_string(Depth) +
                          " exceeds declared maximum " +
                          std::to_string(P.MaxStack));
    Pc += 1 + D.Operands;
  }
  if (!Terminated)
    return Status::failure("sim program '" + P.Name + "': segment " +
                           std::string(Seg) + " is not endseg-terminated");
  return Status::success();
}

Status verifyPorts(const Program &P, const std::vector<PortInfo> &Ports,
                   const char *What) {
  for (const PortInfo &Port : Ports) {
    unsigned Words = Port.Packed ? (Port.Ty.totalBits() + 63) / 64
                                 : Port.Ty.lanes();
    if (Port.Base + Words > P.NumWords)
      return Status::failure("sim program '" + P.Name + "': " + What +
                             " port '" + Port.Name +
                             "' extends past the word table");
  }
  return Status::success();
}

} // namespace

const char *reticle::sim::opName(Op O) {
  return OpTable[uint32_t(O)].Name;
}

unsigned reticle::sim::opOperands(Op O) {
  return OpTable[uint32_t(O)].Operands;
}

unsigned reticle::sim::opPops(Op O) { return OpTable[uint32_t(O)].Pops; }

unsigned reticle::sim::opPushes(Op O) { return OpTable[uint32_t(O)].Pushes; }

Status reticle::sim::verify(const Program &P) {
  if (P.Source != "ir" && P.Source != "netlist")
    return Status::failure("sim program '" + P.Name + "': unknown source '" +
                           P.Source + "'");
  const std::vector<uint32_t> *Segs[3] = {&P.Init, &P.Eval, &P.Commit};
  for (unsigned I = 0; I < 3; ++I)
    if (Status S = verifySegment(P, *Segs[I], SegNames[I]); !S)
      return S;
  for (const SignalInfo &S : P.Signals) {
    if (S.Lanes == 0 || S.LaneWidth == 0 || S.LaneWidth > 64 ||
        S.Width == 0 || S.Width > S.LaneWidth * S.Lanes)
      return Status::failure("sim program '" + P.Name + "': signal '" +
                             S.Name + "' has inconsistent geometry");
    if (S.Base + S.Lanes > P.NumWords)
      return Status::failure("sim program '" + P.Name + "': signal '" +
                             S.Name + "' extends past the word table");
  }
  if (Status S = verifyPorts(P, P.Inputs, "input"); !S)
    return S;
  if (Status S = verifyPorts(P, P.Outputs, "output"); !S)
    return S;
  // Debug-info side table: marks must stay offset-sorted within their
  // segment and reference interned names (or the explicit no-source
  // sentinel), so every printed mark names a real source.
  for (unsigned SegIx = 0; SegIx < 3; ++SegIx) {
    const std::vector<SourceMark> &Marks = P.marks(SegIx);
    for (size_t I = 0; I < Marks.size(); ++I) {
      if (I && Marks[I].Offset <= Marks[I - 1].Offset)
        return Status::failure("sim program '" + P.Name + "': segment " +
                               SegNames[SegIx] +
                               " has out-of-order source marks");
      if (Marks[I].Name != SourceMark::NoSource &&
          Marks[I].Name >= P.SourceNames.size())
        return Status::failure("sim program '" + P.Name + "': segment " +
                               SegNames[SegIx] +
                               " source mark references unknown name index " +
                               std::to_string(Marks[I].Name));
    }
  }
  return Status::success();
}

std::string reticle::sim::disassemble(const Program &P) {
  std::ostringstream Out;
  Out << "reticle-sim-program-v1\n";
  Out << "program name=" << P.Name << " source=" << P.Source
      << " words=" << P.NumWords << " stack=" << P.MaxStack << "\n";
  for (size_t I = 0; I < P.Pool.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%llx",
                  static_cast<unsigned long long>(P.Pool[I]));
    Out << "const " << I << " " << Buf << "\n";
  }
  for (const SignalInfo &S : P.Signals)
    Out << "signal name=" << S.Name << " kind=" << kindName(S.Kind)
        << " width=" << S.Width << " lanewidth=" << S.LaneWidth
        << " lanes=" << S.Lanes << " base=" << S.Base << "\n";
  auto Port = [&](const char *What, const PortInfo &I) {
    Out << What << " name=" << I.Name << " type=" << I.Ty.str()
        << " base=" << I.Base << " packed=" << (I.Packed ? 1 : 0) << "\n";
  };
  for (const PortInfo &I : P.Inputs)
    Port("input", I);
  for (const PortInfo &I : P.Outputs)
    Port("output", I);
  const std::vector<uint32_t> *Segs[3] = {&P.Init, &P.Eval, &P.Commit};
  for (unsigned SegIx = 0; SegIx < 3; ++SegIx) {
    Out << "segment " << SegNames[SegIx] << "\n";
    const std::vector<uint32_t> &Code = *Segs[SegIx];
    const std::vector<SourceMark> &Marks = P.marks(SegIx);
    size_t MarkIx = 0;
    size_t Pc = 0;
    while (Pc < Code.size()) {
      // Debug-info marks print ahead of the instruction they cover;
      // marks off an instruction boundary (malformed input) are dropped.
      for (; MarkIx < Marks.size() && Marks[MarkIx].Offset <= Pc; ++MarkIx)
        if (Marks[MarkIx].Offset == Pc) {
          uint32_t Name = Marks[MarkIx].Name;
          Out << "  src "
              << (Name < P.SourceNames.size() ? P.SourceNames[Name].c_str()
                                              : "-")
              << "\n";
        }
      uint32_t Raw = Code[Pc];
      if (Raw >= NumOps) {
        // Malformed programs still disassemble (for debugging); the raw
        // word is shown and decoding resumes at the next word.
        Out << "  .word " << Raw << "\n";
        ++Pc;
        continue;
      }
      const OpDesc &D = OpTable[Raw];
      Out << "  " << D.Name;
      for (unsigned A = 0; A < D.Operands && Pc + 1 + A < Code.size(); ++A)
        Out << " " << Code[Pc + 1 + A];
      Out << "\n";
      Pc += 1 + D.Operands;
    }
  }
  Out << "end\n";
  return Out.str();
}
