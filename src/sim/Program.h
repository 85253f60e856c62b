//===- sim/Program.h - Compiled simulation programs -------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled-simulation program format: a design (IR function or
/// generated netlist) lowered once into flat word-oriented bytecode that a
/// tight VM loop executes per cycle, instead of re-walking instruction or
/// expression trees every cycle (the "scale with data, not code size"
/// shape of scheduler-bytecode VMs).
///
/// A `Program` holds:
///
///  - a dense *word table*: every signal's value lives in one or more
///    64-bit words at a fixed base offset. IR signals store one canonical
///    (sign-extended) lane per word, exactly as `interp::Value` lanes;
///    netlist signals store bits packed 64 per word. Hidden scratch words
///    (register next-state staging, carry chains, DSP temporaries) live
///    past the named signals.
///  - a *constant pool* of 64-bit words referenced by `LoadConst`.
///  - three bytecode *segments*, each a flat `uint32_t` stream of
///    fixed-arity instructions terminated by `EndSeg`: `Init` runs once
///    (register/state initial values, constants), `Eval` runs every cycle
///    in topological order, and `Commit` runs at each clock edge
///    (computing all next states before storing any, so registers update
///    simultaneously).
///  - boundary metadata: input/output ports (how trace `Value`s map onto
///    table words) and the waveform signal list (how table words pack
///    into the per-cycle values a `WaveSink` observes).
///
/// Instructions operate on an operand stack of 64-bit words; the verifier
/// checks stack discipline and operand bounds ahead of execution, and the
/// disassembler renders programs as text for debugging
/// (`reticlec --dump-sim-program`).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_SIM_PROGRAM_H
#define RETICLE_SIM_PROGRAM_H

#include "interp/Wave.h"
#include "ir/Type.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace reticle {
namespace sim {

/// The bytecode instruction set. Every instruction is one opcode word
/// followed by a fixed number of operand words (`opOperands`). Stack
/// values are raw 64-bit words; "canonical" means the low-W-bits payload
/// sign-extended to 64 bits, the `interp::Value` lane representation.
enum class Op : uint32_t {
  EndSeg = 0, ///< terminates a segment; stack must be empty
  LoadConst,  ///< [pool] push Pool[pool]
  LoadField,  ///< [word, lo, len] push (Words[word] >> lo) & mask(len)
  StoreField, ///< [word, lo, len] pop v; Words[word] bits [lo,lo+len) = v
  Dup,        ///< push a copy of the top of stack
  Canon,      ///< [w] pop v; push low w bits sign-extended
  Bool,       ///< pop v; push v != 0 (bool-lane canonicalization)
  Mask,       ///< [w] pop v; push v & mask(w)
  Add,        ///< pop b, a; push a + b (mod 2^64)
  Sub,        ///< pop b, a; push a - b (mod 2^64)
  Mul,        ///< pop b, a; push a * b (mod 2^64)
  NotB,       ///< pop v; push ~v
  AndB,       ///< pop b, a; push a & b
  OrB,        ///< pop b, a; push a | b
  XorB,       ///< pop b, a; push a ^ b
  Shl,        ///< [amt] pop v; push v << amt (amt < 64)
  Shr,        ///< [amt] pop v; push v >> amt, logical (amt < 64)
  Sar,        ///< [amt] pop v; push v >> amt, arithmetic (amt < 64)
  ShrV,       ///< pop amt, v; push amt < 64 ? v >> amt : 0 (logical)
  CmpEq,      ///< pop b, a; push (int64)a == (int64)b
  CmpNe,      ///< pop b, a; push (int64)a != (int64)b
  CmpLt,      ///< pop b, a; push (int64)a <  (int64)b
  CmpGt,      ///< pop b, a; push (int64)a >  (int64)b
  CmpLe,      ///< pop b, a; push (int64)a <= (int64)b
  CmpGe,      ///< pop b, a; push (int64)a >= (int64)b
  Select,     ///< pop cond, ifTrue, ifFalse; push cond ? ifTrue : ifFalse
};

/// Number of distinct opcodes (for opcode counts and validation).
constexpr uint32_t NumOps = uint32_t(Op::Select) + 1;

/// The lowercase mnemonic of \p O ("loadfield", "cmpeq", ...).
const char *opName(Op O);

/// Number of operand words following \p O's opcode word.
unsigned opOperands(Op O);

/// Net stack effect: how many words \p O pops and pushes.
unsigned opPops(Op O);
unsigned opPushes(Op O);

/// One named signal in the word table, with enough metadata to pack its
/// words into the LSB-first word layout the wave layer observes: lane L
/// contributes the low `min(LaneWidth, Width - L*LaneWidth)` bits of word
/// `Base + L`, at flattened bit `L*LaneWidth`.
struct SignalInfo {
  std::string Name;
  unsigned Width = 1;     ///< flattened bit count
  unsigned LaneWidth = 1; ///< bits carried per table word
  unsigned Lanes = 1;     ///< table words
  uint32_t Base = 0;      ///< first table word
  WaveSignal::Kind Kind = WaveSignal::Kind::Internal;
};

/// One boundary port: how a trace `Value` maps onto table words. IR
/// programs store one canonical lane per word (`Packed` false); netlist
/// programs store flattened bits packed 64 per word (`Packed` true).
struct PortInfo {
  std::string Name;
  ir::Type Ty;
  uint32_t Base = 0;
  bool Packed = false;
};

/// One debug-info attribution mark: instructions from word `Offset` of a
/// segment up to the next mark (or the segment end) originate from
/// `Program::SourceNames[Name]` — an IR instruction destination or a
/// netlist signal. `Name == NoSource` explicitly ends an attributed range.
struct SourceMark {
  /// Sentinel name index: the range is unattributed.
  static constexpr uint32_t NoSource = ~uint32_t(0);

  uint32_t Offset = 0;
  uint32_t Name = 0;
};

/// A compiled simulation program. Produced by `sim::compile`, checked by
/// `sim::verify`, executed by `sim::execute`.
struct Program {
  std::string Name;   ///< source function or module name
  std::string Source; ///< "ir" or "netlist"
  uint32_t NumWords = 0;
  uint32_t MaxStack = 0;
  std::vector<uint64_t> Pool;
  std::vector<uint32_t> Init;
  std::vector<uint32_t> Eval;
  std::vector<uint32_t> Commit;
  std::vector<SignalInfo> Signals; ///< wave signal list, in stream order
  std::vector<PortInfo> Inputs;    ///< name-unsorted declaration order
  std::vector<PortInfo> Outputs;

  /// Debug-info side table: interned attribution names plus one
  /// offset-sorted mark list per segment, mapping every bytecode range
  /// back to the IR instruction / netlist signal the lowering emitted it
  /// for. Purely observational — execution never reads it — but the
  /// verifier checks it and the text format carries it.
  std::vector<std::string> SourceNames;
  std::vector<SourceMark> InitSrc;
  std::vector<SourceMark> EvalSrc;
  std::vector<SourceMark> CommitSrc;

  /// The mark list of segment \p SegIx (0 init, 1 eval, 2 commit).
  const std::vector<SourceMark> &marks(unsigned SegIx) const {
    return SegIx == 0 ? InitSrc : SegIx == 1 ? EvalSrc : CommitSrc;
  }
};

/// Structural verification: every segment is `EndSeg`-terminated, opcodes
/// and operand fields are in bounds (word/pool indexes, field widths,
/// shift amounts), the stack never underflows, never exceeds `MaxStack`,
/// and is empty at each `EndSeg`.
Status verify(const Program &P);

/// Renders \p P as the `reticle-sim-program-v1` text format.
std::string disassemble(const Program &P);

} // namespace sim
} // namespace reticle

#endif // RETICLE_SIM_PROGRAM_H
