//===- sim/Emitter.h - Bytecode emission helper (internal) ------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The emission helper both lowering passes share: appends fixed-arity
/// instructions to the active segment, interns constants into the pool
/// (first-use order, so compilation stays deterministic), tracks the
/// stack depth high-water mark that becomes `Program::MaxStack`, and
/// accumulates the static opcode histogram reported through the
/// `sim.vm.op.*` counters. Internal to the sim library.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_SIM_EMITTER_H
#define RETICLE_SIM_EMITTER_H

#include "obs/Context.h"
#include "sim/Program.h"

#include <array>
#include <cassert>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace reticle {
namespace sim {
namespace detail {

class Emitter {
public:
  explicit Emitter(Program &P) : Prog(P) {}

  /// Makes \p Seg the active segment for subsequent emissions.
  void use(std::vector<uint32_t> &Seg) {
    Code = &Seg;
    LastInstr = NoInstr;
    Marks = &Seg == &Prog.Init     ? &Prog.InitSrc
            : &Seg == &Prog.Eval   ? &Prog.EvalSrc
            : &Seg == &Prog.Commit ? &Prog.CommitSrc
                                   : nullptr;
    clearSource();
  }

  /// Attributes subsequently emitted instructions to source \p Name (an
  /// IR instruction destination or netlist signal). Marks land lazily on
  /// the next emission, so naming a source that emits nothing leaves no
  /// debris in the side table.
  void setSource(std::string_view Name) {
    if (HaveSource && CurName == Name)
      return;
    CurName.assign(Name);
    HaveSource = true;
    CurInterned = false;
  }

  /// Ends the current attribution range; following instructions are
  /// unattributed until the next setSource().
  void clearSource() {
    HaveSource = false;
    CurInterned = false;
  }

  void op(Op O, std::initializer_list<uint32_t> Operands = {}) {
    assert(Code && "no active segment");
    assert(Operands.size() == opOperands(O) && "operand arity mismatch");
    mark();
    LastInstr = Code->size();
    Code->push_back(static_cast<uint32_t>(O));
    for (uint32_t A : Operands)
      Code->push_back(A);
    assert(Depth >= opPops(O) && "emitted a stack underflow");
    Depth = Depth - opPops(O) + opPushes(O);
    if (Depth > Prog.MaxStack)
      Prog.MaxStack = static_cast<uint32_t>(Depth);
    ++Histogram[static_cast<uint32_t>(O)];
  }

  void endSeg() { op(Op::EndSeg); }

  /// Interns \p V into the constant pool and returns its index.
  uint32_t constant(uint64_t V) {
    auto [It, Inserted] =
        PoolIndex.try_emplace(V, static_cast<uint32_t>(Prog.Pool.size()));
    if (Inserted)
      Prog.Pool.push_back(V);
    return It->second;
  }

  void loadConst(uint64_t V) { op(Op::LoadConst, {constant(V)}); }
  void loadField(uint32_t Word, uint32_t Lo, uint32_t Len) {
    // Peephole: a whole-word load of the word the previous instruction
    // just whole-word stored is the stored value itself. Rewriting
    // `store w; load w` into `dup; store w` drops a table round-trip —
    // the common def-then-use adjacency in topo-ordered lowering.
    if (Lo == 0 && Len == 64 && LastInstr != NoInstr &&
        Code->size() - LastInstr == 4 &&
        (*Code)[LastInstr] == static_cast<uint32_t>(Op::StoreField) &&
        (*Code)[LastInstr + 1] == Word && (*Code)[LastInstr + 2] == 0 &&
        (*Code)[LastInstr + 3] == 64) {
      Code->insert(Code->begin() + LastInstr,
                   static_cast<uint32_t>(Op::Dup));
      // The insertion shifts every instruction at or past the store by
      // one word; debug marks pointing there (only the sorted tail can)
      // shift with it, so they keep naming instruction boundaries. The
      // dup itself joins the preceding mark's range.
      if (Marks)
        for (auto It = Marks->rbegin();
             It != Marks->rend() && It->Offset >= LastInstr; ++It)
          ++It->Offset;
      ++LastInstr; // the store, shifted by the inserted dup
      ++Histogram[static_cast<uint32_t>(Op::Dup)];
      ++Depth; // the duplicate survives the store, like the load would
      if (Depth + 1 > Prog.MaxStack)
        Prog.MaxStack = static_cast<uint32_t>(Depth + 1);
      return;
    }
    op(Op::LoadField, {Word, Lo, Len});
  }
  void storeField(uint32_t Word, uint32_t Lo, uint32_t Len) {
    op(Op::StoreField, {Word, Lo, Len});
  }
  void loadWord(uint32_t Word) { loadField(Word, 0, 64); }
  void storeWord(uint32_t Word) { storeField(Word, 0, 64); }

  /// Canonicalizes the top of stack to \p Ty's lane representation:
  /// `Bool` (v != 0) for bool lanes, sign extension for integer lanes —
  /// mirroring `Value::fromLanes`.
  void canonTo(ir::Type Ty) {
    if (Ty.isBool())
      op(Op::Bool);
    else
      op(Op::Canon, {Ty.width()});
  }

  size_t depth() const { return Depth; }

  /// Adds the static opcode histogram to the `sim.vm.op.*` counters and
  /// the program geometry to the `sim.vm.program.*` counters.
  void countInto(const obs::Context &Ctx) const {
    ++Ctx.counter("sim.vm.compiles");
    Ctx.counter("sim.vm.program.words") += Prog.NumWords;
    Ctx.counter("sim.vm.program.consts") += Prog.Pool.size();
    Ctx.counter("sim.vm.program.signals") += Prog.Signals.size();
    for (uint32_t I = 0; I < NumOps; ++I)
      if (Histogram[I])
        Ctx.counter(std::string("sim.vm.op.") +
                    opName(static_cast<Op>(I))) += Histogram[I];
  }

private:
  static constexpr size_t NoInstr = static_cast<size_t>(-1);

  /// Appends a debug mark when the attribution changed since the last
  /// emitted instruction. Names intern on first mark, so the interning
  /// order is the mark order, and equal programs encode identically.
  void mark() {
    if (!Marks)
      return;
    uint32_t Want = SourceMark::NoSource;
    if (HaveSource) {
      if (!CurInterned) {
        auto [It, Inserted] = SrcIndex.try_emplace(
            CurName, static_cast<uint32_t>(Prog.SourceNames.size()));
        if (Inserted)
          Prog.SourceNames.push_back(CurName);
        CurIdx = It->second;
        CurInterned = true;
      }
      Want = CurIdx;
    }
    if (Marks->empty() ? Want == SourceMark::NoSource
                       : Marks->back().Name == Want)
      return;
    Marks->push_back({static_cast<uint32_t>(Code->size()), Want});
  }

  Program &Prog;
  std::vector<uint32_t> *Code = nullptr;
  std::vector<SourceMark> *Marks = nullptr;
  std::map<uint64_t, uint32_t> PoolIndex;
  std::map<std::string, uint32_t, std::less<>> SrcIndex;
  std::string CurName;
  bool HaveSource = false;
  bool CurInterned = false;
  uint32_t CurIdx = 0;
  size_t Depth = 0;
  size_t LastInstr = NoInstr;
  std::array<uint64_t, NumOps> Histogram{};
};

} // namespace detail
} // namespace sim
} // namespace reticle

#endif // RETICLE_SIM_EMITTER_H
