//===- sim/Vm.cpp - Bytecode simulation VM ---------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sim/Vm.h"

#include "interp/Cycle.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace reticle;
using namespace reticle::sim;
using interp::Trace;
using interp::Value;

namespace {

uint64_t maskOf(uint32_t Len) {
  return Len >= 64 ? ~uint64_t(0) : ((uint64_t(1) << Len) - 1);
}

/// Number of instructions in a segment (each executes exactly once per
/// segment run: the code is straight-line), for the `sim.vm.ops` counter.
uint64_t instrCount(const std::vector<uint32_t> &Code) {
  uint64_t N = 0;
  for (size_t I = 0; I < Code.size();
       I += 1 + opOperands(static_cast<Op>(Code[I])))
    ++N;
  return N;
}

/// The threaded dispatch loop. The program is verified before execution,
/// so operand bounds and stack discipline hold by construction. The loop
/// uses computed-goto dispatch (a GNU extension GCC and Clang provide):
/// one indirect branch per opcode with its own prediction slot, instead
/// of a shared switch branch that mispredicts on every opcode change.
void exec(const std::vector<uint32_t> &Code, uint64_t *Words,
          const uint64_t *Pool, uint64_t *Stack) {
  const uint32_t *Pc = Code.data();
  uint64_t *Sp = Stack; // empty ascending

  // Table order must match the Op enumerator values exactly; the
  // verifier has already rejected any opcode >= NumOps.
  static const void *Targets[] = {
      &&L_EndSeg, &&L_LoadConst, &&L_LoadField, &&L_StoreField, &&L_Dup,
      &&L_Canon,  &&L_Bool,      &&L_Mask,      &&L_Add,        &&L_Sub,
      &&L_Mul,    &&L_NotB,      &&L_AndB,      &&L_OrB,        &&L_XorB,
      &&L_Shl,    &&L_Shr,       &&L_Sar,       &&L_ShrV,       &&L_CmpEq,
      &&L_CmpNe,  &&L_CmpLt,     &&L_CmpGt,     &&L_CmpLe,      &&L_CmpGe,
      &&L_Select,
  };
  static_assert(sizeof(Targets) / sizeof(Targets[0]) == NumOps,
                "dispatch table out of sync with the opcode set");
#define DISPATCH() goto *Targets[*Pc++]

  DISPATCH();
L_EndSeg:
  return;
L_LoadConst:
  *Sp++ = Pool[*Pc++];
  DISPATCH();
L_LoadField : {
  uint64_t V = Words[Pc[0]] >> Pc[1];
  if (Pc[2] < 64)
    V &= maskOf(Pc[2]);
  *Sp++ = V;
  Pc += 3;
  DISPATCH();
}
L_StoreField : {
  uint64_t V = *--Sp;
  if (Pc[2] == 64) {
    Words[Pc[0]] = V;
  } else {
    uint64_t M = maskOf(Pc[2]) << Pc[1];
    Words[Pc[0]] = (Words[Pc[0]] & ~M) | ((V << Pc[1]) & M);
  }
  Pc += 3;
  DISPATCH();
}
L_Dup:
  Sp[0] = Sp[-1];
  ++Sp;
  DISPATCH();
L_Canon : {
  uint32_t W = *Pc++;
  if (W < 64) {
    unsigned Sh = 64 - W;
    Sp[-1] = static_cast<uint64_t>(static_cast<int64_t>(Sp[-1] << Sh) >> Sh);
  }
  DISPATCH();
}
L_Bool:
  Sp[-1] = Sp[-1] != 0 ? 1 : 0;
  DISPATCH();
L_Mask:
  Sp[-1] &= maskOf(*Pc++);
  DISPATCH();
L_Add:
  --Sp;
  Sp[-1] += Sp[0];
  DISPATCH();
L_Sub:
  --Sp;
  Sp[-1] -= Sp[0];
  DISPATCH();
L_Mul:
  --Sp;
  Sp[-1] *= Sp[0];
  DISPATCH();
L_NotB:
  Sp[-1] = ~Sp[-1];
  DISPATCH();
L_AndB:
  --Sp;
  Sp[-1] &= Sp[0];
  DISPATCH();
L_OrB:
  --Sp;
  Sp[-1] |= Sp[0];
  DISPATCH();
L_XorB:
  --Sp;
  Sp[-1] ^= Sp[0];
  DISPATCH();
L_Shl:
  Sp[-1] <<= *Pc++;
  DISPATCH();
L_Shr:
  Sp[-1] >>= *Pc++;
  DISPATCH();
L_Sar:
  Sp[-1] = static_cast<uint64_t>(static_cast<int64_t>(Sp[-1]) >> *Pc++);
  DISPATCH();
L_ShrV : {
  uint64_t Amt = *--Sp;
  Sp[-1] = Amt < 64 ? Sp[-1] >> Amt : 0;
  DISPATCH();
}
L_CmpEq:
  --Sp;
  Sp[-1] = static_cast<int64_t>(Sp[-1]) == static_cast<int64_t>(Sp[0]);
  DISPATCH();
L_CmpNe:
  --Sp;
  Sp[-1] = static_cast<int64_t>(Sp[-1]) != static_cast<int64_t>(Sp[0]);
  DISPATCH();
L_CmpLt:
  --Sp;
  Sp[-1] = static_cast<int64_t>(Sp[-1]) < static_cast<int64_t>(Sp[0]);
  DISPATCH();
L_CmpGt:
  --Sp;
  Sp[-1] = static_cast<int64_t>(Sp[-1]) > static_cast<int64_t>(Sp[0]);
  DISPATCH();
L_CmpLe:
  --Sp;
  Sp[-1] = static_cast<int64_t>(Sp[-1]) <= static_cast<int64_t>(Sp[0]);
  DISPATCH();
L_CmpGe:
  --Sp;
  Sp[-1] = static_cast<int64_t>(Sp[-1]) >= static_cast<int64_t>(Sp[0]);
  DISPATCH();
L_Select : {
  uint64_t Cond = *--Sp;
  uint64_t IfTrue = *--Sp;
  if (Cond)
    Sp[-1] = IfTrue;
  DISPATCH();
}
#undef DISPATCH
}

/// Rebuilds a packed port wider than one word from its table words (64
/// flattened bits per word, LSB first). Cold: only netlist programs with
/// ports over 64 bits reach it, so it stays out of the per-cycle output
/// path's layout.
[[gnu::cold]] Value unpackWidePort(const ir::Type &Ty,
                                   const uint64_t *Words) {
  std::vector<bool> Bits(Ty.totalBits());
  for (size_t B = 0; B < Bits.size(); ++B)
    Bits[B] = (Words[B / 64] >> (B % 64)) & 1;
  return Value::fromBits(Ty, Bits);
}

/// Packs signal \p S from the state table into the wave layer's word
/// layout: lane L's low bits land at flattened bit L * LaneWidth of
/// \p Out, which holds waveWords(S.Width) words.
void packSignal(const SignalInfo &S, const uint64_t *Words, uint64_t *Out) {
  const size_t N = waveWords(S.Width);
  if (S.LaneWidth == 64) {
    // Netlist tables (and 64-bit IR lanes) already hold the packed layout.
    std::copy_n(Words + S.Base, N, Out);
  } else if (S.Lanes == 1) {
    Out[0] = Words[S.Base];
  } else {
    std::fill_n(Out, N, 0);
    for (unsigned L = 0, Bit = 0; L < S.Lanes && Bit < S.Width;
         ++L, Bit += S.LaneWidth) {
      unsigned Take = std::min(S.LaneWidth, S.Width - Bit);
      uint64_t V = Words[S.Base + L] & maskOf(Take);
      unsigned Sh = Bit % 64;
      Out[Bit / 64] |= V << Sh;
      if (Sh + Take > 64) // the lane straddles a word boundary
        Out[Bit / 64 + 1] |= V >> (64 - Sh);
    }
  }
  if (S.Width % 64 != 0)
    Out[N - 1] &= maskOf(S.Width % 64);
}

} // namespace

Result<Trace> reticle::sim::execute(const Program &P, const Trace &Inputs,
                                    WaveSink *Wave,
                                    const obs::Context &Ctx) {
  obs::Span Sp(Ctx, "sim.vm.execute");
  Sp.arg("program", P.Name);
  Sp.arg("source", P.Source);
  Sp.arg("cycles", Inputs.size());

  if (Status S = verify(P); !S)
    return fail<Trace>(S.error());

  std::vector<uint64_t> Words(P.NumWords, 0);
  std::vector<uint64_t> Stack(P.MaxStack == 0 ? 1 : P.MaxStack, 0);
  const uint64_t *Pool = P.Pool.empty() ? Words.data() : P.Pool.data();

  InputBinder Binder;
  for (unsigned I = 0; I < P.Inputs.size(); ++I)
    Binder.add(P.Inputs[I].Name, I);
  Binder.seal();

  OutputProto Proto;
  for (unsigned I = 0; I < P.Outputs.size(); ++I)
    Proto.add(P.Outputs[I].Name, I);
  Proto.seal();

  EngineFrame Frame(Wave, Ctx, "sim.vm.cycles");
  // One signal's packed words at a time: the recorder consumes each value
  // before the next is packed.
  std::vector<uint64_t> WaveBuf;
  if (Frame.waveActive()) {
    std::vector<WaveSignal> WaveSigs;
    WaveSigs.reserve(P.Signals.size());
    for (const SignalInfo &S : P.Signals) {
      WaveSigs.push_back({S.Name, S.Width, S.Kind});
      WaveBuf.resize(std::max(WaveBuf.size(), waveWords(S.Width)));
    }
    if (Status S = Frame.recorder().begin(std::move(WaveSigs)); !S)
      return fail<Trace>(S.error());
  }

  exec(P.Init, Words.data(), Pool, Stack.data());

  const uint64_t EvalOps = instrCount(P.Eval);
  const uint64_t CommitOps = instrCount(P.Commit);
  uint64_t OpsRun = instrCount(P.Init);

  Trace Out;
  Out.steps().reserve(Inputs.size());
  for (size_t Cycle = 0; Cycle < Inputs.size(); ++Cycle) {
    Frame.beginCycle();

    Status Bound = Binder.bind(
        Inputs.step(Cycle), Cycle, [&](unsigned Slot, const Value &V) {
          const PortInfo &Pi = P.Inputs[Slot];
          if (!Pi.Packed) {
            if (!(V.type() == Pi.Ty))
              return Status::failure(
                  "cycle " + std::to_string(Cycle) + ": input '" + Pi.Name +
                  "' has type " + V.type().str() + ", expected " +
                  Pi.Ty.str());
            for (unsigned L = 0; L < Pi.Ty.lanes(); ++L)
              Words[Pi.Base + L] = static_cast<uint64_t>(V.lane(L));
            return Status::success();
          }
          if (V.type().totalBits() != Pi.Ty.totalBits())
            return Status::failure("input '" + Pi.Name + "' width mismatch");
          if (Pi.Ty.totalBits() <= 64) {
            // Whole port fits one table word: pack the lanes directly
            // instead of round-tripping through a bit vector.
            uint64_t W = 0;
            unsigned Wd = V.type().width();
            for (unsigned L = 0; L < V.lanes(); ++L)
              W |= (static_cast<uint64_t>(V.lane(L)) & maskOf(Wd))
                   << (L * Wd);
            Words[Pi.Base] = W;
            return Status::success();
          }
          std::vector<bool> Bits = V.toBits();
          for (size_t W = 0; W < (Bits.size() + 63) / 64; ++W)
            Words[Pi.Base + W] = 0;
          for (size_t B = 0; B < Bits.size(); ++B)
            if (Bits[B])
              Words[Pi.Base + B / 64] |= uint64_t(1) << (B % 64);
          return Status::success();
        });
    if (!Bound)
      return fail<Trace>(Frame.abort(Bound.error()));

    exec(P.Eval, Words.data(), Pool, Stack.data());

    Proto.emit(Out, [&](unsigned Slot) {
      const PortInfo &Po = P.Outputs[Slot];
      if (!Po.Packed) {
        std::vector<int64_t> Lanes(Po.Ty.lanes());
        for (unsigned L = 0; L < Po.Ty.lanes(); ++L)
          Lanes[L] = static_cast<int64_t>(Words[Po.Base + L]);
        return Value::fromLanes(Po.Ty, std::move(Lanes));
      }
      if (Po.Ty.totalBits() <= 64) {
        // The whole port fits one table word: slice the lanes straight
        // out of it (fromLanes canonicalizes, same as the bit path).
        uint64_t W = Words[Po.Base];
        unsigned Wd = Po.Ty.width();
        std::vector<int64_t> Lanes(Po.Ty.lanes());
        for (unsigned L = 0; L < Po.Ty.lanes(); ++L)
          Lanes[L] = static_cast<int64_t>((W >> (L * Wd)) & maskOf(Wd));
        return Value::fromLanes(Po.Ty, std::move(Lanes));
      }
      return unpackWidePort(Po.Ty, Words.data() + Po.Base);
    });

    if (Frame.waveActive()) {
      WaveRecorder &Rec = Frame.recorder();
      Rec.cycle(Cycle);
      for (size_t Id = 0; Id < P.Signals.size(); ++Id) {
        const SignalInfo &S = P.Signals[Id];
        packSignal(S, Words.data(), WaveBuf.data());
        Rec.record(Id, {WaveBuf.data(), waveWords(S.Width)});
      }
    }

    exec(P.Commit, Words.data(), Pool, Stack.data());
    OpsRun += EvalOps + CommitOps;
  }

  if (Status S = Frame.finish(); !S)
    return fail<Trace>(S.error());
  Ctx.counter("sim.vm.ops") += OpsRun;
  return Out;
}

Result<Trace> reticle::sim::execute(const Program &P, const Trace &Inputs) {
  return execute(P, Inputs, nullptr, obs::Sinks().context());
}
