//===- tests/sim_vm_test.cpp - Compiled-simulation VM validation ---------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The compiled-simulation layer's own test surface: the bytecode format
/// (deterministic encoding, the disassembly header, verifier rejections) and the two lowering passes, checked differentially
/// against the reference interpreter — vm-ir must reproduce its traces
/// and waveforms byte for byte, and vm-netlist must agree with it on
/// every output bit and every shared port signal.
///
//===----------------------------------------------------------------------===//

#include "sim/Compile.h"
#include "sim/Emitter.h"
#include "sim/Vm.h"

#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "obs/Coverage.h"
#include "obs/Remarks.h"
#include "obs/Telemetry.h"
#include "verilog/Ast.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>

using namespace reticle;
using device::Device;
using interp::Trace;
using interp::Value;
using sim::WaveCapture;
using verilog::Expr;
using verilog::Item;
using verilog::Module;

namespace {

ir::Function parseOk(const char *Source) {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

Trace randomTrace(const ir::Function &Fn, size_t Cycles, unsigned Seed) {
  Trace T;
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> D(-128, 127);
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      if (P.Ty.isBool()) {
        S[P.Name] = Value::makeBool(D(Rng) & 1);
        continue;
      }
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(D(Rng));
      S[P.Name] = Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  return T;
}

void expectTracesEqual(const Trace &A, const Trace &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  EXPECT_TRUE(A == B) << What << ": traces differ";
}

void expectWavesEqual(const WaveCapture &A, const WaveCapture &B,
                      const char *What) {
  ASSERT_EQ(A.signals().size(), B.signals().size()) << What;
  for (size_t I = 0; I < A.signals().size(); ++I) {
    EXPECT_EQ(A.signals()[I].Name, B.signals()[I].Name) << What;
    EXPECT_EQ(A.signals()[I].Width, B.signals()[I].Width)
        << What << ": " << A.signals()[I].Name;
  }
  ASSERT_EQ(A.cycles(), B.cycles()) << What;
  for (size_t C = 0; C < A.cycles(); ++C) {
    const auto &Ea = A.eventsByCycle()[C];
    const auto &Eb = B.eventsByCycle()[C];
    ASSERT_EQ(Ea.size(), Eb.size()) << What << " cycle " << C;
    for (size_t I = 0; I < Ea.size(); ++I) {
      EXPECT_EQ(Ea[I].Id, Eb[I].Id) << What << " cycle " << C;
      std::span<const uint64_t> Wa = A.words(Ea[I]);
      std::span<const uint64_t> Wb = B.words(Eb[I]);
      EXPECT_EQ(std::vector<uint64_t>(Wa.begin(), Wa.end()),
                std::vector<uint64_t>(Wb.begin(), Wb.end()))
          << What << " cycle " << C << " signal "
          << A.signals()[Ea[I].Id].Name;
      EXPECT_EQ(Ea[I].Changed, Eb[I].Changed) << What << " cycle " << C;
    }
  }
}

/// Compares \p Got with the interpreter's \p Ref on every port signal
/// both declare (the generated Verilog adds only internal wires), value
/// for value, every cycle.
void expectSharedPortsEqual(const WaveCapture &Ref, const WaveCapture &Got,
                            const char *What) {
  ASSERT_EQ(Ref.cycles(), Got.cycles()) << What;
  std::set<std::string> GotPorts;
  for (const sim::WaveSignal &S : Got.signals())
    if (S.SigKind != sim::WaveSignal::Kind::Internal)
      GotPorts.insert(S.Name);
  size_t Shared = 0;
  for (const sim::WaveSignal &S : Ref.signals()) {
    if (S.SigKind == sim::WaveSignal::Kind::Internal)
      continue;
    ASSERT_TRUE(GotPorts.count(S.Name)) << What << ": no port " << S.Name;
    ++Shared;
    for (uint64_t C = 0; C < Ref.cycles(); ++C) {
      std::optional<std::span<const uint64_t>> A = Ref.valueAt(C, S.Name);
      std::optional<std::span<const uint64_t>> B = Got.valueAt(C, S.Name);
      ASSERT_TRUE(A && B) << What << " cycle " << C << " signal " << S.Name;
      EXPECT_EQ(std::vector<uint64_t>(A->begin(), A->end()),
                std::vector<uint64_t>(B->begin(), B->end()))
          << What << " cycle " << C << " signal " << S.Name;
    }
  }
  EXPECT_EQ(Shared, GotPorts.size()) << What;
}

/// The full differential sweep for one function against the interpreter:
/// vm-ir on traces and waveforms both, vm-netlist on every output bit and
/// every shared port signal.
void checkVmParity(const ir::Function &Fn, const Trace &Input) {
  WaveCapture InterpWave;
  core::CompileSession Session;
  Result<Trace> Expected =
      interp::interpret(Fn, Input, &InterpWave, Session.context());
  ASSERT_TRUE(Expected.ok()) << Expected.error();

  Result<sim::Program> IrProg = sim::compile(Fn, Session.context());
  ASSERT_TRUE(IrProg.ok()) << IrProg.error();
  EXPECT_EQ(IrProg.value().Source, "ir");

  WaveCapture VmIrWave;
  Result<Trace> VmIr =
      sim::execute(IrProg.value(), Input, &VmIrWave, Session.context());
  ASSERT_TRUE(VmIr.ok()) << VmIr.error() << "\n"
                         << sim::disassemble(IrProg.value());
  expectTracesEqual(Expected.value(), VmIr.value(), "vm-ir vs interp");
  expectWavesEqual(InterpWave, VmIrWave, "vm-ir vs interp wave");

  core::CompileOptions Options;
  Options.Dev = Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  Result<sim::Program> NetProg = sim::compile(R.value().Verilog);
  ASSERT_TRUE(NetProg.ok()) << NetProg.error() << "\n"
                            << R.value().Verilog.str();
  EXPECT_EQ(NetProg.value().Source, "netlist");

  WaveCapture VmNetWave;
  Result<Trace> VmNet =
      sim::execute(NetProg.value(), Input, &VmNetWave, Session.context());
  ASSERT_TRUE(VmNet.ok()) << VmNet.error() << "\n"
                          << sim::disassemble(NetProg.value());
  ASSERT_EQ(VmNet.value().size(), Expected.value().size());
  for (size_t C = 0; C < Expected.value().size(); ++C)
    for (const ir::Port &P : Fn.outputs()) {
      const Value *E = Expected.value().get(C, P.Name);
      const Value *G = VmNet.value().get(C, P.Name);
      ASSERT_TRUE(E && G) << "cycle " << C << " output " << P.Name;
      EXPECT_EQ(E->toBits(), G->toBits())
          << "vm-netlist vs interp: cycle " << C << " output " << P.Name;
    }
  expectSharedPortsEqual(InterpWave, VmNetWave, "vm-netlist vs interp wave");
}

//===----------------------------------------------------------------------===//
// Differential parity: vm-ir and vm-netlist vs the interpreter.
//===----------------------------------------------------------------------===//

TEST(SimVm, ParityCombinationalAdd) {
  ir::Function Fn = parseOk(R"(
    def adder(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 16, 1));
}

TEST(SimVm, ParityMacWithRegister) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 24, 2));
}

TEST(SimVm, ParityVectorAdd) {
  ir::Function Fn = parseOk(R"(
    def vadd(a:i8<4>, b:i8<4>) -> (y:i8<4>) {
      y:i8<4> = add(a, b) @??;
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 12, 3));
}

TEST(SimVm, ParitySliceCatShifts) {
  ir::Function Fn = parseOk(R"(
    def sc(a:i8, b:i8) -> (hi:i8, lo:i8, s1:i8, s2:i8, s3:i8) {
      pair:i8<2> = cat(a, b);
      hi:i8 = slice[8](pair);
      lo:i8 = slice[0](pair);
      s1:i8 = sll[2](a);
      s2:i8 = srl[3](a);
      s3:i8 = sra[1](a);
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 16, 4));
}

TEST(SimVm, ParityComparisonsAndMux) {
  ir::Function Fn = parseOk(R"(
    def cm(a:i8, b:i8, c:bool) -> (e:bool, l:bool, g:bool, y:i8) {
      e:bool = eq(a, b) @??;
      l:bool = lt(a, b) @??;
      g:bool = ge(a, b) @??;
      y:i8 = mux(c, a, b) @??;
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 20, 5));
}

// `nb` is `not` on a bool lane, which must yield 0 or 1 on every engine.
TEST(SimVm, ParityBitwiseAndNot) {
  ir::Function Fn = parseOk(R"(
    def bw(a:i8, b:i8, en:bool) -> (x:i8, o:i8, n:i8, z:i8, nb:bool) {
      x:i8 = xor(a, b) @??;
      o:i8 = or(a, b) @??;
      n:i8 = not(a) @??;
      z:i8 = and(a, b) @??;
      nb:bool = not(en) @??;
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 16, 6));
}

TEST(SimVm, ParityRegisterInitAndConst) {
  ir::Function Fn = parseOk(R"(
    def counter(en:bool) -> (y:i8) {
      step:i8 = const[4];
      next:i8 = add(y, step) @??;
      y:i8 = reg[3](next, en) @??;
    }
  )");
  checkVmParity(Fn, randomTrace(Fn, 24, 7));
}

// Signals wider than one 64-bit word: an i64<2> (two whole words) and an
// i24<4> whose lane 2 straddles the word boundary, driven by the checked-in
// seeded trace.
TEST(SimVm, ParityWideWires) {
  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    EXPECT_TRUE(In.good()) << Path;
    std::stringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  };
  std::string Dir = RETICLE_TEST_INPUTS_DIR;
  Result<ir::Function> Fn =
      ir::parseFunction(Slurp(Dir + "/wide_wires.ret"));
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  Result<Trace> In =
      sim::parseInputTrace(Slurp(Dir + "/wide_wires.trace.json"), Fn.value());
  ASSERT_TRUE(In.ok()) << In.error();
  checkVmParity(Fn.value(), In.value());
}

//===----------------------------------------------------------------------===//
// Bytecode layer: determinism, disassembly, verifier.
//===----------------------------------------------------------------------===//

TEST(SimVm, CompileIsDeterministic) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  core::CompileSession Session;
  Result<sim::Program> A = sim::compile(Fn, Session.context());
  Result<sim::Program> B = sim::compile(Fn, Session.context());
  ASSERT_TRUE(A.ok()) << A.error();
  ASSERT_TRUE(B.ok()) << B.error();
  EXPECT_EQ(A.value().encode(), B.value().encode());

  core::CompileOptions Options;
  Options.Dev = Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  Result<sim::Program> Na = sim::compile(R.value().Verilog);
  Result<sim::Program> Nb = sim::compile(R.value().Verilog);
  ASSERT_TRUE(Na.ok()) << Na.error();
  ASSERT_TRUE(Nb.ok()) << Nb.error();
  EXPECT_EQ(Na.value().encode(), Nb.value().encode());
  // IR and netlist lowerings of the same design are distinct programs.
  EXPECT_NE(A.value().encode(), Na.value().encode());
}

TEST(SimVm, DisassemblyCarriesTheFormatHeader) {
  ir::Function Fn = parseOk(R"(
    def sc(a:i8, b:i8, en:bool) -> (hi:i8, y:i8) {
      pair:i8<2> = cat(a, b);
      hi:i8 = slice[8](pair);
      t:i8 = add(hi, b) @??;
      y:i8 = reg[1](t, en) @??;
    }
  )");
  core::CompileSession Session;
  Result<sim::Program> P = sim::compile(Fn, Session.context());
  ASSERT_TRUE(P.ok()) << P.error();

  std::string Text = sim::disassemble(P.value());
  EXPECT_NE(Text.find("reticle-sim-program-v1"), std::string::npos);

  core::CompileOptions Options;
  Options.Dev = Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  Result<sim::Program> Np = sim::compile(R.value().Verilog);
  ASSERT_TRUE(Np.ok()) << Np.error();
  EXPECT_NE(sim::disassemble(Np.value()).find("reticle-sim-program-v1"),
            std::string::npos);
}

/// A minimal well-formed program to perturb: one word, empty segments.
sim::Program trivialProgram() {
  sim::Program P;
  P.Name = "t";
  P.Source = "ir";
  P.NumWords = 1;
  P.MaxStack = 2;
  P.Init = {uint32_t(sim::Op::EndSeg)};
  P.Eval = {uint32_t(sim::Op::EndSeg)};
  P.Commit = {uint32_t(sim::Op::EndSeg)};
  return P;
}

TEST(SimVm, VerifierAcceptsTrivialProgram) {
  EXPECT_TRUE(sim::verify(trivialProgram()).ok());
}

TEST(SimVm, VerifierRejectsUnterminatedSegment) {
  sim::Program P = trivialProgram();
  P.Eval.clear(); // no EndSeg
  EXPECT_FALSE(sim::verify(P).ok());
}

TEST(SimVm, VerifierRejectsStackUnderflow) {
  sim::Program P = trivialProgram();
  P.Eval = {uint32_t(sim::Op::Add), uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok());
}

TEST(SimVm, VerifierRejectsValueLeftOnStack) {
  sim::Program P = trivialProgram();
  P.Pool = {42};
  P.Eval = {uint32_t(sim::Op::LoadConst), 0, uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok());
}

TEST(SimVm, VerifierRejectsOutOfBoundsWord) {
  sim::Program P = trivialProgram();
  P.Eval = {uint32_t(sim::Op::LoadField), 7, 0, 8,
            uint32_t(sim::Op::StoreField), 0, 0, 8,
            uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok()); // word 7 >= NumWords
}

TEST(SimVm, VerifierRejectsOutOfBoundsConstant) {
  sim::Program P = trivialProgram();
  P.Eval = {uint32_t(sim::Op::LoadConst), 0,
            uint32_t(sim::Op::StoreField), 0, 0, 64,
            uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok()); // pool is empty
}

TEST(SimVm, VerifierRejectsStackBeyondMaxStack) {
  sim::Program P = trivialProgram();
  P.Pool = {1};
  P.MaxStack = 1;
  P.Eval = {uint32_t(sim::Op::LoadConst),  0,
            uint32_t(sim::Op::LoadConst),  0,
            uint32_t(sim::Op::Add),
            uint32_t(sim::Op::StoreField), 0, 0, 64,
            uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok());
}

TEST(SimVm, VerifierRejectsBadFieldGeometry) {
  sim::Program P = trivialProgram();
  P.Eval = {uint32_t(sim::Op::LoadField), 0, 60, 8,
            uint32_t(sim::Op::StoreField), 0, 0, 8,
            uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok()); // lo + len > 64
}

TEST(SimVm, VerifierRejectsBadShiftAmount) {
  sim::Program P = trivialProgram();
  P.Pool = {1};
  P.Eval = {uint32_t(sim::Op::LoadConst), 0, uint32_t(sim::Op::Shl), 64,
            uint32_t(sim::Op::StoreField), 0, 0, 64,
            uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok());
}

TEST(SimVm, VerifierRejectsUnknownOpcode) {
  sim::Program P = trivialProgram();
  P.Eval = {sim::NumOps + 3, uint32_t(sim::Op::EndSeg)};
  EXPECT_FALSE(sim::verify(P).ok());
}

TEST(SimVm, ExecuteRefusesUnverifiableProgram) {
  sim::Program P = trivialProgram();
  P.Eval.clear();
  Trace Input;
  Input.appendStep();
  Result<Trace> Out = sim::execute(P, Input);
  EXPECT_FALSE(Out.ok());
}

//===----------------------------------------------------------------------===//
// Emitter: store-then-load peephole, debug marks, static opcode histogram.
//===----------------------------------------------------------------------===//

TEST(SimVm, EmitterPeepholeRewritesStoreThenLoad) {
  sim::Program P;
  P.NumWords = 2;
  sim::detail::Emitter E(P);
  E.use(P.Eval);
  E.loadConst(5);
  E.storeWord(0);
  E.loadWord(0); // whole-word load of the word just stored: dup instead
  E.storeWord(1);
  E.endSeg();
  std::vector<uint32_t> Expect = {
      uint32_t(sim::Op::LoadConst),  0,
      uint32_t(sim::Op::Dup),
      uint32_t(sim::Op::StoreField), 0, 0, 64,
      uint32_t(sim::Op::StoreField), 1, 0, 64,
      uint32_t(sim::Op::EndSeg)};
  EXPECT_EQ(P.Eval, Expect);
  EXPECT_GE(P.MaxStack, 2u);
}

TEST(SimVm, EmitterPeepholeRequiresWholeWordAdjacency) {
  // A partial-field load must not be rewritten: the stored value on the
  // stack is the whole word, not the field.
  sim::Program P;
  P.NumWords = 2;
  sim::detail::Emitter E(P);
  E.use(P.Eval);
  E.loadConst(5);
  E.storeWord(0);
  E.loadField(0, 0, 8);
  E.storeWord(1);
  E.endSeg();
  EXPECT_EQ(P.Eval[6], uint32_t(sim::Op::LoadField));

  // Nor a load of a different word than the preceding store's.
  sim::Program Q;
  Q.NumWords = 2;
  sim::detail::Emitter F(Q);
  F.use(Q.Eval);
  F.loadConst(5);
  F.storeWord(1);
  F.loadWord(0);
  F.storeWord(0);
  F.endSeg();
  EXPECT_EQ(Q.Eval[6], uint32_t(sim::Op::LoadField));
}

TEST(SimVm, EmitterPeepholeShiftsDebugMarks) {
  // The inserted dup shifts every instruction at or past the store by
  // one word; a mark pointing at the store must move with it so it keeps
  // naming an instruction boundary.
  sim::Program P;
  P.NumWords = 1;
  sim::detail::Emitter E(P);
  E.use(P.Eval);
  E.setSource("x");
  E.loadConst(1); // mark {0 -> x}
  E.setSource("y");
  E.storeWord(0); // mark {2 -> y}, store at offset 2
  E.loadWord(0);  // peephole: dup inserted at offset 2
  E.storeWord(0);
  E.endSeg();
  ASSERT_EQ(P.SourceNames.size(), 2u);
  EXPECT_EQ(P.SourceNames[0], "x");
  EXPECT_EQ(P.SourceNames[1], "y");
  ASSERT_EQ(P.EvalSrc.size(), 2u);
  EXPECT_EQ(P.EvalSrc[0].Offset, 0u);
  EXPECT_EQ(P.EvalSrc[1].Offset, 3u); // the store, shifted by the dup
  EXPECT_STREQ(P.sourceAt(1, 2), "x"); // the dup joins the preceding range
  EXPECT_STREQ(P.sourceAt(1, 3), "y");
}

TEST(SimVm, EmitterCountsStaticOpcodeHistogram) {
  obs::Sinks Sinks;
  const obs::Context &Ctx = Sinks.context();
  obs::Telemetry &Telem = Sinks.telemetry();
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  Result<sim::Program> P = sim::compile(Fn, Ctx);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(Telem.counter("sim.vm.compiles").load(), 1u);
  EXPECT_GT(Telem.counter("sim.vm.op.storefield").load(), 0u);
  EXPECT_GT(Telem.counter("sim.vm.op.endseg").load(), 0u);
  EXPECT_EQ(Telem.counter("sim.vm.program.words").load(),
            P.value().NumWords);
}

TEST(SimVm, StatsDocReadsTheSimCountersWithoutRegisteringThem) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  core::CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  // After a plain compile the document adds no counter to the registry,
  // and its sim section reads zeros for names nothing recorded.
  std::string Registry = Session.telemetry().countersJson().str();
  obs::Json Plain = core::statsJson(R.value(), "mac", Session.context());
  EXPECT_EQ(Session.telemetry().countersJson().str(), Registry);
  for (const auto &[Name, Count] : Plain.find("counters")->members())
    EXPECT_NE(Name.rfind("sim.vm.op.", 0), 0u) << Name;
  const obs::Json *PlainVm = Plain.find("sim")->find("vm");
  EXPECT_EQ(PlainVm->find("cycles")->asInt(), 0);
  EXPECT_EQ(PlainVm->find("op_histogram")->size(), 0u);

  // After a run in the same session, the sim section reads the counts the
  // engine recorded, which the counters section lists as well.
  Result<sim::Program> P = sim::compile(Fn, Session.context());
  ASSERT_TRUE(P.ok()) << P.error();
  Result<Trace> Out =
      sim::execute(P.value(), randomTrace(Fn, 50, 3), nullptr,
                   Session.context());
  ASSERT_TRUE(Out.ok()) << Out.error();
  obs::Json Run = core::statsJson(R.value(), "mac", Session.context());
  const obs::Json *Vm = Run.find("sim")->find("vm");
  const obs::Json *Counters = Run.find("counters");
  EXPECT_EQ(Run.find("sim")->find("cycles")->asInt(), 50);
  EXPECT_EQ(Vm->find("cycles")->asInt(), 50);
  EXPECT_EQ(Vm->find("compiles")->asInt(), 1);
  EXPECT_EQ(Vm->find("ops")->asInt(), Counters->find("sim.vm.ops")->asInt());
  const obs::Json *Ops = Vm->find("op_histogram");
  ASSERT_GT(Ops->size(), 0u);
  for (const auto &[Op, Count] : Ops->members()) {
    const obs::Json *Counted = Counters->find("sim.vm.op." + Op);
    ASSERT_NE(Counted, nullptr) << Op;
    EXPECT_EQ(Count.asInt(), Counted->asInt()) << Op;
  }
}

//===----------------------------------------------------------------------===//
// Debug-info side table and the profiled executor.
//===----------------------------------------------------------------------===//

TEST(SimVm, SourceTableNamesTheLoweredInstructions) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<sim::Program> P = sim::compile(Fn, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_FALSE(P.value().EvalSrc.empty());
  auto Has = [&](const char *Name) {
    for (const std::string &S : P.value().SourceNames)
      if (S == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("t0"));
  EXPECT_TRUE(Has("t1"));
  EXPECT_TRUE(Has("y"));
}

TEST(SimVm, ProfiledExecuteAttributesAndMatchesPlainRun) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<sim::Program> P = sim::compile(Fn, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  Trace In = randomTrace(Fn, 20000, 9);

  Result<Trace> Plain = sim::execute(P.value(), In);
  ASSERT_TRUE(Plain.ok()) << Plain.error();
  sim::VmProfile Prof;
  Result<Trace> Out =
      sim::execute(P.value(), In, Prof, nullptr, Sinks.context());
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_TRUE(Plain.value() == Out.value()) << "profiling changed the run";

  EXPECT_EQ(Prof.Cycles, 20000u);
  EXPECT_FALSE(Prof.Aborted);
  EXPECT_GT(Prof.TotalOps, 0u);
  // The acceptance bar: at least 95% of executed ops attribute to a
  // source (mac attributes every one).
  EXPECT_GE(Prof.AttributedOps * 100, Prof.TotalOps * 95);
  uint64_t SiteSum = 0;
  for (const sim::ProfileSite &S : Prof.Sites)
    SiteSum += S.Count;
  EXPECT_EQ(SiteSum, Prof.TotalOps) << "sites must partition the op count";
  EXPECT_GT(Prof.SampledCycles, 0u);

  obs::Json Doc = sim::profileJson(P.value(), Prof);
  const obs::Json *Schema = Doc.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->asString(), "reticle-profile-v1");
  const obs::Json *Ops = Doc.find("ops");
  ASSERT_NE(Ops, nullptr);
  EXPECT_EQ(Ops->find("total")->asInt(),
            static_cast<int64_t>(Prof.TotalOps));
  const obs::Json *Hot = Doc.find("hot_instructions");
  ASSERT_NE(Hot, nullptr);
  EXPECT_GT(Hot->size(), 0u);
  const obs::Json *Signals = Doc.find("hot_signals");
  ASSERT_NE(Signals, nullptr);
  EXPECT_GT(Signals->size(), 0u);
}

TEST(SimVm, ProfiledExecuteFlushesOnAbort) {
  ir::Function Fn = parseOk(R"(
    def adder(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<sim::Program> P = sim::compile(Fn, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  Trace In;
  interp::Step &S0 = In.appendStep();
  S0["a"] = Value::splat(ir::Type::makeInt(8), 1);
  S0["b"] = Value::splat(ir::Type::makeInt(8), 2);
  interp::Step &S1 = In.appendStep();
  S1["a"] = Value::splat(ir::Type::makeInt(8), 3); // "b" missing: abort

  sim::VmProfile Prof;
  Result<Trace> Out =
      sim::execute(P.value(), In, Prof, nullptr, Sinks.context());
  ASSERT_FALSE(Out.ok());
  EXPECT_TRUE(Prof.Aborted);
  EXPECT_EQ(Prof.Cycles, 1u) << "one cycle completed before the abort";
  EXPECT_GT(Prof.TotalOps, 0u) << "the partial run still attributes";
}

TEST(SimVm, MissingInputReportsCycle) {
  ir::Function Fn = parseOk(R"(
    def adder(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<sim::Program> P = sim::compile(Fn, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  Trace Input;
  interp::Step &S = Input.appendStep();
  S["a"] = Value::splat(ir::Type::makeInt(8), 1);
  Result<Trace> Out = sim::execute(P.value(), Input);
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("input 'b' missing"), std::string::npos)
      << Out.error();
}

TEST(SimVm, TypeMismatchMatchesInterpMessage) {
  ir::Function Fn = parseOk(R"(
    def adder(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  Trace Input;
  interp::Step &S = Input.appendStep();
  S["a"] = Value::splat(ir::Type::makeInt(8), 1);
  S["b"] = Value::makeBool(true);

  Result<Trace> FromInterp = interp::interpret(Fn, Input);
  ASSERT_FALSE(FromInterp.ok());

  obs::Sinks Sinks;
  Result<sim::Program> P = sim::compile(Fn, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  Result<Trace> FromVm = sim::execute(P.value(), Input);
  ASSERT_FALSE(FromVm.ok());
  EXPECT_EQ(FromInterp.error(), FromVm.error());
}

//===----------------------------------------------------------------------===//
// The >64-bit DSP multiplier operand regression (silent truncation fix).
//===----------------------------------------------------------------------===//

/// A netlist whose DSP48E2 multiplies a 70-bit operand: the lowering must
/// refuse it instead of silently truncating to the low 64 bits.
TEST(SimVm, NetlistLoweringRejectsWideDspMultiplier) {
  Module M("wide");
  M.addPort(verilog::Dir::Input, "clock", 0);
  M.addPort(verilog::Dir::Input, "a", 70);
  M.addPort(verilog::Dir::Input, "b", 18);
  M.addPort(verilog::Dir::Output, "y", 48);
  Item D = Module::makeInstance("DSP48E2", "d0");
  D.Params.push_back({"USE_SIMD", Expr::str("ONE48")});
  D.Params.push_back({"USE_MULT", Expr::str("MULTIPLY")});
  D.Params.push_back({"ALUMODE", Expr::intLit(4, 0x0)});
  D.Params.push_back({"OPMODE", Expr::intLit(9, 0x05 | (0x3u << 4))});
  D.Params.push_back({"PREG", Expr::intLit(1, 0)});
  D.Connections.push_back({"A", Expr::ref("a")});
  D.Connections.push_back({"B", Expr::ref("b")});
  D.Connections.push_back({"C", Expr::intLit(48, 0)});
  D.Connections.push_back({"P", Expr::ref("y")});
  M.addItem(std::move(D));
  Result<sim::Program> P = sim::compile(M);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("wider than 64 bits"), std::string::npos)
      << P.error();
}

//===----------------------------------------------------------------------===//
// Netlist lowering details: combinational loops, program shape.
//===----------------------------------------------------------------------===//

TEST(SimVm, NetlistLoweringRejectsCombinationalLoop) {
  Module M("loop");
  M.addPort(verilog::Dir::Input, "clock", 0);
  M.addPort(verilog::Dir::Output, "y", 1);
  M.addWire("w", 1);
  M.addAssign(Expr::ref("w"), Expr::ref("y"));
  M.addAssign(Expr::ref("y"), Expr::ref("w"));
  Result<sim::Program> P = sim::compile(M);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("settle"), std::string::npos) << P.error();
}

TEST(SimVm, ProgramCountsMatchMetadata) {
  ir::Function Fn = parseOk(R"(
    def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @??;
      t1:i8 = add(t0, c) @??;
      y:i8 = reg[0](t1, en) @??;
    }
  )");
  obs::Sinks Sinks;
  Result<sim::Program> P = sim::compile(Fn, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  const sim::Program &Prog = P.value();
  EXPECT_EQ(Prog.Inputs.size(), 4u);
  EXPECT_EQ(Prog.Outputs.size(), 1u);
  EXPECT_GE(Prog.NumWords, 7u); // 4 inputs + t0 + t1 + y
  EXPECT_GE(Prog.MaxStack, 2u);
  EXPECT_EQ(Prog.Signals.size(), 7u);
  for (const sim::PortInfo &Pi : Prog.Inputs)
    EXPECT_FALSE(Pi.Packed);
}

} // namespace
