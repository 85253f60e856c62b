//===- tests/gate_level_test.cpp - Gate-level translation validation ----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The strongest correctness check in the project: compile programs all
/// the way to structural Verilog, lower the resulting netlist to a
/// simulation program (LUT INITs, CARRY8 chains, FDRE, DSP48E2), run it
/// on the bytecode VM, and compare every output bit of every cycle
/// against the reference interpreter of Section 6.2.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Parser.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <gtest/gtest.h>

#include <random>

using namespace reticle;
using device::Device;
using interp::Trace;
using interp::Value;
using ir::Type;

namespace {

ir::Function parseOk(const char *Source) {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

/// Compiles \p Fn, runs the generated Verilog over \p Input through
/// vm-netlist, and compares the flattened bits of every output against
/// the interpreter.
void checkGateLevel(const ir::Function &Fn, const Trace &Input) {
  Result<Trace> Expected = interp::interpret(Fn, Input);
  ASSERT_TRUE(Expected.ok()) << Expected.error();

  core::CompileOptions Options;
  Options.Dev = Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn, Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  Result<sim::Program> Net = sim::compile(R.value().Verilog);
  ASSERT_TRUE(Net.ok()) << Net.error() << "\n" << R.value().Verilog.str();
  Result<Trace> Got = sim::execute(Net.value(), Input);
  ASSERT_TRUE(Got.ok()) << Got.error() << "\n"
                        << R.value().Verilog.str();
  ASSERT_EQ(Got.value().size(), Expected.value().size());
  for (size_t Cycle = 0; Cycle < Expected.value().size(); ++Cycle)
    for (const ir::Port &P : Fn.outputs()) {
      const Value *E = Expected.value().get(Cycle, P.Name);
      const Value *G = Got.value().get(Cycle, P.Name);
      ASSERT_NE(G, nullptr) << P.Name;
      EXPECT_EQ(E->toBits(), G->toBits())
          << "cycle " << Cycle << " output " << P.Name << " (interp "
          << E->str() << ")\n"
          << R.value().Placed.str() << "\n"
          << R.value().Verilog.str();
    }
}

Trace randomTrace(const ir::Function &Fn, size_t Cycles, unsigned Seed) {
  Trace T;
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> D(-128, 127);
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(D(Rng));
      S[P.Name] = Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  return T;
}

} // namespace

TEST(GateLevel, LutBitwiseOps) {
  ir::Function Fn = parseOk(R"(
    def bits(a:i8, b:i8) -> (x:i8, o:i8, n:i8) {
      x:i8 = xor(a, b) @lut;
      o:i8 = or(a, b) @lut;
      n:i8 = not(a) @lut;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 3, 1));
}

TEST(GateLevel, LutAddSub) {
  ir::Function Fn = parseOk(R"(
    def arith(a:i8, b:i8) -> (s:i8, d:i8) {
      s:i8 = add(a, b) @lut;
      d:i8 = sub(a, b) @lut;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 4, 2));
}

TEST(GateLevel, WideLutAdd) {
  ir::Function Fn = parseOk(R"(
    def wide(a:i24, b:i24) -> (s:i24) {
      s:i24 = add(a, b) @lut;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 3, 3));
}

TEST(GateLevel, LutComparisons) {
  ir::Function Fn = parseOk(R"(
    def cmp(a:i8, b:i8) -> (e:bool, ne:bool, l:bool, g:bool, le:bool, ge:bool) {
      e:bool = eq(a, b) @lut;
      ne:bool = neq(a, b) @lut;
      l:bool = lt(a, b) @lut;
      g:bool = gt(a, b) @lut;
      le:bool = le(a, b) @lut;
      ge:bool = ge(a, b) @lut;
    }
  )");
  // Random plus forced-equal patterns.
  Trace T = randomTrace(Fn, 6, 4);
  T.step(5)["b"] = T.step(5)["a"];
  checkGateLevel(Fn, T);
}

TEST(GateLevel, LutMux) {
  ir::Function Fn = parseOk(R"(
    def sel(c:bool, a:i8, b:i8) -> (y:i8) {
      y:i8 = mux(c, a, b) @lut;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 6, 5));
}

TEST(GateLevel, LutMultiplier) {
  ir::Function Fn = parseOk(R"(
    def m(a:i8, b:i8) -> (y:i8) {
      y:i8 = mul(a, b) @lut;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 6, 6));
}

TEST(GateLevel, RegisterWithInitAndEnable) {
  ir::Function Fn = parseOk(R"(
    def r(a:i8, en:bool) -> (y:i8) {
      y:i8 = reg[37](a, en) @lut;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 6, 7));
}

TEST(GateLevel, DspScalarOps) {
  ir::Function Fn = parseOk(R"(
    def d(a:i8, b:i8, c:i8) -> (s:i8, p:i8, f:i8) {
      s:i8 = add(a, b) @dsp;
      p:i8 = mul(a, b) @dsp;
      t0:i8 = mul(a, b) @dsp;
      f:i8 = add(t0, c) @dsp;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 4, 8));
}

TEST(GateLevel, DspSimdVectorAdd) {
  ir::Function Fn = parseOk(R"(
    def v(a:i8<4>, b:i8<4>) -> (y:i8<4>, z:i8<4>) {
      y:i8<4> = add(a, b) @dsp;
      z:i8<4> = sub(a, b) @dsp;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 4, 9));
}

TEST(GateLevel, DspRegisteredPipelines) {
  ir::Function Fn = parseOk(R"(
    def pipe(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @dsp;
      t1:i8 = add(t0, c) @dsp;
      y:i8 = reg[5](t1, en) @??;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 6, 10));
}

TEST(GateLevel, CascadedDotProduct) {
  ir::Function Fn = parseOk(R"(
    def dot(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (t2:i8) {
      m0:i8 = mul(a0, b0) @??;
      t0:i8 = add(m0, in) @??;
      m1:i8 = mul(a1, b1) @??;
      t1:i8 = add(m1, t0) @??;
      m2:i8 = mul(a2, b2) @??;
      t2:i8 = add(m2, t1) @??;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 4, 11));
}

TEST(GateLevel, WireOpsAndConstants) {
  ir::Function Fn = parseOk(R"(
    def w(a:i8, b:i8) -> (y:i8, hi:i8) {
      t0:i8 = sll[2](a);
      t1:i8 = srl[1](b);
      t2:i8 = sra[3](a);
      k:i8 = const[-7];
      s0:i8 = add(t0, t1) @lut;
      s1:i8 = add(t2, k) @lut;
      y:i8 = add(s0, s1) @lut;
      pair:i8<2> = cat(a, b);
      hi:i8 = slice[8](pair);
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 4, 12));
}

TEST(GateLevel, CounterSelfReference) {
  ir::Function Fn = parseOk(R"(
    def counter(en:bool) -> (t3:i8) {
      t1:i8 = const[4];
      t2:i8 = add(t3, t1) @lut;
      t3:i8 = reg[0](t2, en) @??;
    }
  )");
  checkGateLevel(Fn, randomTrace(Fn, 6, 13));
}

class GateLevelRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(GateLevelRandom, RandomProgramsMatchInterpreter) {
  // Random programs over the scalar ops with full LUT/DSP freedom.
  std::mt19937 Rng(GetParam() * 977 + 3);
  ir::Function Fn("gl");
  Type I8 = Type::makeInt(8);
  Type B = Type::makeBool();
  std::vector<std::string> I8Vars = {"a0", "a1"};
  std::vector<std::string> BoolVars = {"en"};
  Fn.addInput("a0", I8);
  Fn.addInput("a1", I8);
  Fn.addInput("en", B);
  auto Pick = [&](std::vector<std::string> &Pool) {
    std::uniform_int_distribution<size_t> D(0, Pool.size() - 1);
    return Pool[D(Rng)];
  };
  std::uniform_int_distribution<int> OpDist(0, 8);
  unsigned N = 3 + GetParam() % 10;
  for (unsigned I = 0; I < N; ++I) {
    std::string Dst = "t" + std::to_string(I);
    switch (OpDist(Rng)) {
    case 0:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Add,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 1:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Sub,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 2:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Mul,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 3:
      Fn.addInstr(ir::Instr::makeComp(Dst, B, ir::CompOp::Lt,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      BoolVars.push_back(Dst);
      break;
    case 4:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Mux,
                                      {Pick(BoolVars), Pick(I8Vars),
                                       Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 5:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Reg,
                                      {Pick(I8Vars), Pick(BoolVars)},
                                      {int64_t(GetParam() % 17)}));
      I8Vars.push_back(Dst);
      break;
    case 6:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Xor,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 7:
      Fn.addInstr(ir::Instr::makeWire(Dst, I8, ir::WireOp::Sll, {1},
                                      {Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    default:
      Fn.addInstr(ir::Instr::makeComp(Dst, B, ir::CompOp::And,
                                      {Pick(BoolVars), Pick(BoolVars)}));
      BoolVars.push_back(Dst);
      break;
    }
  }
  Fn.addOutput(I8Vars.back(), I8);
  if (BoolVars.size() > 1)
    Fn.addOutput(BoolVars.back(), B);
  checkGateLevel(Fn, randomTrace(Fn, 5, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateLevelRandom, ::testing::Range(0u, 25u));
