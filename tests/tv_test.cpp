//===- tests/tv_test.cpp - Translation validation for selection ----------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Property test: for random well-formed IR programs, the selected assembly
/// program (expanded back to IR through the target-description semantics)
/// must produce the same output trace as the source program on random
/// input traces. This validates instruction selection end to end against
/// the interpreter oracle of Section 6.2.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "ir/Parser.h"
#include "isel/Cascade.h"
#include "isel/Select.h"
#include "ir/Verifier.h"
#include "rasm/ToIr.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

#include <random>

using namespace reticle;
using interp::Trace;
using interp::Value;
using ir::Function;
using ir::Type;

namespace {

/// Builds a random well-formed program over i8, bool, and i8<4> values.
Function randomProgram(std::mt19937 &Rng, unsigned NumInstrs) {
  Function Fn("rnd");
  Type I8 = Type::makeInt(8);
  Type V8 = Type::makeInt(8, 4);
  Type B = Type::makeBool();

  std::vector<std::string> I8Vars = {"a0", "a1"};
  std::vector<std::string> BoolVars = {"en"};
  std::vector<std::string> V8Vars = {"v0"};
  Fn.addInput("a0", I8);
  Fn.addInput("a1", I8);
  Fn.addInput("en", B);
  Fn.addInput("v0", V8);

  auto Pick = [&](std::vector<std::string> &Pool) {
    std::uniform_int_distribution<size_t> D(0, Pool.size() - 1);
    return Pool[D(Rng)];
  };
  std::uniform_int_distribution<int> OpDist(0, 11);
  std::uniform_int_distribution<int64_t> ConstDist(-128, 127);

  for (unsigned I = 0; I < NumInstrs; ++I) {
    std::string Dst = "t" + std::to_string(I);
    switch (OpDist(Rng)) {
    case 0:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Add,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 1:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Mul,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 2:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Sub,
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
                                      {ConstDist(Rng)}));
      I8Vars.push_back(Dst);
      break;
    case 6:
      Fn.addInstr(ir::Instr::makeComp(Dst, V8, ir::CompOp::Add,
                                      {Pick(V8Vars), Pick(V8Vars)}));
      V8Vars.push_back(Dst);
      break;
    case 7:
      Fn.addInstr(ir::Instr::makeComp(Dst, B, ir::CompOp::And,
                                      {Pick(BoolVars), Pick(BoolVars)}));
      BoolVars.push_back(Dst);
      break;
    case 8:
      Fn.addInstr(ir::Instr::makeWire(Dst, I8, ir::WireOp::Sll, {1},
                                      {Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    case 9:
      Fn.addInstr(ir::Instr::makeWire(Dst, I8, ir::WireOp::Const,
                                      {ConstDist(Rng)}));
      I8Vars.push_back(Dst);
      break;
    case 10:
      Fn.addInstr(ir::Instr::makeComp(Dst, I8, ir::CompOp::Xor,
                                      {Pick(I8Vars), Pick(I8Vars)}));
      I8Vars.push_back(Dst);
      break;
    default:
      Fn.addInstr(ir::Instr::makeComp(Dst, V8, ir::CompOp::Reg,
                                      {Pick(V8Vars), Pick(BoolVars)},
                                      {ConstDist(Rng)}));
      V8Vars.push_back(Dst);
      break;
    }
  }
  // Outputs: the most recent value of each class.
  Fn.addOutput(I8Vars.back(), I8);
  if (V8Vars.size() > 1)
    Fn.addOutput(V8Vars.back(), V8);
  if (BoolVars.size() > 1)
    Fn.addOutput(BoolVars.back(), B);
  return Fn;
}

Trace randomTrace(std::mt19937 &Rng, const Function &Fn, size_t Cycles) {
  Trace T;
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

class TranslationValidation : public ::testing::TestWithParam<unsigned> {};

TEST_P(TranslationValidation, SelectionPreservesSemantics) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  unsigned NumInstrs = 4 + GetParam() % 20;
  Function Fn = randomProgram(Rng, NumInstrs);
  obs::Sinks Sinks;
  ASSERT_TRUE(ir::verify(Fn, Sinks.context()).ok()) << Fn.str();

  Result<rasm::AsmProgram> Asm =
      isel::select(Fn, tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(Asm.ok()) << Asm.error() << "\n" << Fn.str();

  Result<ir::Function> Lowered = rasm::toIr(Asm.value(), tdl::ultrascale());
  ASSERT_TRUE(Lowered.ok()) << Lowered.error() << "\n" << Asm.value().str();
  ASSERT_TRUE(ir::verify(Lowered.value(), Sinks.context()).ok())
      << Lowered.value().str();

  Trace Input = randomTrace(Rng, Fn, 6);
  Result<Trace> Expected = interp::interpret(Fn, Input);
  ASSERT_TRUE(Expected.ok()) << Expected.error();
  Result<Trace> Got = interp::interpret(Lowered.value(), Input);
  ASSERT_TRUE(Got.ok()) << Got.error();
  ASSERT_EQ(Expected.value().size(), Got.value().size());
  for (size_t C = 0; C < Expected.value().size(); ++C)
    for (const ir::Port &P : Fn.outputs()) {
      const Value *E = Expected.value().get(C, P.Name);
      const Value *G = Got.value().get(C, P.Name);
      ASSERT_NE(E, nullptr);
      ASSERT_NE(G, nullptr);
      EXPECT_EQ(*E, *G) << "cycle " << C << " output " << P.Name << "\nIR:\n"
                        << Fn.str() << "\nASM:\n" << Asm.value().str();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslationValidation,
                         ::testing::Range(0u, 40u));

TEST(TranslationValidationCascade, CascadePreservesSemantics) {
  // A dot-product chain: selection plus the cascade rewrite must preserve
  // the trace semantics.
  std::string Source = "def dot(in:i8";
  for (int I = 0; I < 6; ++I)
    Source += ", a" + std::to_string(I) + ":i8, b" + std::to_string(I) +
              ":i8";
  Source += ") -> (t5:i8) {\n";
  std::string Prev = "in";
  for (int I = 0; I < 6; ++I) {
    Source += "  m" + std::to_string(I) + ":i8 = mul(a" + std::to_string(I) +
              ", b" + std::to_string(I) + ") @??;\n";
    Source += "  t" + std::to_string(I) + ":i8 = add(m" + std::to_string(I) +
              ", " + Prev + ") @??;\n";
    Prev = "t" + std::to_string(I);
  }
  Source += "}\n";
  Result<Function> Fn = ir::parseFunction(Source);
  ASSERT_TRUE(Fn.ok()) << Fn.error();

  obs::Sinks Sinks;
  Result<rasm::AsmProgram> Asm =
      isel::select(Fn.value(), tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(Asm.ok()) << Asm.error();
  rasm::AsmProgram Prog = Asm.take();
  isel::CascadeStats Stats;
  ASSERT_TRUE(isel::cascadePass(Prog, tdl::ultrascale(), 64, &Stats,
                                Sinks.context()).ok());
  EXPECT_GE(Stats.Rewritten, 2u);

  Result<ir::Function> Lowered = rasm::toIr(Prog, tdl::ultrascale());
  ASSERT_TRUE(Lowered.ok()) << Lowered.error();

  std::mt19937 Rng(42);
  Trace Input = randomTrace(Rng, Fn.value(), 4);
  Result<Trace> Expected = interp::interpret(Fn.value(), Input);
  Result<Trace> Got = interp::interpret(Lowered.value(), Input);
  ASSERT_TRUE(Expected.ok()) << Expected.error();
  ASSERT_TRUE(Got.ok()) << Got.error();
  EXPECT_EQ(Expected.value(), Got.value());
}
