//===- tests/wave_test.cpp - Waveform observability tests ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The waveform layer end to end: the Trace convenience API the engines
/// replay, the WaveRecorder's change detection and counters, the VCD and
/// reticle-wave-v1 writers (including the abort-flush contract), the
/// input-trace parser, and the engines driving a sink — with the
/// interpreter and vm-netlist (the bytecode VM running the generated
/// Verilog) agreeing on every shared port signal, the property
/// `json_check wave_diff` gates on in CI.
///
//===----------------------------------------------------------------------===//

#include "interp/Wave.h"

#include "core/Compiler.h"
#include "core/Stats.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "ir/Parser.h"
#include "obs/Json.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>

using namespace reticle;
using interp::Trace;
using interp::Value;
using obs::Json;
using sim::WaveCapture;
using sim::WaveRecorder;
using sim::WaveSignal;

namespace {

const char *MacSource = R"(
  def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
  }
)";

/// A packed wave value, LSB word first.
std::vector<uint64_t> words(std::initializer_list<uint64_t> W) { return W; }

/// A captured value as a vector, for gtest's printing comparisons.
std::vector<uint64_t> toVec(std::span<const uint64_t> W) {
  return {W.begin(), W.end()};
}

ir::Function parseOk(const char *Source) {
  Result<ir::Function> Fn = ir::parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

Trace macTrace() {
  Trace T;
  ir::Type I8 = ir::Type::makeInt(8);
  ir::Type B = ir::Type::makeBool();
  for (int C = 0; C < 4; ++C) {
    interp::Step &S = T.appendStep();
    S["a"] = Value::splat(I8, C + 1);
    S["b"] = Value::splat(I8, 2 * C - 1);
    S["c"] = Value::splat(I8, -C);
    S["en"] = Value::makeBool(C != 2);
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Trace convenience API
//===----------------------------------------------------------------------===//

TEST(TraceApi, SetGrowsTheTrace) {
  Trace T;
  ir::Type B = ir::Type::makeBool();
  T.set(3, "a", Value::makeBool(true));
  EXPECT_EQ(T.size(), 4u);
  ASSERT_NE(T.get(3, "a"), nullptr);
  EXPECT_EQ(T.get(3, "a")->toBits(), std::vector<bool>{true});
  // The grown-over cycles exist but hold nothing.
  EXPECT_EQ(T.get(1, "a"), nullptr);
}

TEST(TraceApi, GetMissingNameAndCycleReturnsNull) {
  Trace T;
  T.set(0, "a", Value::makeBool(false));
  EXPECT_EQ(T.get(0, "b"), nullptr);
  EXPECT_EQ(T.get(7, "a"), nullptr);
}

TEST(TraceApi, AppendStepFillsInPlace) {
  Trace T;
  interp::Step &S = T.appendStep();
  S["x"] = Value::makeBool(true);
  EXPECT_EQ(T.size(), 1u);
  ASSERT_NE(T.get(0, "x"), nullptr);
}

//===----------------------------------------------------------------------===//
// bitsToString / packBits
//===----------------------------------------------------------------------===//

TEST(WaveBits, RendersMsbFirst) {
  // LSB-first {1,0,0,1} is binary 1001.
  EXPECT_EQ(sim::bitsToString({true, false, false, true}), "1001");
  EXPECT_EQ(sim::bitsToString({true}), "1");
  EXPECT_EQ(sim::bitsToString({}), "");
}

TEST(WaveBits, PackBitsMatchesTheWordLayout) {
  std::vector<bool> Bits(70, false);
  Bits[0] = Bits[63] = Bits[64] = Bits[69] = true;
  std::vector<uint64_t> W;
  sim::packBits(Bits, 70, W);
  EXPECT_EQ(W, words({1 | (uint64_t(1) << 63), 0b100001}));
  // Bits past the width drop; missing ones read as zero.
  sim::packBits(Bits, 64, W);
  EXPECT_EQ(W, words({1 | (uint64_t(1) << 63)}));
  sim::packBits({true}, 65, W);
  EXPECT_EQ(W, words({1, 0}));
}

//===----------------------------------------------------------------------===//
// WaveRecorder: change detection, width normalization, counters
//===----------------------------------------------------------------------===//

TEST(WaveRecorder, DetectsChangesAndCountsToggles) {
  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Context Ctx{&Telem, &Rem};
  WaveCapture Cap;
  WaveRecorder Rec(&Cap, Ctx);
  EXPECT_TRUE(Rec.active());
  ASSERT_TRUE(Rec.begin({WaveSignal("a", 4), WaveSignal("b", 1)}).ok());

  Rec.cycle(0);
  Rec.record(0, words({0b0101}));
  Rec.record(1, words({1}));
  Rec.cycle(1);
  Rec.record(0, words({0b0101})); // unchanged
  Rec.record(1, words({0}));      // flipped
  // Counts accumulate per run and land at finish().
  EXPECT_EQ(Ctx.counter("sim.events").load(), 0u);
  ASSERT_TRUE(Rec.finish(false).ok());

  ASSERT_EQ(Cap.cycles(), 2u);
  // First sight is always marked changed; repeats are not.
  EXPECT_TRUE(Cap.eventsByCycle()[0][0].Changed);
  EXPECT_TRUE(Cap.eventsByCycle()[0][1].Changed);
  EXPECT_FALSE(Cap.eventsByCycle()[1][0].Changed);
  EXPECT_TRUE(Cap.eventsByCycle()[1][1].Changed);
  EXPECT_TRUE(Cap.finished());
  EXPECT_FALSE(Cap.aborted());

  EXPECT_EQ(Ctx.counter("sim.signals").load(), 2u);
  EXPECT_EQ(Ctx.counter("sim.events").load(), 4u);
  // First sight toggles the full width (4 + 1); cycle 1 flips one bit.
  EXPECT_EQ(Ctx.counter("sim.toggles").load(), 6u);
}

TEST(WaveRecorder, NormalizesBitsToDeclaredWidth) {
  WaveCapture Cap;
  WaveRecorder Rec(&Cap, obs::defaultContext());
  ASSERT_TRUE(Rec.begin({WaveSignal("w", 4)}).ok());
  Rec.cycle(0);
  Rec.recordBits(0, {true}); // short: padded to 4 bits
  Rec.cycle(1);
  Rec.record(0, words({0xF2, 7})); // wide: masked to 4 bits, one word
  ASSERT_TRUE(Rec.finish(false).ok());
  std::optional<std::span<const uint64_t>> V = Cap.valueAt(0, "w");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->size(), 1u);
  EXPECT_EQ(toVec(*V), words({0b0001}));
  V = Cap.valueAt(1, "w");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(toVec(*V), words({0x2}));
}

TEST(WaveRecorder, CountsLandAtDestructionWithoutFinish) {
  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Context Ctx{&Telem, &Rem};
  WaveCapture Cap;
  {
    WaveRecorder Rec(&Cap, Ctx);
    ASSERT_TRUE(Rec.begin({WaveSignal("w", 65)}).ok());
    Rec.cycle(0);
    Rec.record(0, words({0, 1}));
    Rec.cycle(1);
    Rec.record(0, words({0b11, 0})); // three bits flip across two words
  }
  EXPECT_EQ(Ctx.counter("sim.events").load(), 2u);
  EXPECT_EQ(Ctx.counter("sim.toggles").load(), 65u + 3u);
  EXPECT_FALSE(Cap.finished());
}

TEST(WaveRecorder, NullSinkIsInert) {
  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Context Ctx{&Telem, &Rem};
  WaveRecorder Rec(nullptr, Ctx);
  EXPECT_FALSE(Rec.active());
  ASSERT_TRUE(Rec.begin({WaveSignal("a", 1)}).ok());
  Rec.cycle(0);
  Rec.record(0, words({1}));
  ASSERT_TRUE(Rec.finish(false).ok());
  EXPECT_EQ(Ctx.counter("sim.events").load(), 0u);
  EXPECT_EQ(Ctx.counter("sim.signals").load(), 0u);
}

//===----------------------------------------------------------------------===//
// replay: merging captures under per-engine prefixes
//===----------------------------------------------------------------------===//

TEST(WaveReplay, MergesSourcesWithPrefixes) {
  WaveCapture A, B;
  ASSERT_TRUE(A.begin({WaveSignal("y", 2)}).ok());
  A.beginCycle(0);
  A.value(0, words({0b01}), true);
  ASSERT_TRUE(A.finish(false).ok());
  ASSERT_TRUE(B.begin({WaveSignal("y", 2)}).ok());
  B.beginCycle(0);
  B.value(0, words({0b01}), true);
  B.beginCycle(1);
  B.value(0, words({0b10}), true);
  ASSERT_TRUE(B.finish(true).ok()); // one aborted source

  WaveCapture Merged;
  ASSERT_TRUE(
      sim::replay({{&A, "interp"}, {&B, "vm-netlist"}}, Merged).ok());
  ASSERT_EQ(Merged.signals().size(), 2u);
  EXPECT_EQ(Merged.signals()[0].Name, "interp.y");
  EXPECT_EQ(Merged.signals()[1].Name, "vm-netlist.y");
  // Cycle 1 only exists in B; the merge spans the longer run and carries
  // the abort flag forward.
  EXPECT_EQ(Merged.cycles(), 2u);
  EXPECT_TRUE(Merged.aborted());
  ASSERT_TRUE(Merged.valueAt(1, "vm-netlist.y").has_value());
  EXPECT_FALSE(Merged.valueAt(1, "interp.y").has_value());
  EXPECT_EQ(toVec(*Merged.valueAt(1, "vm-netlist.y")), words({0b10}));
}

TEST(WaveCapture, RepeatedValuesShareTheirWords) {
  WaveCapture Cap;
  ASSERT_TRUE(Cap.begin({WaveSignal("w", 128), WaveSignal("b", 1)}).ok());
  Cap.beginCycle(0);
  Cap.value(0, words({5, 6}), true);
  Cap.value(1, words({1}), true);
  Cap.beginCycle(1);
  Cap.value(0, words({5, 6}), false);
  Cap.value(1, words({0}), true);
  Cap.beginCycle(2);
  Cap.value(0, words({5}), true); // short: the missing word reads as zero
  ASSERT_TRUE(Cap.finish(false).ok());

  const auto &Events = Cap.eventsByCycle();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].size(), 2u);
  EXPECT_EQ(Events[1].size(), 2u);
  EXPECT_EQ(Events[2].size(), 1u);
  // The unchanged 128-bit value points at the words cycle 0 stored.
  EXPECT_EQ(Events[1][0].Offset, Events[0][0].Offset);
  EXPECT_FALSE(Events[1][0].Changed);
  EXPECT_NE(Events[2][0].Offset, Events[0][0].Offset);
  EXPECT_EQ(toVec(Cap.words(Events[1][0])), words({5, 6}));
  EXPECT_EQ(toVec(Cap.words(Events[2][0])), words({5, 0}));
  EXPECT_EQ(toVec(*Cap.valueAt(1, "b")), words({0}));
}

//===----------------------------------------------------------------------===//
// VcdWriter
//===----------------------------------------------------------------------===//

/// Checks the dump section line by line: after $enddefinitions every line
/// must be a timestamp, a scalar change, a vector change, or one of the
/// $dumpvars / $end / $comment keywords. Returns the first bad line.
std::string checkVcdShape(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  bool InDump = false;
  while (std::getline(In, Line)) {
    if (Line.find("$enddefinitions") != std::string::npos) {
      InDump = true;
      continue;
    }
    if (!InDump || Line.empty())
      continue;
    char C = Line[0];
    if (C == '#' || C == '0' || C == '1' || C == 'b' || C == 'x' ||
        C == '$')
      continue;
    return Line;
  }
  return {};
}

TEST(VcdWriter, IdCodesAreCompactAndUnique) {
  EXPECT_EQ(sim::VcdWriter::idCode(0), "!");
  EXPECT_EQ(sim::VcdWriter::idCode(93), "~");
  EXPECT_EQ(sim::VcdWriter::idCode(94).size(), 2u);
  std::set<std::string> Codes;
  for (unsigned I = 0; I < 300; ++I)
    Codes.insert(sim::VcdWriter::idCode(I));
  EXPECT_EQ(Codes.size(), 300u);
}

TEST(VcdWriter, HeaderDumpAndSuppression) {
  sim::VcdWriter W("top");
  ASSERT_TRUE(W.begin({WaveSignal("s", 1), WaveSignal("v", 8)}).ok());
  W.beginCycle(0);
  W.value(0, words({1}), true);
  W.value(1, words({0}), true);
  W.beginCycle(1);
  W.value(0, words({1}), false); // suppressed
  W.value(1, words({1}), true);
  ASSERT_TRUE(W.finish(false).ok());
  const std::string &T = W.text();

  EXPECT_NE(T.find("$scope module top $end"), std::string::npos);
  // Scalars carry no range; vectors do.
  EXPECT_NE(T.find("$var wire 1 ! s $end"), std::string::npos);
  EXPECT_NE(T.find("$var wire 8 \" v [7:0] $end"), std::string::npos);
  // Everything dumps as x before its first value.
  size_t Dump = T.find("$dumpvars");
  ASSERT_NE(Dump, std::string::npos);
  EXPECT_NE(T.find("x!", Dump), std::string::npos);
  EXPECT_NE(T.find("bx \"", Dump), std::string::npos);
  // Cycle 0 reports both signals; cycle 1 suppresses the unchanged scalar.
  size_t C0 = T.find("#0");
  size_t C1 = T.find("#1", C0 + 1);
  ASSERT_NE(C1, std::string::npos);
  EXPECT_NE(T.find("1!", C0), std::string::npos);
  EXPECT_LT(T.find("1!", C0), C1);
  EXPECT_EQ(T.find("1!", C1), std::string::npos);
  EXPECT_NE(T.find("b00000001 \"", C1), std::string::npos);
  // A closing timestamp follows the last cycle.
  EXPECT_NE(T.find("#2", C1), std::string::npos);
  EXPECT_EQ(checkVcdShape(T), "");
}

TEST(VcdWriter, DottedNamesBecomeScopes) {
  sim::VcdWriter W("mac");
  ASSERT_TRUE(W.begin({WaveSignal("interp.y", 8), WaveSignal("netlist.y", 8),
                       WaveSignal("clk", 1)})
                  .ok());
  ASSERT_TRUE(W.finish(false).ok());
  const std::string &T = W.text();
  EXPECT_NE(T.find("$scope module interp $end"), std::string::npos);
  EXPECT_NE(T.find("$scope module netlist $end"), std::string::npos);
  // The leaf names drop the prefix inside their scope.
  EXPECT_EQ(T.find("interp.y [7:0]"), std::string::npos);
}

TEST(VcdWriter, AbortStillFlushesWellFormedOutput) {
  sim::VcdWriter W("t");
  ASSERT_TRUE(W.begin({WaveSignal("a", 1)}).ok());
  W.beginCycle(0);
  W.value(0, words({1}), true);
  ASSERT_TRUE(W.finish(true).ok());
  EXPECT_NE(W.text().find("$comment aborted $end"), std::string::npos);
  EXPECT_EQ(checkVcdShape(W.text()), "");
}

//===----------------------------------------------------------------------===//
// WaveJsonWriter: reticle-wave-v1
//===----------------------------------------------------------------------===//

TEST(WaveJsonWriter, EveryLineParsesAndNothingIsSuppressed) {
  sim::WaveJsonWriter W("mac", "interp");
  ASSERT_TRUE(W.begin({WaveSignal("a", 4, WaveSignal::Kind::Input),
                       WaveSignal("y", 4, WaveSignal::Kind::Output)})
                  .ok());
  for (uint64_t C = 0; C < 3; ++C) {
    W.beginCycle(C);
    W.value(0, words({0b0001}), C == 0);
    W.value(1, words({0b0010}), C == 0);
  }
  ASSERT_TRUE(W.finish(true).ok());

  std::istringstream In(W.text());
  std::string Line;
  size_t Lines = 0, Records = 0;
  Json Header, Footer;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Result<Json> Doc = Json::parse(Line);
    ASSERT_TRUE(Doc.ok()) << Line << ": " << Doc.error();
    ++Lines;
    if (Doc.value().find("schema"))
      Header = Doc.take();
    else if (Doc.value().find("signal"))
      ++Records;
    else
      Footer = Doc.take();
  }
  // Header + footer + one record per signal per cycle, unsuppressed.
  EXPECT_EQ(Lines, 2u + 3u * 2u);
  EXPECT_EQ(Records, 6u);
  ASSERT_TRUE(Header.isObject());
  EXPECT_EQ(Header.find("schema")->asString(), "reticle-wave-v1");
  EXPECT_EQ(Header.find("engine")->asString(), "interp");
  ASSERT_EQ(Header.find("signals")->size(), 2u);
  EXPECT_EQ(Header.find("signals")->items()[0].find("kind")->asString(),
            "input");
  ASSERT_TRUE(Footer.isObject());
  EXPECT_EQ(Footer.find("cycles")->asInt(), 3);
  EXPECT_TRUE(Footer.find("aborted")->asBool());
}

// Both writers format bits eight at a time from a byte table; this checks
// them against the per-bit formatter on seeded random values at every
// width from 1 to 130. Some values arrive short (missing words read as
// zero) or with junk above the width (never printed).
TEST(WaveWriters, BitStringsMatchPerBitFormatter) {
  std::vector<WaveSignal> Sigs;
  for (unsigned W = 1; W <= 130; ++W)
    Sigs.emplace_back("s" + std::to_string(W), W);
  sim::VcdWriter Vcd("t");
  sim::WaveJsonWriter Wj("t", "vm-ir");
  ASSERT_TRUE(Vcd.begin(Sigs).ok());
  ASSERT_TRUE(Wj.begin(Sigs).ok());
  std::string WantVcd = Vcd.text();
  std::string WantJson = Wj.text();

  std::mt19937_64 Rng(26);
  for (uint64_t C = 0; C < 6; ++C) {
    Vcd.beginCycle(C);
    Wj.beginCycle(C);
    WantVcd += "#" + std::to_string(C) + "\n";
    for (unsigned Id = 0; Id < Sigs.size(); ++Id) {
      const unsigned Width = Sigs[Id].Width;
      std::vector<uint64_t> Words(sim::waveWords(Width));
      for (uint64_t &W : Words)
        W = Rng();
      if (Rng() % 4 == 0)
        Words.pop_back();
      bool Changed = C == 0 || Rng() % 3 != 0;
      Vcd.value(Id, Words, Changed);
      Wj.value(Id, Words, Changed);

      std::vector<bool> Bits(Width);
      for (unsigned B = 0; B < Width; ++B)
        Bits[B] = B / 64 < Words.size() && (Words[B / 64] >> (B % 64)) & 1;
      std::string Digits = sim::bitsToString(Bits);
      std::string Code = sim::VcdWriter::idCode(Id);
      if (Changed)
        WantVcd += (Width == 1 ? Digits : "b" + Digits + " ") + Code + "\n";
      WantJson += "{\"cycle\":" + std::to_string(C) +
                  ",\"signal\":" + Json::quote(Sigs[Id].Name) +
                  ",\"value\":\"" + Digits + "\"}\n";
    }
  }
  ASSERT_TRUE(Vcd.finish(false).ok());
  ASSERT_TRUE(Wj.finish(false).ok());
  WantVcd += "#6\n";
  WantJson += "{\"cycles\":6,\"aborted\":false}\n";
  EXPECT_EQ(Vcd.text(), WantVcd);
  EXPECT_EQ(Wj.text(), WantJson);
}

//===----------------------------------------------------------------------===//
// Input-trace parsing (reticle-input-trace-v1)
//===----------------------------------------------------------------------===//

TEST(TraceIo, ParsesBoolIntAndVectorPorts) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8, en:bool, v:i8<2>) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  Result<Trace> T = sim::parseInputTrace(R"({
    "schema": "reticle-input-trace-v1",
    "cycles": [
      {"a": -3, "en": true, "v": [1, 2]},
      {"a": 7, "en": 0, "v": [-1, -2]}
    ]
  })",
                                         Fn);
  ASSERT_TRUE(T.ok()) << T.error();
  ASSERT_EQ(T.value().size(), 2u);
  EXPECT_EQ(T.value().get(0, "a")->str(), Value::splat(ir::Type::makeInt(8), -3).str());
  EXPECT_EQ(T.value().get(1, "en")->str(), Value::makeBool(false).str());
  EXPECT_EQ(T.value().get(0, "v")->toBits(),
            Value::fromLanes(ir::Type::makeInt(8, 2), {1, 2}).toBits());
}

TEST(TraceIo, RejectsBadDocuments) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  auto Err = [&](const char *Text) {
    Result<Trace> T = sim::parseInputTrace(Text, Fn);
    EXPECT_FALSE(T.ok()) << Text;
    return T.ok() ? std::string() : T.error();
  };
  EXPECT_NE(Err(R"({"schema":"nope","cycles":[]})").find("schema"),
            std::string::npos);
  EXPECT_NE(Err(R"({"schema":"reticle-input-trace-v1","cycles":[{}]})")
                .find("missing"),
            std::string::npos);
  EXPECT_NE(Err(R"({"schema":"reticle-input-trace-v1",
                    "cycles":[{"a":1,"zz":2}]})")
                .find("unknown input"),
            std::string::npos);
  EXPECT_FALSE(Err("not json").empty());
}

// The four error paths the driver's diagnostics depend on must stay
// distinguishable: malformed JSON, a missing input column, a lane-count
// mismatch, and a non-monotone cycle record each name their own cause.
TEST(TraceIo, DistinctErrorPaths) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8, v:i8<3>) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  auto Err = [&](const std::string &Text) {
    Result<Trace> T = sim::parseInputTrace(Text, Fn);
    EXPECT_FALSE(T.ok()) << Text;
    return T.ok() ? std::string() : T.error();
  };

  // 1. Malformed JSON: the parser's own message, prefixed by the layer.
  std::string Malformed = Err(R"({"schema": "reticle-input-trace-v1",)");
  EXPECT_NE(Malformed.find("input trace"), std::string::npos) << Malformed;

  // 2. Missing input column names the cycle and the port.
  std::string Missing = Err(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"a":1,"v":[1,2,3]},{"a":2}]})");
  EXPECT_NE(Missing.find("cycle 1"), std::string::npos) << Missing;
  EXPECT_NE(Missing.find("'v' missing"), std::string::npos) << Missing;

  // 3. Lane-count mismatch reports expected vs got.
  std::string Lanes = Err(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"a":1,"v":[1,2]}]})");
  EXPECT_NE(Lanes.find("expected 3 lanes, got 2"), std::string::npos)
      << Lanes;

  // 4. Non-monotone cycle record: the reserved "cycle" self-check key
  // disagrees with the record's index.
  std::string NonMonotone = Err(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"cycle":0,"a":1,"v":[1,2,3]},
                    {"cycle":2,"a":2,"v":[1,2,3]}]})");
  EXPECT_NE(NonMonotone.find("non-monotone cycle"), std::string::npos)
      << NonMonotone;
  EXPECT_NE(NonMonotone.find("'cycle' is 2, expected 1"), std::string::npos)
      << NonMonotone;

  // The messages are pairwise distinct.
  EXPECT_NE(Malformed, Missing);
  EXPECT_NE(Missing, Lanes);
  EXPECT_NE(Lanes, NonMonotone);
}

// JSON numbers that are not exact integers — fractions, exponents, and
// integers past int64 (which parse as doubles) — are rejected on every
// integer-valued key instead of being truncated, and the diagnostic names
// the cycle and the port.
TEST(TraceIo, RejectsNonIntegerNumbers) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8, en:bool, v:i8<2>) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  auto Err = [&](const std::string &Cycle1) {
    std::string Text = R"({"schema":"reticle-input-trace-v1","cycles":[)"
                       R"({"a":1,"en":true,"v":[1,2]},)" +
                       Cycle1 + "]}";
    Result<Trace> T = sim::parseInputTrace(Text, Fn);
    EXPECT_FALSE(T.ok()) << Text;
    return T.ok() ? std::string() : T.error();
  };
  auto ExpectNames = [](const std::string &Msg, const char *Port) {
    EXPECT_NE(Msg.find("cycle 1"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find(std::string("'") + Port + "'"), std::string::npos)
        << Msg;
  };
  for (const char *A : {"2.7", "1e300", "18446744073709551616", "2.0"}) {
    std::string Msg = Err(std::string(R"({"a":)") + A +
                          R"(,"en":true,"v":[1,2]})");
    ExpectNames(Msg, "a");
    EXPECT_NE(Msg.find("expected an integer"), std::string::npos) << Msg;
  }
  std::string Bool = Err(R"({"a":1,"en":1.0,"v":[1,2]})");
  ExpectNames(Bool, "en");
  EXPECT_NE(Bool.find("expected a boolean"), std::string::npos) << Bool;
  std::string Half = Err(R"({"a":1,"en":0.5,"v":[1,2]})");
  ExpectNames(Half, "en");
  std::string Lane = Err(R"({"a":1,"en":true,"v":[1,2.5]})");
  ExpectNames(Lane, "v");
  EXPECT_NE(Lane.find("lane 1"), std::string::npos) << Lane;
  std::string Huge = Err(R"({"a":1,"en":true,"v":[1e300,2]})");
  ExpectNames(Huge, "v");
  EXPECT_NE(Huge.find("lane 0"), std::string::npos) << Huge;
  for (const char *C : {"1.0", "1e300", "18446744073709551617"}) {
    std::string Msg = Err(std::string(R"({"cycle":)") + C +
                          R"(,"a":1,"en":true,"v":[1,2]})");
    ExpectNames(Msg, "cycle");
    EXPECT_NE(Msg.find("expected the integer 1"), std::string::npos) << Msg;
  }
  // Integers at the int64 edges still read exactly.
  Result<Trace> Edge = sim::parseInputTrace(
      R"({"schema":"reticle-input-trace-v1","cycles":[)"
      R"({"a":-9223372036854775808,"en":1,"v":[9223372036854775807,0]}]})",
      Fn);
  ASSERT_TRUE(Edge.ok()) << Edge.error();
  EXPECT_EQ(Edge.value().get(0, "en")->str(), Value::makeBool(true).str());
}

TEST(TraceIo, CycleSelfCheckAcceptsInOrderRecords) {
  ir::Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  Result<Trace> T = sim::parseInputTrace(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"cycle":0,"a":1},{"cycle":1,"a":2}]})",
      Fn);
  ASSERT_TRUE(T.ok()) << T.error();
  EXPECT_EQ(T.value().size(), 2u);
  // The reserved key is a self-check, not an input: it never lands in
  // the trace.
  EXPECT_EQ(T.value().get(0, "cycle"), nullptr);
}

TEST(TraceIo, CycleKeyNotReservedWhenAPortClaimsIt) {
  // A function whose input is literally named "cycle" keeps the key as a
  // normal column; the self-check steps aside.
  ir::Function Fn = parseOk(R"(
    def f(cycle:i8) -> (y:i8) {
      y:i8 = add(cycle, cycle) @??;
    }
  )");
  Result<Trace> T = sim::parseInputTrace(
      R"({"schema":"reticle-input-trace-v1",
          "cycles":[{"cycle":42}]})",
      Fn);
  ASSERT_TRUE(T.ok()) << T.error();
  ASSERT_NE(T.value().get(0, "cycle"), nullptr);
  EXPECT_EQ(T.value().get(0, "cycle")->str(),
            Value::splat(ir::Type::makeInt(8), 42).str());
}

//===----------------------------------------------------------------------===//
// Engines driving sinks
//===----------------------------------------------------------------------===//

TEST(WaveEngines, InterpreterStreamsPortsAndInternals) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();
  WaveCapture Cap;
  Result<Trace> Out = interp::interpret(Fn, In, &Cap, obs::defaultContext());
  ASSERT_TRUE(Out.ok()) << Out.error();

  ASSERT_TRUE(Cap.finished());
  EXPECT_FALSE(Cap.aborted());
  EXPECT_EQ(Cap.cycles(), In.size());
  std::map<std::string, WaveSignal::Kind> Kinds;
  for (const WaveSignal &S : Cap.signals())
    Kinds[S.Name] = S.SigKind;
  EXPECT_EQ(Kinds.at("a"), WaveSignal::Kind::Input);
  EXPECT_EQ(Kinds.at("en"), WaveSignal::Kind::Input);
  EXPECT_EQ(Kinds.at("y"), WaveSignal::Kind::Output);
  EXPECT_EQ(Kinds.at("t0"), WaveSignal::Kind::Internal);
  EXPECT_EQ(Kinds.at("t1"), WaveSignal::Kind::Internal);
  // The streamed output values are exactly the returned trace's.
  for (size_t C = 0; C < In.size(); ++C) {
    std::optional<std::span<const uint64_t>> V = Cap.valueAt(C, "y");
    ASSERT_TRUE(V.has_value()) << C;
    std::vector<uint64_t> Want;
    sim::packBits(Out.value().get(C, "y")->toBits(), 8, Want);
    EXPECT_EQ(toVec(*V), Want) << C;
  }
}

TEST(WaveEngines, InterpreterAbortFlushesTruncatedCapture) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();
  In.steps()[2].erase("b"); // starve cycle 2
  WaveCapture Cap;
  Result<Trace> Out = interp::interpret(Fn, In, &Cap, obs::defaultContext());
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("cycle 2"), std::string::npos);
  // The sink was finished (aborted) and holds the completed cycles.
  EXPECT_TRUE(Cap.finished());
  EXPECT_TRUE(Cap.aborted());
  EXPECT_EQ(Cap.cycles(), 2u);
  ASSERT_TRUE(Cap.valueAt(1, "y").has_value());
  // Replaying the truncated capture still renders well-formed VCD.
  sim::VcdWriter W("mac");
  ASSERT_TRUE(sim::replay({{&Cap, ""}}, W).ok());
  EXPECT_NE(W.text().find("$comment aborted $end"), std::string::npos);
  EXPECT_EQ(checkVcdShape(W.text()), "");
}

TEST(WaveEngines, NetlistAndInterpreterAgreeOnSharedPorts) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();

  WaveCapture InterpCap;
  Result<Trace> Ref = interp::interpret(Fn, In, &InterpCap, obs::defaultContext());
  ASSERT_TRUE(Ref.ok()) << Ref.error();

  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options);
  ASSERT_TRUE(R.ok()) << R.error();
  Result<sim::Program> Net = sim::compile(R.value().Verilog);
  ASSERT_TRUE(Net.ok()) << Net.error();
  WaveCapture NetCap;
  Result<Trace> Got = sim::execute(Net.value(), In, &NetCap);
  ASSERT_TRUE(Got.ok()) << Got.error();

  ASSERT_EQ(NetCap.cycles(), InterpCap.cycles());
  // The wave_diff property: every port signal both engines declare agrees
  // bit for bit, every cycle.
  std::set<std::string> NetPorts;
  for (const WaveSignal &S : NetCap.signals())
    if (S.SigKind != WaveSignal::Kind::Internal)
      NetPorts.insert(S.Name);
  size_t Shared = 0;
  for (const WaveSignal &S : InterpCap.signals()) {
    if (S.SigKind == WaveSignal::Kind::Internal || !NetPorts.count(S.Name))
      continue;
    ++Shared;
    for (uint64_t C = 0; C < InterpCap.cycles(); ++C) {
      std::optional<std::span<const uint64_t>> A =
          InterpCap.valueAt(C, S.Name);
      std::optional<std::span<const uint64_t>> B = NetCap.valueAt(C, S.Name);
      ASSERT_TRUE(A.has_value()) << S.Name << " cycle " << C;
      ASSERT_TRUE(B.has_value()) << S.Name << " cycle " << C;
      EXPECT_EQ(toVec(*A), toVec(*B)) << S.Name << " cycle " << C;
    }
  }
  EXPECT_EQ(Shared, 5u); // a, b, c, en, y
}

//===----------------------------------------------------------------------===//
// The stats document's sim section
//===----------------------------------------------------------------------===//

TEST(WaveStats, SimSectionReflectsTheRun) {
  ir::Function Fn = parseOk(MacSource);
  Trace In = macTrace();

  obs::Telemetry Telem;
  obs::RemarkStream Rem;
  obs::Coverage Cov;
  obs::Context Ctx{&Telem, &Rem, &Cov};
  WaveCapture Cap;
  ASSERT_TRUE(interp::interpret(Fn, In, &Cap, Ctx).ok());

  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R = core::compile(Fn, Options);
  ASSERT_TRUE(R.ok()) << R.error();

  Json Doc = core::statsJson(R.value(), "mac.ret", Ctx);
  const Json *Sim = Doc.find("sim");
  ASSERT_NE(Sim, nullptr);
  // The section always exists with the full shape.
  ASSERT_NE(Sim->find("cycles"), nullptr);
  ASSERT_NE(Sim->find("events"), nullptr);
  ASSERT_NE(Sim->find("toggles"), nullptr);
  ASSERT_NE(Sim->find("signals"), nullptr);
  ASSERT_NE(Sim->find("interp"), nullptr);
  ASSERT_NE(Sim->find("vm"), nullptr);
  EXPECT_EQ(Sim->find("cycles")->asInt(), 4);
  EXPECT_EQ(Sim->find("interp")->find("cycles")->asInt(), 4);
  EXPECT_GT(Sim->find("interp")->find("evals")->asInt(), 0);
  EXPECT_EQ(Sim->find("signals")->asInt(), 7); // a b c en t0 t1 y
  EXPECT_GT(Sim->find("events")->asInt(), 0);
}

} // namespace
