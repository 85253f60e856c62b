//===- tests/coverage_test.cpp - Coverage registry and collectors --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// The coverage observability layer: the bin registry itself (declare /
/// hit / merge / snapshot), its JSON serializations, the three collectors
/// (static IR coverage from the verifier, isel pattern coverage from the
/// selector, dynamic toggle coverage from the WaveSink), session
/// isolation, and the batch-level merge that backs `reticle-batch-v1`'s
/// coverage key.
///
//===----------------------------------------------------------------------===//

#include "obs/Coverage.h"

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "device/Device.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "obs/Json.h"
#include "obs/Remarks.h"
#include "obs/Telemetry.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <random>
#include <span>
#include <sstream>

using namespace reticle;
using obs::Coverage;
using obs::CoverageSnapshot;
using obs::Json;

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

/// The low \p Width bits of packed \p W, LSB first.
std::vector<bool> unpack(std::span<const uint64_t> W, unsigned Width) {
  std::vector<bool> Bits(Width);
  for (unsigned B = 0; B < Width; ++B)
    Bits[B] = (W[B / 64] >> (B % 64)) & 1;
  return Bits;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The per-bit definition of toggle coverage, computed from unpacked
/// values: each bit that differs between a signal's consecutive reports
/// hits `name[bit]:01` or `name[bit]:10`; the first report only seeds.
struct ToggleReference {
  explicit ToggleReference(std::vector<sim::WaveSignal> Signals)
      : Sigs(std::move(Signals)), Last(Sigs.size()) {}

  void report(unsigned Id, const std::vector<bool> &Bits) {
    if (Last[Id])
      for (size_t B = 0; B < Bits.size(); ++B)
        if (Bits[B] != (*Last[Id])[B])
          ++Bins[Sigs[Id].Name + "[" + std::to_string(B) +
                 (Bits[B] ? "]:01" : "]:10")];
    Last[Id] = Bits;
  }

  std::vector<sim::WaveSignal> Sigs;
  std::vector<std::optional<std::vector<bool>>> Last;
  std::map<std::string, uint64_t> Bins;
};

//===----------------------------------------------------------------------===//
// Serialization (pure functions over a snapshot)
//===----------------------------------------------------------------------===//

TEST(CoverageJson, HitCountsExcludeDeclaredOnlyBins) {
  CoverageSnapshot Snap;
  Snap["s"]["hole"] = 0;
  Snap["s"]["hit1"] = 1;
  Snap["s"]["hit2"] = 4;
  Json Body = obs::coverageJson(Snap);

  const Json *Spaces = Body.find("spaces");
  ASSERT_NE(Spaces, nullptr);
  const Json *S = Spaces->find("s");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->find("hit")->asInt(), 2);
  EXPECT_EQ(S->find("total")->asInt(), 3);
  EXPECT_EQ(S->find("bins")->find("hole")->asInt(), 0);
  EXPECT_EQ(S->find("bins")->find("hit2")->asInt(), 4);

  const Json *Totals = Body.find("totals");
  ASSERT_NE(Totals, nullptr);
  EXPECT_EQ(Totals->find("spaces")->asInt(), 1);
  EXPECT_EQ(Totals->find("bins")->asInt(), 3);
  EXPECT_EQ(Totals->find("hit")->asInt(), 2);
}

TEST(CoverageJson, StandaloneDocCarriesSchemaAndProgram) {
  CoverageSnapshot Snap;
  Snap["s"]["b"] = 1;
  Json Doc = obs::coverageDoc("mac.ret", Snap);
  EXPECT_EQ(Doc.find("schema")->asString(), "reticle-coverage-v1");
  EXPECT_EQ(Doc.find("program")->asString(), "mac.ret");
  ASSERT_NE(Doc.find("spaces"), nullptr);
  ASSERT_NE(Doc.find("totals"), nullptr);
}

TEST(CoverageCollectors, SessionsAreIsolatedAndDeterministic) {
  auto CompileOnce = [] {
    core::CompileSession Session;
    core::CompileOptions Options;
    Options.Dev = device::Device::small();
    Result<core::CompileResult> R =
        core::compileSource(MacSource, "mac.ret", Options, Session);
    EXPECT_TRUE(R.ok()) << R.error();
    return Session.coverage().snapshot();
  };
  CoverageSnapshot A = CompileOnce();
  CoverageSnapshot B = CompileOnce();
  // Two private sessions over the same source record identical coverage —
  // nothing leaked across, nothing nondeterministic crept in.
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// The registry
//===----------------------------------------------------------------------===//

TEST(CoverageRegistry, DeclareCreatesZeroBinsHitIncrements) {
  Coverage Cov;
  EXPECT_TRUE(Cov.empty());
  Cov.declare("space", "never");
  Cov.hit("space", "twice");
  Cov.hit("space", "twice");
  Cov.hit("other", "bulk", 5);
  EXPECT_FALSE(Cov.empty());

  CoverageSnapshot S = Cov.snapshot();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S.at("space").at("never"), 0u);
  EXPECT_EQ(S.at("space").at("twice"), 2u);
  EXPECT_EQ(S.at("other").at("bulk"), 5u);
}

TEST(CoverageRegistry, DeclareNeverLowersAHitBin) {
  Coverage Cov;
  Cov.hit("s", "b");
  Cov.declare("s", "b");
  EXPECT_EQ(Cov.snapshot().at("s").at("b"), 1u);
}

TEST(CoverageRegistry, MergeUnionsSpacesAndSumsCounts) {
  Coverage A, B;
  A.hit("s", "shared", 2);
  A.declare("s", "only_a");
  B.hit("s", "shared", 3);
  B.hit("t", "only_b");
  A.merge(B);

  CoverageSnapshot S = A.snapshot();
  EXPECT_EQ(S.at("s").at("shared"), 5u);
  EXPECT_EQ(S.at("s").at("only_a"), 0u);
  EXPECT_EQ(S.at("t").at("only_b"), 1u);
  // B is untouched.
  EXPECT_EQ(B.snapshot().at("s").at("shared"), 3u);
}

// The snapshot merge the toggle sink hands its bins over with: into a
// space with no bins it moves them in whole, into a space with bins it
// sums them, declared zero-count bins are kept on both sides, and a named
// snapshot passed in is copied, not consumed.
TEST(CoverageRegistry, SnapshotMergeMovesIntoEmptySpacesAndSumsOtherwise) {
  // Built out of order: the handover must not depend on the hints.
  CoverageSnapshot In;
  for (const char *Bin : {"z", "m", "b", "a"})
    In["s"].emplace_hint(In["s"].end(), Bin, 1);
  In["s"]["hole"] = 0;
  In["t"]["x"] = 2;

  Coverage Moved;
  Moved.hit("u", "kept");
  Moved.merge(CoverageSnapshot(In));
  CoverageSnapshot S = Moved.snapshot();
  EXPECT_EQ(S.at("s"), In.at("s"));
  EXPECT_EQ(S.at("s").at("hole"), 0u);
  EXPECT_EQ(S.at("t"), In.at("t"));
  EXPECT_EQ(S.at("u").at("kept"), 1u);

  Coverage Summed, ByCopy;
  for (Coverage *Cov : {&Summed, &ByCopy}) {
    Cov->hit("s", "m", 3);
    Cov->declare("s", "own_hole");
    Cov->declare("t", "x");
  }
  const CoverageSnapshot Kept = In;
  Summed.merge(CoverageSnapshot(In));
  ByCopy.merge(In);
  EXPECT_EQ(In, Kept);
  S = Summed.snapshot();
  EXPECT_EQ(S, ByCopy.snapshot());
  EXPECT_EQ(S.at("s").at("m"), 4u);
  EXPECT_EQ(S.at("s").at("a"), 1u);
  EXPECT_EQ(S.at("s").at("hole"), 0u);
  EXPECT_EQ(S.at("s").at("own_hole"), 0u);
  EXPECT_EQ(S.at("t").at("x"), 2u);
}

//===----------------------------------------------------------------------===//
// Collectors: static IR + isel pattern coverage through a compile
//===----------------------------------------------------------------------===//

TEST(CoverageCollectors, CompileRecordsIrAndIselSpaces) {
  core::CompileSession Session;
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R =
      core::compileSource(MacSource, "mac.ret", Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  // Static IR bins count the instructions selection received, once per
  // compile: the parse pass and selection both verify, and neither
  // verification counts.
  CoverageSnapshot S = Session.coverage().snapshot();
  using Bins = std::map<std::string, uint64_t>;
  EXPECT_EQ(S.at("ir.op"), (Bins{{"add", 1}, {"mul", 1}, {"reg", 1}}));
  EXPECT_EQ(S.at("ir.op_type"),
            (Bins{{"add:i8", 1}, {"mul:i8", 1}, {"reg:i8", 1}}));
  EXPECT_EQ(S.at("ir.lanes"), (Bins{{"1", 3}}));
  EXPECT_EQ(S.at("ir.resource"), (Bins{{"??", 3}}));

  // The selector declared every selectable pattern up front, so the space
  // is larger than what one small program can hit — never-fired patterns
  // are zero-count holes.
  ASSERT_TRUE(S.count("isel.pattern"));
  uint64_t Hit = 0, Holes = 0;
  for (const auto &[Bin, Count] : S.at("isel.pattern"))
    (Count ? Hit : Holes)++;
  EXPECT_GT(Hit, 0u);
  EXPECT_GT(Holes, 0u);
}

// With -O the bins describe the vectorized function selection receives,
// not the scalar one the parse pass verified.
TEST(CoverageCollectors, OptimizedCompileRecordsTheSelectedFunction) {
  core::CompileSession Session;
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Options.Optimize = true;
  Result<core::CompileResult> R = core::compileSource(R"(
    def scalar_adds(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8)
        -> (y0:i8, y1:i8, y2:i8, y3:i8) {
      y0:i8 = add(a0, b0) @??;
      y1:i8 = add(a1, b1) @??;
      y2:i8 = add(a2, b2) @??;
      y3:i8 = add(a3, b3) @??;
    }
  )", "scalar_adds.ret", Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_EQ(R.value().Opt.Vectorized, 1u);

  CoverageSnapshot S = Session.coverage().snapshot();
  const std::map<std::string, uint64_t> &OpType = S.at("ir.op_type");
  EXPECT_EQ(OpType.at("add:i8<4>"), 1u);
  EXPECT_EQ(OpType.count("add:i8"), 0u);
  EXPECT_EQ(S.at("ir.op").at("add"), 1u);
  // One compute instruction; the cat/slice wiring carries no resource.
  EXPECT_EQ(S.at("ir.resource"), (std::map<std::string, uint64_t>{{"??", 1}}));
}

TEST(CoverageCollectors, StatsDocEmbedsTheCoverageSection) {
  core::CompileSession Session;
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Result<core::CompileResult> R =
      core::compileSource(MacSource, "mac.ret", Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  Json Doc = core::statsJson(R.value(), "mac.ret", Session.context());
  const Json *Cov = Doc.find("coverage");
  ASSERT_NE(Cov, nullptr);
  const Json *Spaces = Cov->find("spaces");
  ASSERT_NE(Spaces, nullptr);
  EXPECT_NE(Spaces->find("ir.op"), nullptr);
  EXPECT_NE(Spaces->find("isel.pattern"), nullptr);
}

//===----------------------------------------------------------------------===//
// ToggleCoverageSink: per-bit edge bins
//===----------------------------------------------------------------------===//

TEST(ToggleCoverage, RecordsPerBitEdges) {
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  ASSERT_TRUE(Sink.begin({sim::WaveSignal("y", 2)}).ok());
  Sink.beginCycle(0);
  Sink.value(0, words({0b10}), true); // first observation only seeds
  Sink.beginCycle(1);
  Sink.value(0, words({0b01}), true); // bit0 0->1, bit1 1->0
  Sink.beginCycle(2);
  Sink.value(0, words({0b01}), false); // unchanged: no edges
  ASSERT_TRUE(Sink.finish(false).ok());

  CoverageSnapshot S = Cov.snapshot();
  ASSERT_TRUE(S.count("sim.toggle"));
  const auto &Bins = S.at("sim.toggle");
  EXPECT_EQ(Bins.at("y[0]:01"), 1u);
  EXPECT_EQ(Bins.at("y[1]:10"), 1u);
  // The edges never seen stay absent (bins appear on first hit).
  EXPECT_EQ(Bins.count("y[0]:10"), 0u);
  EXPECT_EQ(Bins.count("y[1]:01"), 0u);
}

TEST(ToggleCoverage, NarrowedValueReadsAsZeroBits) {
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  ASSERT_TRUE(
      Sink.begin({sim::WaveSignal("w", 2), sim::WaveSignal("x", 65)}).ok());
  Sink.beginCycle(0);
  Sink.value(0, words({0b11}), true);
  Sink.value(1, words({1, 1}), true);
  Sink.beginCycle(1);
  Sink.value(0, words({0b01}), true); // bit1 now 0: a 1->0 edge
  Sink.value(1, words({1}), true);    // missing word reads as zero
  ASSERT_TRUE(Sink.finish(false).ok());
  CoverageSnapshot S = Cov.snapshot();
  EXPECT_EQ(S.at("sim.toggle").at("w[1]:10"), 1u);
  EXPECT_EQ(S.at("sim.toggle").at("x[64]:10"), 1u);
  EXPECT_EQ(S.at("sim.toggle").size(), 2u);
}

TEST(ToggleCoverage, BinsLandOnceAtFinish) {
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  ASSERT_TRUE(Sink.begin({sim::WaveSignal("b", 1)}).ok());
  for (uint64_t C = 0; C < 5; ++C) {
    Sink.beginCycle(C);
    Sink.value(0, words({C % 2}), true);
  }
  EXPECT_TRUE(Cov.empty());
  ASSERT_TRUE(Sink.finish(false).ok());
  ASSERT_TRUE(Sink.finish(false).ok()); // a second finish adds nothing
  CoverageSnapshot S = Cov.snapshot();
  EXPECT_EQ(S.at("sim.toggle").at("b[0]:01"), 2u);
  EXPECT_EQ(S.at("sim.toggle").at("b[0]:10"), 2u);
}

// Bit-sliced toggle counting against the per-bit definition: random
// values on signals at and around the word and byte boundaries, random
// baselines (bits start at 0 or 1), some cycles unchanged, compared bin
// for bin. 1100 cycles make each word's counters spill past 255 changes
// several times, and a finish mid-run hands over bins while later edges
// still count from the values it left.
TEST(ToggleCoverage, MatchesBitLevelReference) {
  std::vector<sim::WaveSignal> Sigs;
  for (unsigned W : {1u, 2u, 7u, 63u, 64u, 65u, 128u, 130u})
    Sigs.emplace_back(std::string("s").append(std::to_string(W)), W);
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  ASSERT_TRUE(Sink.begin(Sigs).ok());
  ToggleReference Ref(Sigs);

  std::mt19937_64 Rng(7);
  std::vector<std::vector<bool>> Cur;
  for (const sim::WaveSignal &S : Sigs) {
    Cur.emplace_back(S.Width);
    for (size_t B = 0; B < S.Width; ++B)
      Cur.back()[B] = Rng() % 2;
  }
  std::vector<uint64_t> Packed;
  for (uint64_t C = 0; C < 1100; ++C) {
    Sink.beginCycle(C);
    for (unsigned Id = 0; Id < Sigs.size(); ++Id) {
      std::vector<bool> Next = Cur[Id];
      // Every fourth value repeats; in the others every fifth bit flips,
      // so its count fills all eight planes before a spill, and a third
      // of the rest flip.
      if (C > 0 && Rng() % 4 != 0)
        for (size_t B = 0; B < Next.size(); ++B)
          if (B % 5 == 0 || Rng() % 3 == 0)
            Next[B] = !Next[B];
      sim::packBits(Next, Sigs[Id].Width, Packed);
      Sink.value(Id, Packed, C == 0 || Next != Cur[Id]);
      Ref.report(Id, Next);
      Cur[Id] = std::move(Next);
    }
    if (C == 400) {
      ASSERT_TRUE(Sink.finish(false).ok());
    }
  }
  ASSERT_TRUE(Sink.finish(false).ok());
  ASSERT_FALSE(Ref.Bins.empty());
  // s1 changed with every changed value: more than three spills' worth.
  ASSERT_GT(Ref.Bins.at("s1[0]:01") + Ref.Bins.at("s1[0]:10"), 3 * 255u);
  EXPECT_EQ(Cov.snapshot()["sim.toggle"], Ref.Bins);
}

// Bins go to the registry in its own order when signal names sort
// plainly. Names where one extends another past a '[' and a repeated name
// take the slower insert and sum paths, and so does a registry that
// already holds sim.toggle bins; each must give the reference's bins.
TEST(ToggleCoverage, AwkwardNamesAndAHeldSpaceMatchTheReference) {
  std::vector<sim::WaveSignal> Sigs;
  for (const char *Name : {"z", "a[1]", "a", "a0", "A", "dup", "a[", "dup"})
    Sigs.emplace_back(Name, 12);
  std::mt19937_64 Rng(11);
  std::vector<std::vector<std::vector<bool>>> Values(20);
  for (auto &Cycle : Values)
    for (const sim::WaveSignal &S : Sigs) {
      Cycle.emplace_back(S.Width);
      for (size_t B = 0; B < S.Width; ++B)
        Cycle.back()[B] = Rng() % 2;
    }
  ToggleReference Ref(Sigs);
  for (const auto &Cycle : Values)
    for (unsigned Id = 0; Id < Sigs.size(); ++Id)
      Ref.report(Id, Cycle[Id]);
  auto Run = [&](Coverage &Cov) {
    sim::ToggleCoverageSink Sink(Cov);
    ASSERT_TRUE(Sink.begin(Sigs).ok());
    std::vector<uint64_t> Packed;
    for (uint64_t C = 0; C < Values.size(); ++C) {
      Sink.beginCycle(C);
      for (unsigned Id = 0; Id < Sigs.size(); ++Id) {
        sim::packBits(Values[C][Id], Sigs[Id].Width, Packed);
        Sink.value(Id, Packed, true);
      }
    }
    ASSERT_TRUE(Sink.finish(false).ok());
  };

  Coverage Fresh;
  Run(Fresh);
  EXPECT_EQ(Fresh.snapshot()["sim.toggle"], Ref.Bins);

  Coverage Held;
  Held.declare("sim.toggle", "hole");
  Held.hit("sim.toggle", "a[3]:01", 5);
  Run(Held);
  std::map<std::string, uint64_t> Want = Ref.Bins;
  Want["hole"] += 0;
  Want["a[3]:01"] += 5;
  EXPECT_EQ(Held.snapshot()["sim.toggle"], Want);
}

// A run that records no edge leaves no sim.toggle space behind.
TEST(ToggleCoverage, NoEdgesCreateNoSpace) {
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  ASSERT_TRUE(Sink.begin({sim::WaveSignal("q", 70)}).ok());
  for (uint64_t C = 0; C < 3; ++C) {
    Sink.beginCycle(C);
    Sink.value(0, words({9, 1}), C == 0);
  }
  ASSERT_TRUE(Sink.finish(false).ok());
  EXPECT_TRUE(Cov.empty());
}

// The wide fixture (an i64<2> and an i24<4> with a lane straddling the
// word boundary) captured on both VM engines and replayed the way
// `reticlec --run --coverage` does.
TEST(ToggleCoverage, WideFixtureReplayMatchesBitLevelReference) {
  std::string Dir = RETICLE_TEST_INPUTS_DIR;
  Result<ir::Function> Fn = ir::parseFunction(slurp(Dir + "/wide_wires.ret"));
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  Result<interp::Trace> In = sim::parseInputTrace(
      slurp(Dir + "/wide_wires.trace.json"), Fn.value());
  ASSERT_TRUE(In.ok()) << In.error();
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  core::CompileSession Session;
  const obs::Context &Ctx = Session.context();
  Result<core::CompileResult> R = core::compile(Fn.value(), Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  Result<sim::Program> IrProg = sim::compile(Fn.value(), Ctx);
  Result<sim::Program> NetProg = sim::compile(R.value().Verilog, Ctx);
  ASSERT_TRUE(IrProg.ok()) << IrProg.error();
  ASSERT_TRUE(NetProg.ok()) << NetProg.error();

  sim::WaveCapture CapIr, CapNet;
  ASSERT_TRUE(sim::execute(IrProg.value(), In.value(), &CapIr, Ctx).ok());
  ASSERT_TRUE(sim::execute(NetProg.value(), In.value(), &CapNet, Ctx).ok());
  std::vector<std::pair<const sim::WaveCapture *, std::string>> Sources = {
      {&CapIr, "vm-ir"}, {&CapNet, "vm-netlist"}};
  Coverage Cov;
  sim::ToggleCoverageSink Sink(Cov);
  ASSERT_TRUE(sim::replay(Sources, Sink).ok());

  // The reference walks the same events unpacked to bits, in replay
  // order, under the same prefixed names.
  std::vector<sim::WaveSignal> Merged;
  std::vector<unsigned> Offset;
  for (const auto &[Cap, Prefix] : Sources) {
    Offset.push_back(static_cast<unsigned>(Merged.size()));
    for (const sim::WaveSignal &S : Cap->signals())
      Merged.emplace_back(Prefix + "." + S.Name, S.Width);
  }
  ToggleReference Ref(Merged);
  for (uint64_t C = 0; C < In.value().size(); ++C)
    for (size_t I = 0; I < Sources.size(); ++I) {
      const sim::WaveCapture &Cap = *Sources[I].first;
      for (const sim::WaveCapture::Event &E : Cap.eventsByCycle()[C])
        Ref.report(Offset[I] + E.Id,
                   unpack(Cap.words(E), Cap.signals()[E.Id].Width));
    }
  ASSERT_FALSE(Ref.Bins.empty());
  // Both engines saw edges on the high word of w and on the straddling
  // lane's bits in both words of v.
  EXPECT_TRUE(Ref.Bins.count("vm-ir.w[127]:01") ||
              Ref.Bins.count("vm-ir.w[127]:10"));
  EXPECT_TRUE(Ref.Bins.count("vm-netlist.v[63]:01") ||
              Ref.Bins.count("vm-netlist.v[63]:10"));
  EXPECT_TRUE(Ref.Bins.count("vm-netlist.v[64]:01") ||
              Ref.Bins.count("vm-netlist.v[64]:10"));
  EXPECT_EQ(Cov.snapshot()["sim.toggle"], Ref.Bins);
}

// Counters and bins land at finish(); an engine that aborts mid-run
// finishes its sink as aborted, so the completed cycles still count.
TEST(ToggleCoverage, AbortedRunsKeepTheirCounts) {
  Result<ir::Function> Fn = ir::parseFunction(MacSource);
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  obs::Sinks Sinks;
  Result<sim::Program> Prog = sim::compile(Fn.value(), Sinks.context());
  ASSERT_TRUE(Prog.ok()) << Prog.error();
  interp::Trace In;
  ir::Type I8 = ir::Type::makeInt(8);
  for (int C = 0; C < 4; ++C) {
    interp::Step &S = In.appendStep();
    S["a"] = interp::Value::splat(I8, C + 1);
    S["b"] = interp::Value::splat(I8, 2 * C - 1);
    S["c"] = interp::Value::splat(I8, -C);
    S["en"] = interp::Value::makeBool(C != 2);
  }
  In.steps()[2].erase("b"); // starve cycle 2

  for (bool Vm : {true, false}) {
    SCOPED_TRACE(Vm ? "vm-ir" : "interp");
    auto Run = [&](sim::WaveSink &Sink, const obs::Context &Ctx) {
      return Vm ? sim::execute(Prog.value(), In, &Sink, Ctx)
                : interp::interpret(Fn.value(), In, &Sink, Ctx);
    };
    obs::Sinks RunSinks;
    const obs::Context &Ctx = RunSinks.context();
    Coverage &Cov = RunSinks.coverage();
    sim::ToggleCoverageSink Sink(Cov);
    Result<interp::Trace> Out = Run(Sink, Ctx);
    ASSERT_FALSE(Out.ok());
    EXPECT_NE(Out.error().find("cycle 2"), std::string::npos) << Out.error();
    uint64_t Signals = Ctx.counter("sim.signals").load();
    ASSERT_GT(Signals, 0u);
    EXPECT_EQ(Ctx.counter("sim.events").load(), 2 * Signals);

    // The reference: the cycle 0->1 edges of the same aborted run.
    sim::WaveCapture Cap;
    obs::Sinks RefSinks;
    ASSERT_FALSE(Run(Cap, RefSinks.context()).ok());
    ASSERT_EQ(Cap.cycles(), 2u);
    ToggleReference Ref(Cap.signals());
    for (uint64_t C = 0; C < 2; ++C)
      for (const sim::WaveCapture::Event &E : Cap.eventsByCycle()[C])
        Ref.report(E.Id, unpack(Cap.words(E), Cap.signals()[E.Id].Width));
    ASSERT_FALSE(Ref.Bins.empty());
    EXPECT_EQ(Cov.snapshot()["sim.toggle"], Ref.Bins);
  }
}

//===----------------------------------------------------------------------===//
// Batch merge
//===----------------------------------------------------------------------===//

TEST(CoverageBatch, MergedSnapshotIsASupersetOfEveryItem) {
  std::vector<core::BatchInput> Inputs;
  Inputs.push_back({"mac.ret", MacSource});
  Inputs.push_back({"sub.ret", R"(
    def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) {
      y:i8<4> = sub(a, b) @??;
    }
  )"});
  core::BatchOptions Options;
  Options.Options.Dev = device::Device::small();
  Options.Jobs = 2;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);
  ASSERT_EQ(Items.size(), 2u);
  for (const core::BatchItem &Item : Items)
    ASSERT_TRUE(Item.ok()) << Item.Name;

  CoverageSnapshot Merged = core::batchCoverage(Items);
  for (const core::BatchItem &Item : Items)
    for (const auto &[Space, Bins] : Item.Session->coverage().snapshot())
      for (const auto &[Bin, Count] : Bins) {
        ASSERT_TRUE(Merged.count(Space)) << Space;
        ASSERT_TRUE(Merged.at(Space).count(Bin)) << Space << "/" << Bin;
        EXPECT_GE(Merged.at(Space).at(Bin), Count) << Space << "/" << Bin;
      }
  // The vector-lane program contributes a lane bin mac alone cannot.
  EXPECT_GT(Merged.at("ir.lanes").count("4"), 0u);

  // The batch summary embeds the same merge.
  Json Summary = core::batchStatsJson(Items, 2);
  const Json *Cov = Summary.find("coverage");
  ASSERT_NE(Cov, nullptr);
  EXPECT_NE(Cov->find("spaces")->find("ir.op"), nullptr);
}

} // namespace
