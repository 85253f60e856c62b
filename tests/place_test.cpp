//===- tests/place_test.cpp - Placement tests ----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "place/Place.h"

#include "rasm/AsmParser.h"

#include <gtest/gtest.h>

#include <random>

using namespace reticle;
using namespace reticle::place;
using device::Device;
using rasm::AsmProgram;

namespace {

AsmProgram parseOk(const std::string &Source) {
  Result<AsmProgram> P = rasm::parseAsmProgram(Source);
  EXPECT_TRUE(P.ok()) << P.error();
  return P.take();
}

/// Builds a program with N independent DSP adds, all wildcard-placed.
AsmProgram manyDspAdds(unsigned N) {
  std::string Source = "def f(a:i8, b:i8) -> (t0:i8";
  for (unsigned I = 1; I < N; ++I)
    Source += ", t" + std::to_string(I) + ":i8";
  Source += ") {\n";
  for (unsigned I = 0; I < N; ++I)
    Source += "  t" + std::to_string(I) +
              ":i8 = add(a, b) @dsp(?\?, ?\?);\n";
  Source += "}\n";
  return parseOk(Source);
}

} // namespace

TEST(Place, SingleWildcardInstruction) {
  AsmProgram P = parseOk(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(?\?, ?\?); }");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(Placed.value().isPlaced());
  Status S = checkPlacement(P, Placed.value(), Device::tiny());
  EXPECT_TRUE(S.ok()) << S.error();
}

TEST(Place, HonorsPinnedLocations) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(1, 2);
      z:i8 = add(a, b) @dsp(??, ??);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_EQ(Placed.value().body()[0].loc().X.offset(), 1);
  EXPECT_EQ(Placed.value().body()[0].loc().Y.offset(), 2);
  // The second instruction must avoid the pinned slot.
  EXPECT_FALSE(Placed.value().body()[1].loc().X.offset() == 1 &&
               Placed.value().body()[1].loc().Y.offset() == 2);
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, RejectsInvalidPin) {
  AsmProgram P = parseOk(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(0, 0); }");
  // Column 0 of the tiny device holds LUTs.
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("not a valid"), std::string::npos);
}

TEST(Place, CascadeChainStaysInOneColumn) {
  AsmProgram P = parseOk(R"(
    def dot(a:i8, b:i8, c:i8, d:i8, e:i8, f:i8, in:i8) -> (t2:i8) {
      t0:i8 = muladd_co(a, b, in) @dsp(x, y);
      t1:i8 = muladd_cio(c, d, t0) @dsp(x, y+1);
      t2:i8 = muladd_ci(e, f, t1) @dsp(x, y+2);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  int64_t X0 = Placed.value().body()[0].loc().X.offset();
  int64_t Y0 = Placed.value().body()[0].loc().Y.offset();
  EXPECT_EQ(Placed.value().body()[1].loc().X.offset(), X0);
  EXPECT_EQ(Placed.value().body()[1].loc().Y.offset(), Y0 + 1);
  EXPECT_EQ(Placed.value().body()[2].loc().X.offset(), X0);
  EXPECT_EQ(Placed.value().body()[2].loc().Y.offset(), Y0 + 2);
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, FailsWhenChainExceedsColumn) {
  // Five chained DSPs cannot fit a column of height four.
  std::string Source =
      "def f(a:i8, b:i8, in:i8) -> (t4:i8) {\n";
  std::string Prev = "in";
  for (int I = 0; I < 5; ++I) {
    Source += "  t" + std::to_string(I) + ":i8 = muladd_cio(a, b, " + Prev +
              ") @dsp(x, y+" + std::to_string(I) + ");\n";
    Prev = "t" + std::to_string(I);
  }
  Source += "}\n";
  AsmProgram P = parseOk(Source);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("placement failed"), std::string::npos);
}

TEST(Place, ExactCapacityFits) {
  // The tiny device has exactly 4 DSP slots.
  AsmProgram P = manyDspAdds(4);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, OverCapacityFails) {
  AsmProgram P = manyDspAdds(5);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
}

TEST(Place, ShrinkingCompactsLayout) {
  // 8 DSP adds on the small device (16 DSP slots in 2 columns of 8):
  // shrinking should pack them into the first column.
  AsmProgram P = manyDspAdds(8);
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::small()).ok());
  unsigned MaxRow = 0, MaxCol = 0;
  for (const rasm::AsmInstr &I : Placed.value().body()) {
    MaxCol = std::max<unsigned>(MaxCol, I.loc().X.offset());
    MaxRow = std::max<unsigned>(MaxRow, I.loc().Y.offset());
  }
  // One column of 8 suffices; the first DSP column of small() is x=2.
  EXPECT_LE(MaxCol, 2u);
  EXPECT_LE(MaxRow, 7u);
  EXPECT_GE(Stats.Solves, 1u); // shrink probes may all fail the capacity precheck
}

TEST(Place, NoShrinkOptionSkipsExtraSolves) {
  AsmProgram P = manyDspAdds(2);
  PlacementOptions Options;
  Options.Shrink = false;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_EQ(Stats.Solves, 1u);
}

TEST(Place, MixedLutAndDspPrograms) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8, en:bool) -> (y:i8) {
      t0:i8 = mul(a, b) @dsp(??, ??);
      t1:i8 = add(t0, b) @lut(??, ??);
      y:i8 = reg[0](t1, en) @lut(??, ??);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, WireInstructionsNeedNoSlots) {
  AsmProgram P = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      t0:i8 = sll[1](a);
      y:i8 = add(t0, a) @lut(??, ??);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(Placed.value().body()[0].isWire());
}

TEST(Place, MixedPrimitiveClusterRejected) {
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8, z:i8) {
      y:i8 = add(a, b) @dsp(x, y0);
      z:i8 = add(a, b) @lut(x, y0+1);
    }
  )");
  Result<AsmProgram> Placed = reticle::place::place(P, Device::tiny());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("one primitive kind"), std::string::npos);
}

class PlaceRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlaceRandomTest, RandomMixesAlwaysValidOrFail) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> CountDist(1, 12);
  std::uniform_int_distribution<int> KindDist(0, 2);
  unsigned N = CountDist(Rng);
  std::string Source = "def f(a:i8, b:i8) -> (t0:i8) {\n";
  for (unsigned I = 0; I < N; ++I) {
    std::string T = "t" + std::to_string(I);
    int Kind = KindDist(Rng);
    const char *Loc = Kind == 0   ? "@lut(?\?, ?\?)"
                      : Kind == 1 ? "@dsp(?\?, ?\?)"
                                  : "@lut(?\?, 1)";
    Source += "  " + T + ":i8 = add(a, b) " + Loc + ";\n";
  }
  Source += "}\n";
  AsmProgram P = parseOk(Source);
  Result<AsmProgram> Placed = reticle::place::place(P, Device::small());
  if (Placed.ok()) {
    Status S = checkPlacement(P, Placed.value(), Device::small());
    EXPECT_TRUE(S.ok()) << S.error() << "\n" << Placed.value().str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceRandomTest, ::testing::Range(0u, 25u));

TEST(Place, CapacityCoreNamesResourceAndInstruction) {
  // 5 DSP instructions on a 4-slot device: the arithmetic precheck
  // refutes it, and the explanation must name the resource and a real
  // instruction of the program.
  AsmProgram P = manyDspAdds(5);
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats);
  ASSERT_FALSE(Placed.ok());
  ASSERT_FALSE(Stats.Core.empty());
  EXPECT_EQ(Stats.Core.front().Kind, "capacity");
  EXPECT_EQ(Stats.Core.front().Instr, "t0");
  EXPECT_NE(Stats.Core.front().Detail.find("dsp"), std::string::npos);
  EXPECT_NE(Stats.Core.front().Detail.find("5"), std::string::npos);
}

TEST(Place, SolverLevelUnsatYieldsMinimizedCore) {
  // Passes the capacity precheck (4 instructions, 4 slots) and the tall-
  // cluster precheck (two chains of height >= 2, two segments fit), but no
  // interleaving works: a contiguous pair and a gapped pair cannot share
  // one column of four rows. The refutation must come from the SAT solver,
  // and the minimized core must name the competing clusters.
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (p0:i8, p1:i8, q0:i8, q1:i8) {
      p0:i8 = add(a, b) @dsp(x, y);
      p1:i8 = add(a, b) @dsp(x, y+1);
      q0:i8 = add(a, b) @dsp(u, v);
      q1:i8 = add(a, b) @dsp(u, v+2);
    }
  )");
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats);
  ASSERT_FALSE(Placed.ok());
  ASSERT_FALSE(Stats.Core.empty());
  bool NamedP = false, NamedQ = false;
  for (const CoreConstraint &C : Stats.Core) {
    EXPECT_TRUE(C.Kind == "choose-one" || C.Kind == "distinct") << C.Kind;
    EXPECT_FALSE(C.Detail.empty());
    if (C.Kind == "choose-one") {
      NamedP = NamedP || C.Instr == "p0";
      NamedQ = NamedQ || C.Instr == "q0";
    }
  }
  // Relaxing either cluster's choose-one constraint makes the formula
  // satisfiable, so the minimized core must keep both.
  EXPECT_TRUE(NamedP);
  EXPECT_TRUE(NamedQ);
}

TEST(Place, TimelineRecordsInitialSolutionAndEveryProbe) {
  AsmProgram P = manyDspAdds(8);
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_GE(Stats.Timeline.size(), 2u);
  const ShrinkProbe &First = Stats.Timeline.front();
  EXPECT_EQ(First.ProbeAxis, ShrinkProbe::Axis::Initial);
  EXPECT_EQ(First.Result, ShrinkProbe::Outcome::Sat);
  EXPECT_EQ(First.Slots.size(), 8u);
  for (size_t I = 1; I < Stats.Timeline.size(); ++I) {
    const ShrinkProbe &Probe = Stats.Timeline[I];
    EXPECT_NE(Probe.ProbeAxis, ShrinkProbe::Axis::Initial);
    // Every frame carries the layout accepted so far; a shrinking run
    // never grows its occupied-slot set.
    EXPECT_EQ(Probe.Slots.size(), 8u);
    EXPECT_LE(Probe.MaxColumn, First.MaxColumn);
    EXPECT_LE(Probe.MaxRow, First.MaxRow);
  }
  // The run succeeded, so no frame and no constraint explanation linger.
  EXPECT_TRUE(Stats.Core.empty());
}

TEST(Place, NoShrinkTimelineHasOnlyTheInitialFrame) {
  AsmProgram P = manyDspAdds(2);
  PlacementOptions Options;
  Options.Shrink = false;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_EQ(Stats.Timeline.size(), 1u);
  EXPECT_EQ(Stats.Timeline.front().ProbeAxis, ShrinkProbe::Axis::Initial);
}

TEST(Place, SolverModesAgreeOnFinalArea) {
  // Scratch and incremental shrink searches may pick different models
  // once learnt clauses carry over, but they must land on the same shrunk
  // bounding box and both pass the checker.
  AsmProgram P = manyDspAdds(6);
  unsigned Col[2], Row[2];
  int I = 0;
  for (SatMode Mode : {SatMode::Scratch, SatMode::Incremental}) {
    PlacementOptions Options;
    Options.Mode = Mode;
    PlacementStats Stats;
    Result<AsmProgram> Placed = reticle::place::place(
        parseOk(P.str()), Device::small(), Options, &Stats);
    ASSERT_TRUE(Placed.ok()) << Placed.error();
    Status S = checkPlacement(P, Placed.value(), Device::small());
    EXPECT_TRUE(S.ok()) << S.error();
    EXPECT_EQ(Stats.Mode, Mode);
    Col[I] = Stats.MaxColumn;
    Row[I] = Stats.MaxRow;
    ++I;
  }
  EXPECT_EQ(Col[0], Col[1]);
  EXPECT_EQ(Row[0], Row[1]);
}

TEST(Place, IncrementalModeRecordsReuseStats) {
  // The persistent solver encodes at most once and attributes every
  // shrink probe as either precheck or SAT-backed; reused problem
  // clauses accumulate per SAT-backed probe.
  AsmProgram P = manyDspAdds(8);
  PlacementOptions Options;
  Options.Mode = SatMode::Incremental;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  // Timeline holds the initial frame plus one frame per shrink probe.
  EXPECT_EQ(Stats.IncrementalProbes + Stats.PrecheckProbes,
            Stats.Timeline.size() - 1);
  EXPECT_LE(Stats.IncrementalEncodes, 1u);
  if (Stats.IncrementalProbes > 0) {
    EXPECT_EQ(Stats.IncrementalEncodes, 1u);
    EXPECT_GT(Stats.ReusedClauses, 0u);
  }
  EXPECT_GT(Stats.ShrinkMs, 0.0);
}

TEST(Place, ScratchModeMatchesHistoricalAccounting) {
  // Scratch mode re-encodes per SAT-backed probe and never builds the
  // persistent solver, so encodes == SAT-backed probes and nothing is
  // reused.
  AsmProgram P = manyDspAdds(8);
  PlacementOptions Options;
  Options.Mode = SatMode::Scratch;
  PlacementStats Stats;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats);
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_EQ(Stats.Mode, SatMode::Scratch);
  EXPECT_EQ(Stats.IncrementalEncodes, Stats.IncrementalProbes);
  EXPECT_EQ(Stats.ReusedClauses, 0u);
  EXPECT_EQ(Stats.ReusedLearned, 0u);
}
