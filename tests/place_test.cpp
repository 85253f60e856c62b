//===- tests/place_test.cpp - Placement tests ----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "place/Place.h"

#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "isel/Cascade.h"
#include "isel/Select.h"
#include "rasm/AsmParser.h"
#include "sat/Solver.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>

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

/// N clusters {@dsp(xI, yI), @dsp(xI+3, yI+2)}. Each straddles the two
/// DSP columns of Device::small() (2 and 5, eight rows each), so at most
/// six fit: x = 2, y = 0..5.
AsmProgram crossColumnPairs(unsigned N) {
  std::string Source = "def f(a:i8, b:i8) -> (p0:i8) {\n";
  for (unsigned I = 0; I < N; ++I) {
    std::string X = "x" + std::to_string(I), Y = "y" + std::to_string(I);
    Source += "  p" + std::to_string(I) + ":i8 = add(a, b) @dsp(" + X +
              ", " + Y + ");\n";
    Source += "  q" + std::to_string(I) + ":i8 = add(a, b) @dsp(" + X +
              "+3, " + Y + "+2);\n";
  }
  Source += "}\n";
  return parseOk(Source);
}

/// One cascade-shaped cluster per entry of \p Heights: that many adds on
/// \p Prim at (xI, yI) .. (xI, yI + height - 1), or in column \p Column
/// when one is given; then \p LutSingletons wildcard LUT adds.
AsmProgram chains(const std::string &Prim,
                  std::initializer_list<unsigned> Heights,
                  const std::string &Column = "", unsigned LutSingletons = 0) {
  std::string Source = "def f(a:i8, b:i8) -> (c0_0:i8) {\n";
  unsigned Chain = 0;
  for (unsigned Height : Heights) {
    std::string C = std::to_string(Chain++);
    std::string X = Column.empty() ? "x" + C : Column;
    for (unsigned K = 0; K < Height; ++K)
      Source += "  c" + C + "_" + std::to_string(K) + ":i8 = add(a, b) @" +
                Prim + "(" + X + ", y" + C + "+" + std::to_string(K) + ");\n";
  }
  for (unsigned I = 0; I < LutSingletons; ++I)
    Source += "  s" + std::to_string(I) + ":i8 = add(a, b) @lut(?\?, ?\?);\n";
  Source += "}\n";
  return parseOk(Source);
}

/// Three contiguous pairs and a gapped pair on the two eight-row DSP
/// columns of small. The gapped pair strands the row between its members,
/// so the lower-bound box (one DSP column of eight rows) holds no layout,
/// and the column probes 3 and 4 (one DSP column) and the row probe 3
/// pass both prechecks and are refuted by the solver.
AsmProgram strandedRowPairs() {
  return parseOk(R"(
    def f(a:i8, b:i8) -> (p0:i8) {
      p0:i8 = add(a, b) @dsp(x0, y0);
      p1:i8 = add(a, b) @dsp(x0, y0+1);
      q0:i8 = add(a, b) @dsp(x1, y1);
      q1:i8 = add(a, b) @dsp(x1, y1+1);
      r0:i8 = add(a, b) @dsp(x2, y2);
      r1:i8 = add(a, b) @dsp(x2, y2+1);
      g0:i8 = add(a, b) @dsp(u, v);
      g1:i8 = add(a, b) @dsp(u, v+2);
    }
  )");
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// What the compile pipeline hands to placement for the program at
/// \p Path: parse, verify, select, then cascade with chains bounded by
/// \p Dev's DSP column height.
AsmProgram selectedAsm(const std::string &Path, const Device &Dev) {
  Result<ir::Function> Fn = ir::parseFunction(slurp(Path));
  EXPECT_TRUE(Fn.ok()) << Path << ": " << Fn.error();
  obs::Sinks Sinks;
  Status Verified = ir::verify(Fn.value(), Sinks.context());
  EXPECT_TRUE(Verified.ok()) << Verified.error();
  Result<AsmProgram> Asm =
      isel::select(Fn.value(), tdl::ultrascale(), nullptr, Sinks.context());
  EXPECT_TRUE(Asm.ok()) << Asm.error();
  AsmProgram Prog = Asm.take();
  Status Cascaded = isel::cascadePass(
      Prog, tdl::ultrascale(), std::max(2u, Dev.maxHeight(ir::Resource::Dsp)),
      nullptr, Sinks.context());
  EXPECT_TRUE(Cascaded.ok()) << Cascaded.error();
  return Prog;
}

} // namespace

TEST(Place, SingleWildcardInstruction) {
  AsmProgram P = parseOk(
      "def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @dsp(?\?, ?\?); }");
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  // Column 0 of the tiny device holds LUTs.
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("placement failed"), std::string::npos);
}

TEST(Place, ExactCapacityFits) {
  // The tiny device has exactly 4 DSP slots.
  AsmProgram P = manyDspAdds(4);
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  EXPECT_TRUE(checkPlacement(P, Placed.value(), Device::tiny()).ok());
}

TEST(Place, OverCapacityFails) {
  AsmProgram P = manyDspAdds(5);
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
  ASSERT_FALSE(Placed.ok());
}

TEST(Place, ShrinkingCompactsLayout) {
  // 8 DSP adds on the small device (16 DSP slots in 2 columns of 8):
  // shrinking should pack them into the first column.
  AsmProgram P = manyDspAdds(8);
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats,
                            Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats,
                            Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
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
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), {}, nullptr, Sinks.context());
  if (Placed.ok()) {
    Status S = checkPlacement(P, Placed.value(), Device::small());
    EXPECT_TRUE(S.ok()) << S.error() << "\n" << Placed.value().str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceRandomTest, ::testing::Range(0u, 25u));

namespace {

/// One draw of the justified-failure property: 1-5 clusters, each either
/// 1-3 members at distinct offsets, rows 0-3 (gaps allowed) and columns
/// {0, Stride}, where Stride joins two columns of one kind (LUT columns 0
/// and 2 of tiny, DSP columns 2 and 5 of small), or a contiguous chain of
/// 2-7 rows in one column. A brute-force search over base positions
/// decides feasibility, and placement must fail exactly when it finds no
/// layout. A feasible draw must also end at the area the brute force finds
/// smallest: the smallest column bound with rows open, then the smallest
/// row bound under it. Uneven chains make the chain-packing bound refute
/// some draws and set the lower-bound box of others.
void expectJustifiedVerdict(std::mt19937 &Rng) {
  bool UseDsp = std::bernoulli_distribution(0.5)(Rng);
  const Device Dev = UseDsp ? Device::small() : Device::tiny();
  const ir::Resource Kind = UseDsp ? ir::Resource::Dsp : ir::Resource::Lut;
  const unsigned Stride = UseDsp ? 3 : 2;
  std::uniform_int_distribution<unsigned> ClusterDist(1, 5), MemberDist(1, 3),
      RowDist(0, 3), ColumnDist(0, 1), ChainDist(2, 7);
  std::bernoulli_distribution IsChain(0.4);
  std::vector<std::vector<device::Slot>> Offsets(ClusterDist(Rng));
  for (std::vector<device::Slot> &Cluster : Offsets) {
    if (IsChain(Rng)) {
      for (unsigned Row = 0, Height = ChainDist(Rng); Row < Height; ++Row)
        Cluster.push_back({0, Row});
      continue;
    }
    unsigned Members = MemberDist(Rng);
    while (Cluster.size() < Members) {
      device::Slot Off{ColumnDist(Rng) * Stride, RowDist(Rng)};
      if (std::find(Cluster.begin(), Cluster.end(), Off) == Cluster.end())
        Cluster.push_back(Off);
    }
  }
  std::string Source = "def f(a:i8, b:i8) -> (t0:i8) {\n";
  unsigned NumInstrs = 0;
  for (size_t C = 0; C < Offsets.size(); ++C)
    for (const device::Slot &Off : Offsets[C]) {
      auto Term = [&](const char *Var, unsigned Offset) {
        return Var + std::to_string(C) +
               (Offset ? "+" + std::to_string(Offset) : "");
      };
      Source += "  t" + std::to_string(NumInstrs++) + ":i8 = add(a, b) @" +
                ir::resourceName(Kind) + "(" + Term("x", Off.X) + ", " +
                Term("y", Off.Y) + ");\n";
    }
  Source += "}\n";

  std::vector<std::vector<std::vector<device::Slot>>> Cands(Offsets.size());
  for (size_t C = 0; C < Offsets.size(); ++C)
    for (unsigned X = 0; X < Dev.numColumns(); ++X)
      for (unsigned Y = 0; Y < Dev.maxHeight(Kind); ++Y) {
        std::vector<device::Slot> Slots;
        for (const device::Slot &Off : Offsets[C])
          if (Dev.isValidSlot(Kind, X + Off.X, Y + Off.Y))
            Slots.push_back({X + Off.X, Y + Off.Y});
        if (Slots.size() == Offsets[C].size())
          Cands[C].push_back(std::move(Slots));
      }
  // Whether some layout fits within columns <= MaxColumn, rows <= MaxRow.
  std::set<device::Slot> Used;
  unsigned MaxColumn = UINT_MAX, MaxRow = UINT_MAX;
  std::function<bool(size_t)> Fits = [&](size_t C) {
    if (C == Cands.size())
      return true;
    for (const std::vector<device::Slot> &Slots : Cands[C]) {
      if (std::any_of(Slots.begin(), Slots.end(), [&](const device::Slot &S) {
            return Used.count(S) || S.X > MaxColumn || S.Y > MaxRow;
          }))
        continue;
      Used.insert(Slots.begin(), Slots.end());
      if (Fits(C + 1))
        return true;
      for (const device::Slot &S : Slots)
        Used.erase(S);
    }
    return false;
  };
  auto FitsWithin = [&](unsigned Column, unsigned Row) {
    Used.clear(); // a successful search leaves its layout behind
    MaxColumn = Column;
    MaxRow = Row;
    return Fits(0);
  };
  bool Feasible = FitsWithin(UINT_MAX, UINT_MAX);
  unsigned LeastColumn = 0, LeastRow = 0;
  if (Feasible) {
    while (!FitsWithin(LeastColumn, UINT_MAX))
      ++LeastColumn;
    while (!FitsWithin(LeastColumn, LeastRow))
      ++LeastRow;
  }

  AsmProgram P = parseOk(Source);
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Dev, PlacementOptions{}, &Stats,
                            Sinks.context());
  EXPECT_EQ(Placed.ok(), Feasible)
      << Dev.name() << "\n"
      << Source << (Placed.ok() ? "" : Placed.error());
  if (Placed.ok()) {
    Status S = checkPlacement(P, Placed.value(), Dev);
    EXPECT_TRUE(S.ok()) << S.error() << "\n" << Placed.value().str();
  }
  if (Placed.ok() && Feasible) {
    EXPECT_EQ(Stats.MaxColumn, LeastColumn) << Dev.name() << "\n" << Source;
    EXPECT_EQ(Stats.MaxRow, LeastRow) << Dev.name() << "\n" << Source;
  }
}

} // namespace

class PlaceJustifiedFailureTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlaceJustifiedFailureTest, FailsExactlyWhenNoLayoutExists) {
  // Fifty draws per seed: a misjudged layout is rare among them.
  std::mt19937 Rng(GetParam());
  for (unsigned Draw = 0; Draw < 50; ++Draw) {
    SCOPED_TRACE("draw " + std::to_string(Draw));
    expectJustifiedVerdict(Rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceJustifiedFailureTest,
                         ::testing::Range(0u, 40u));

TEST(Place, CapacityCoreNamesResourceAndInstruction) {
  // 5 DSP instructions on a 4-slot device: the arithmetic precheck
  // refutes it, and the explanation must name the resource and a real
  // instruction of the program.
  AsmProgram P = manyDspAdds(5);
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats,
                            Sinks.context());
  ASSERT_FALSE(Placed.ok());
  ASSERT_FALSE(Stats.Core.empty());
  EXPECT_EQ(Stats.Core.front().Kind, "capacity");
  EXPECT_EQ(Stats.Core.front().Instr, "t0");
  EXPECT_NE(Stats.Core.front().Detail.find("dsp"), std::string::npos);
  EXPECT_NE(Stats.Core.front().Detail.find("5"), std::string::npos);
}

TEST(Place, SolverLevelUnsatYieldsMinimizedCore) {
  // Passes the capacity precheck (4 instructions, 4 slots) and the tall-
  // cluster precheck (one chain of height 2; the gapped pair is no run of
  // consecutive rows, so it is not tall), but no interleaving works: a
  // contiguous pair and a gapped pair cannot share one column of four
  // rows. The refutation must come from the SAT solver, and the minimized
  // core must name the competing clusters.
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (p0:i8, p1:i8, q0:i8, q1:i8) {
      p0:i8 = add(a, b) @dsp(x, y);
      p1:i8 = add(a, b) @dsp(x, y+1);
      q0:i8 = add(a, b) @dsp(u, v);
      q1:i8 = add(a, b) @dsp(u, v+2);
    }
  )");
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats,
                            Sinks.context());
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

TEST(Place, ChooseOneCoreSpansTheClustersOwnRows) {
  // p sits at rows y+2 and y+3: it spans two rows, counted from its first
  // member rather than from the base row. The gapped q spans three. On the
  // one four-row DSP column of tiny, p can only take rows 2 and 3, and q
  // needs one of them at either base, so the solver refutes the program
  // and its core names both choose-one constraints.
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (p0:i8, p1:i8, q0:i8, q1:i8) {
      p0:i8 = add(a, b) @dsp(x, y+2);
      p1:i8 = add(a, b) @dsp(x, y+3);
      q0:i8 = add(a, b) @dsp(u, v);
      q1:i8 = add(a, b) @dsp(u, v+2);
    }
  )");
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), PlacementOptions{}, &Stats,
                            Sinks.context());
  ASSERT_FALSE(Placed.ok());
  std::map<std::string, std::string> ChooseOne;
  for (const CoreConstraint &C : Stats.Core)
    if (C.Kind == "choose-one")
      ChooseOne[C.Instr] = C.Detail;
  ASSERT_EQ(ChooseOne.count("p0"), 1u);
  ASSERT_EQ(ChooseOne.count("q0"), 1u);
  EXPECT_NE(ChooseOne["p0"].find("spanning 2 row(s)"), std::string::npos)
      << ChooseOne["p0"];
  EXPECT_NE(ChooseOne["q0"].find("spanning 3 row(s)"), std::string::npos)
      << ChooseOne["q0"];
}

TEST(Place, GappedPairsInterleave) {
  // Two pairs of DSPs two rows apart fit the one four-row DSP column of
  // tiny at rows {0, 2} and {1, 3}: a gapped pair needs no run of
  // consecutive rows, so the tall-cluster precheck must not count it.
  AsmProgram P = parseOk(R"(
    def f(a:i8, b:i8) -> (p0:i8, p1:i8, q0:i8, q1:i8) {
      p0:i8 = add(a, b) @dsp(x, y);
      p1:i8 = add(a, b) @dsp(x, y+2);
      q0:i8 = add(a, b) @dsp(u, v);
      q1:i8 = add(a, b) @dsp(u, v+2);
    }
  )");
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::tiny(), {}, nullptr, Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  Status S = checkPlacement(P, Placed.value(), Device::tiny());
  EXPECT_TRUE(S.ok()) << S.error();
}

TEST(Place, CrossColumnClustersAreNotTall) {
  obs::Sinks Sinks;
  // Each member of a cross-column pair sits alone in its column, so no
  // cluster needs two consecutive rows anywhere; five and six of them fit.
  for (unsigned N : {5u, 6u}) {
    AsmProgram P = crossColumnPairs(N);
    Result<AsmProgram> Placed =
        reticle::place::place(P, Device::small(), {}, nullptr, Sinks.context());
    ASSERT_TRUE(Placed.ok()) << N << ": " << Placed.error();
    Status S = checkPlacement(P, Placed.value(), Device::small());
    EXPECT_TRUE(S.ok()) << N << ": " << S.error();
  }
}

TEST(Place, PrecheckCountsTallClustersPerHeightClass) {
  // One short chain used to set the segment height for every chain of its
  // kind. Five LUT chains of 9 and one of 2 on small: each of the four
  // 16-row LUT columns holds one run of 9, and 5 > 4. Four DSP chains of
  // 70 and one of 20 on xczu3eg: each of the three 120-row DSP columns
  // holds one run of 70, and 4 > 3. The class h = 2 (or 20) passes; the
  // class h = 9 (or 70) refutes the program before any solve. DSP chains
  // of 80, 80, 80 and 50 pass every class (three runs of 80 in three
  // columns, four of 50 in six segments) but do not pack: the chains of
  // 80 take one column each and leave 40 rows in each, short of 50. The
  // packing bound refutes them before any solve too.
  struct Case {
    AsmProgram Prog;
    Device Dev;
    const char *Detail;
  };
  Case Cases[] = {
      {chains("lut", {9, 9, 9, 9, 9, 2}), Device::small(),
       "5 cascade chain(s) of height >= 9 need 5 consecutive-row "
       "segment(s) but only 4 fit in lut columns <= 5, rows <= 15"},
      {chains("dsp", {70, 70, 70, 70, 20}), Device::xczu3eg(),
       "4 cascade chain(s) of height >= 70 need 4 consecutive-row "
       "segment(s) but only 3 fit in dsp columns <= 62, rows <= 147"},
      {chains("dsp", {80, 80, 80, 50}), Device::xczu3eg(),
       "4 cascade chain(s) of heights 80, 80, 80, 50 do not pack into dsp "
       "columns <= 62, rows <= 147"},
  };
  obs::Sinks Sinks;
  for (const Case &C : Cases)
    for (bool Shrink : {true, false}) {
      PlacementOptions Options;
      Options.Shrink = Shrink;
      PlacementStats Stats;
      Result<AsmProgram> Placed =
          reticle::place::place(C.Prog, C.Dev, Options, &Stats,
                                Sinks.context());
      ASSERT_FALSE(Placed.ok()) << C.Detail;
      EXPECT_EQ(Stats.Solves, 0u) << C.Detail;
      ASSERT_EQ(Stats.Core.size(), 1u) << C.Detail;
      EXPECT_EQ(Stats.Core.front().Kind, "capacity");
      EXPECT_EQ(Stats.Core.front().Detail, C.Detail);
    }
}

TEST(Place, UncappedUnsatAttemptEndsTheFirstSolutionLoop) {
  // Two chains of 70 DSPs pinned to column 20, the first 120-row DSP
  // column of xczu3eg, pass both prechecks, which count every DSP column.
  // Each chain has 51 bases, fewer than the first cap, so the first
  // attempt enumerates every candidate and its refutation is final: one
  // solve and one explanation, where growing the cap re-proved the same
  // formula four more times.
  AsmProgram P = chains("dsp", {70, 70}, "20");
  PlacementOptions Options;
  Options.Shrink = false;
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::xczu3eg(), Options, &Stats,
                            Sinks.context());
  ASSERT_FALSE(Placed.ok());
  EXPECT_NE(Placed.error().find("no valid layout for 2 cluster(s)"),
            std::string::npos)
      << Placed.error();
  EXPECT_EQ(Stats.Solves, 1u);
  std::vector<std::string> Kinds;
  for (const CoreConstraint &C : Stats.Core)
    Kinds.push_back(C.Kind + " " + C.Instr);
  EXPECT_EQ(Kinds, (std::vector<std::string>{
                       "choose-one c0_0", "choose-one c1_0", "distinct c0_0"}));
}

TEST(Place, SevenCrossColumnClustersFailInTheSolver) {
  // Seven pairs demand 14 of the 16 DSP slots and none is tall, so both
  // prechecks pass; the solver refutes seven clusters over six base
  // positions, and its core names their choose-one constraints.
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(crossColumnPairs(7), Device::small(),
                            PlacementOptions{}, &Stats, Sinks.context());
  ASSERT_FALSE(Placed.ok());
  ASSERT_FALSE(Stats.Core.empty());
  bool ChooseOne = false;
  for (const CoreConstraint &C : Stats.Core) {
    EXPECT_NE(C.Kind, "capacity") << C.Detail;
    ChooseOne = ChooseOne || C.Kind == "choose-one";
  }
  EXPECT_TRUE(ChooseOne);
}

TEST(Place, TimelineRecordsInitialSolutionAndEveryProbe) {
  // The lower-bound box misses here, so the shrink search probes.
  AsmProgram P = strandedRowPairs();
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats,
                            Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_GE(Stats.Timeline.size(), 2u);
  const ShrinkProbe &First = Stats.Timeline.front();
  EXPECT_EQ(First.ProbeAxis, ShrinkProbe::Axis::Initial);
  EXPECT_EQ(First.Result, ShrinkProbe::Outcome::Sat);
  for (size_t I = 1; I < Stats.Timeline.size(); ++I) {
    const ShrinkProbe &Probe = Stats.Timeline[I];
    EXPECT_NE(Probe.ProbeAxis, ShrinkProbe::Axis::Initial);
    // Every frame carries the box of the layout accepted so far; a
    // shrinking run never grows it.
    EXPECT_LE(Probe.MaxColumn, First.MaxColumn);
    EXPECT_LE(Probe.MaxRow, First.MaxRow);
  }
  // The run succeeded, so no frame and no constraint explanation linger.
  EXPECT_TRUE(Stats.Core.empty());
}

TEST(Place, LowerBoundHitRecordsOnlyTheInitialFrame) {
  // Eight DSP adds fill exactly the first DSP column of small (x = 2, eight
  // rows), the smallest box the capacity precheck admits. The first solve
  // runs inside it and holds, so the shrink search has nothing to probe.
  AsmProgram P = manyDspAdds(8);
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats,
                            Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_EQ(Stats.Timeline.size(), 1u);
  EXPECT_EQ(Stats.Timeline.front().ProbeAxis, ShrinkProbe::Axis::Initial);
  EXPECT_EQ(Stats.IncrementalProbes, 0u);
  EXPECT_EQ(Stats.PrecheckProbes, 0u);
  EXPECT_EQ(Stats.ShrinkIterations, 0u);
  EXPECT_EQ(Stats.Solves, 1u);
  EXPECT_EQ(Stats.MaxColumn, 2u);
  EXPECT_EQ(Stats.MaxRow, 7u);
}

TEST(Place, NoShrinkTimelineHasOnlyTheInitialFrame) {
  AsmProgram P = manyDspAdds(2);
  PlacementOptions Options;
  Options.Shrink = false;
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), Options, &Stats,
                            Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_EQ(Stats.Timeline.size(), 1u);
  EXPECT_EQ(Stats.Timeline.front().ProbeAxis, ShrinkProbe::Axis::Initial);
}

TEST(Place, ShrinkProbesAreAttributedAndTimed) {
  // Every shrink probe is attributed as either precheck or SAT-backed, and
  // the shrink phase is timed. The lower-bound box misses here, so the
  // search probes.
  AsmProgram P = strandedRowPairs();
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed =
      reticle::place::place(P, Device::small(), PlacementOptions{}, &Stats,
                            Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  // Timeline holds the initial frame plus one frame per shrink probe.
  EXPECT_EQ(Stats.IncrementalProbes + Stats.PrecheckProbes,
            Stats.Timeline.size() - 1);
  EXPECT_GT(Stats.ShrinkMs, 0.0);
}

TEST(Place, ProofLogMarksEveryShrinkProbe) {
  // Each shrink probe is one fresh solver whose proof lines follow one
  // `c place: shrink probe` comment, whether a precheck or the solver
  // answers it. No .ret input probes any more, so the designed box miss
  // checks the marker here.
  sat::ProofWriter Proof;
  PlacementOptions Options;
  Options.Proof = &Proof;
  PlacementStats Stats;
  obs::Sinks Sinks;
  Result<AsmProgram> Placed = reticle::place::place(
      strandedRowPairs(), Device::small(), Options, &Stats, Sinks.context());
  ASSERT_TRUE(Placed.ok()) << Placed.error();
  ASSERT_GT(Stats.Timeline.size(), 1u);
  std::istringstream Lines(Proof.str());
  size_t Probes = 0;
  for (std::string Line; std::getline(Lines, Line);)
    Probes += Line.rfind("c place: shrink probe axis=", 0) == 0;
  EXPECT_EQ(Probes, Stats.Timeline.size() - 1);
}

TEST(Place, PackingCliffProgramsSolveOnceAtTheLowerBound) {
  // Counts, not timings. tensordot_44 places five chains of 44 DSPs: the
  // precheck needs all three DSP columns of xczu3eg (two chains each) and
  // 88 rows, and the first capped solve inside that box reaches all
  // three columns. A capped solve over the whole device reaches only two
  // and must refute five chains in four segments, thousands of conflicts.
  // fsm_42 is all LUTs and fits the box (1, 84) as well. The uneven DSP
  // chains fit their box only as the chain-packing bound sets it: two
  // 120-row columns hold at most three of chains 61, 61, 61 and 59 (61 +
  // 59 in one), so the box takes the third column and rows <= 119; two
  // columns hold 60, 60 and 30 only as 60 + 30 and 60, so rows <= 89. The
  // height classes alone admit a smaller box there, which holds no
  // layout. No program makes a shrink probe.
  struct Expect {
    const char *Name;
    AsmProgram Prog;
    Device Dev;
    unsigned MaxColumn, MaxRow;
  };
  std::string Dir = RETICLE_TEST_INPUTS_DIR;
  const Device Big = Device::xczu3eg();
  Expect Cases[] = {
      {"tensordot_44", selectedAsm(Dir + "/tensordot_44.ret", Big), Big, 62,
       87},
      {"fsm_42", selectedAsm(Dir + "/fsm_42.ret", Big), Big, 1, 84},
      {"dsp 61/61/61/59", chains("dsp", {61, 61, 61, 59}), Big, 62, 119},
      {"dsp 60/60/30 + 400 lut", chains("dsp", {60, 60, 30}, "", 400), Big,
       41, 89},
      {"dsp 80/80/40", chains("dsp", {80, 80, 40}), Big, 41, 119},
      {"dsp 60/60/30", chains("dsp", {60, 60, 30}), Big, 41, 89},
      {"dsp 70/70/20", chains("dsp", {70, 70, 20}), Big, 41, 89},
      {"mixed_chains",
       selectedAsm(Dir + "/mixed_chains.ret", Device::small()),
       Device::small(), 5, 7},
  };
  obs::Sinks Sinks;
  for (const Expect &E : Cases) {
    PlacementStats Stats;
    Result<AsmProgram> Placed =
        reticle::place::place(E.Prog, E.Dev, PlacementOptions{}, &Stats,
                              Sinks.context());
    ASSERT_TRUE(Placed.ok()) << E.Name << ": " << Placed.error();
    EXPECT_EQ(Stats.Solves, 1u) << E.Name;
    EXPECT_EQ(Stats.Conflicts, 0u) << E.Name;
    EXPECT_EQ(Stats.ShrinkIterations, 0u) << E.Name;
    EXPECT_EQ(Stats.IncrementalProbes, 0u) << E.Name;
    EXPECT_EQ(Stats.MaxColumn, E.MaxColumn) << E.Name;
    EXPECT_EQ(Stats.MaxRow, E.MaxRow) << E.Name;
  }
}
