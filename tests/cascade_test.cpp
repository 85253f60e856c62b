//===- tests/cascade_test.cpp - Cascade layout optimization tests --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "isel/Cascade.h"

#include "isel/Select.h"
#include "ir/Parser.h"
#include "rasm/AsmParser.h"
#include "tdl/Ultrascale.h"

#include <gtest/gtest.h>

using namespace reticle;
using namespace reticle::isel;
using rasm::AsmProgram;
using rasm::Coord;

namespace {

AsmProgram parseAsmOk(const char *Source) {
  Result<AsmProgram> P = rasm::parseAsmProgram(Source);
  EXPECT_TRUE(P.ok()) << P.error();
  return P.take();
}

} // namespace

TEST(Cascade, RewritesFigure11Chain) {
  AsmProgram P = parseAsmOk(R"(
    def dot(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
      t0:i8 = muladd(a, b, in) @dsp(??, ??);
      t1:i8 = muladd(c, d, t0) @dsp(??, ??);
    }
  )");
  CascadeStats Stats;
  obs::Sinks Sinks;
  Status S = cascadePass(P, tdl::ultrascale(), 64, &Stats, Sinks.context());
  ASSERT_TRUE(S.ok()) << S.error();
  EXPECT_EQ(Stats.Chains, 1u);
  EXPECT_EQ(Stats.Rewritten, 2u);
  EXPECT_EQ(P.body()[0].opName(), "muladd_co");
  EXPECT_EQ(P.body()[1].opName(), "muladd_ci");
  // Shared column variable; consecutive rows.
  ASSERT_TRUE(P.body()[0].loc().X.isVar());
  EXPECT_EQ(P.body()[0].loc().X.name(), P.body()[1].loc().X.name());
  EXPECT_EQ(P.body()[0].loc().Y.offset() + 1, P.body()[1].loc().Y.offset());
}

TEST(Cascade, MiddleElementsBecomeCio) {
  AsmProgram P = parseAsmOk(R"(
    def dot3(a:i8, b:i8, c:i8, d:i8, e:i8, f:i8, in:i8) -> (t2:i8) {
      t0:i8 = muladd(a, b, in) @dsp(??, ??);
      t1:i8 = muladd(c, d, t0) @dsp(??, ??);
      t2:i8 = muladd(e, f, t1) @dsp(??, ??);
    }
  )");
  obs::Sinks Sinks;
  ASSERT_TRUE(cascadePass(P, tdl::ultrascale(), 64, nullptr,
                          Sinks.context()).ok());
  EXPECT_EQ(P.body()[0].opName(), "muladd_co");
  EXPECT_EQ(P.body()[1].opName(), "muladd_cio");
  EXPECT_EQ(P.body()[2].opName(), "muladd_ci");
}

TEST(Cascade, SharedAccumulatorBlocksChain) {
  // t0 feeds both t1 and the output list: not single-use, no cascade.
  AsmProgram P = parseAsmOk(R"(
    def f(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8, t0:i8) {
      t0:i8 = muladd(a, b, in) @dsp(??, ??);
      t1:i8 = muladd(c, d, t0) @dsp(??, ??);
    }
  )");
  CascadeStats Stats;
  obs::Sinks Sinks;
  ASSERT_TRUE(cascadePass(P, tdl::ultrascale(), 64, &Stats,
                          Sinks.context()).ok());
  EXPECT_EQ(Stats.Chains, 0u);
  EXPECT_EQ(P.body()[0].opName(), "muladd");
}

TEST(Cascade, NonAccumulatorUseDoesNotChain) {
  // t0 feeds t1's multiplicand, not its accumulator: no cascade.
  AsmProgram P = parseAsmOk(R"(
    def f(a:i8, b:i8, c:i8, in:i8) -> (t1:i8) {
      t0:i8 = muladd(a, b, in) @dsp(??, ??);
      t1:i8 = muladd(t0, c, in) @dsp(??, ??);
    }
  )");
  CascadeStats Stats;
  obs::Sinks Sinks;
  ASSERT_TRUE(cascadePass(P, tdl::ultrascale(), 64, &Stats,
                          Sinks.context()).ok());
  EXPECT_EQ(Stats.Chains, 0u);
}

TEST(Cascade, PinnedLocationsAreLeftAlone) {
  AsmProgram P = parseAsmOk(R"(
    def f(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
      t0:i8 = muladd(a, b, in) @dsp(0, 3);
      t1:i8 = muladd(c, d, t0) @dsp(??, ??);
    }
  )");
  CascadeStats Stats;
  obs::Sinks Sinks;
  ASSERT_TRUE(cascadePass(P, tdl::ultrascale(), 64, &Stats,
                          Sinks.context()).ok());
  EXPECT_EQ(Stats.Chains, 0u);
  EXPECT_EQ(P.body()[0].opName(), "muladd");
}

TEST(Cascade, LongChainsSplitAtMaxLength) {
  std::string Source = "def long(in:i8";
  for (int I = 0; I < 8; ++I)
    Source += ", a" + std::to_string(I) + ":i8, b" + std::to_string(I) +
              ":i8";
  Source += ") -> (t7:i8) {\n";
  std::string Prev = "in";
  for (int I = 0; I < 8; ++I) {
    std::string T = "t" + std::to_string(I);
    Source += "  " + T + ":i8 = muladd(a" + std::to_string(I) + ", b" +
              std::to_string(I) + ", " + Prev + ") @dsp(?\?, ?\?);\n";
    Prev = T;
  }
  Source += "}\n";
  AsmProgram P = parseAsmOk(Source.c_str());
  CascadeStats Stats;
  obs::Sinks Sinks;
  ASSERT_TRUE(cascadePass(P, tdl::ultrascale(), 4, &Stats,
                          Sinks.context()).ok());
  // 8 instructions with MaxChain=4: two chains of four.
  EXPECT_EQ(Stats.Chains, 2u);
  EXPECT_EQ(Stats.Rewritten, 8u);
  EXPECT_EQ(P.body()[0].opName(), "muladd_co");
  EXPECT_EQ(P.body()[3].opName(), "muladd_ci");
  EXPECT_EQ(P.body()[4].opName(), "muladd_co");
  EXPECT_EQ(P.body()[7].opName(), "muladd_ci");
  EXPECT_NE(P.body()[0].loc().X.name(), P.body()[4].loc().X.name());
}

TEST(Cascade, EndToEndFromSelection) {
  // IR mul/add chains select to muladds, then cascade into one column.
  Result<ir::Function> Fn = ir::parseFunction(R"(
    def dot(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (t2:i8) {
      m0:i8 = mul(a0, b0) @??;
      t0:i8 = add(m0, in) @??;
      m1:i8 = mul(a1, b1) @??;
      t1:i8 = add(m1, t0) @??;
      m2:i8 = mul(a2, b2) @??;
      t2:i8 = add(m2, t1) @??;
    }
  )");
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  obs::Sinks Sinks;
  Result<AsmProgram> P =
      select(Fn.value(), tdl::ultrascale(), nullptr, Sinks.context());
  ASSERT_TRUE(P.ok()) << P.error();
  CascadeStats Stats;
  AsmProgram Prog = P.take();
  ASSERT_TRUE(cascadePass(Prog, tdl::ultrascale(), 64, &Stats,
                          Sinks.context()).ok());
  EXPECT_EQ(Stats.Chains, 1u);
  EXPECT_EQ(Stats.Rewritten, 3u);
}
