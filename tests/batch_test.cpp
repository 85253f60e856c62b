//===- tests/batch_test.cpp - Batch compilation and sessions ---------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Covers the re-entrant compilation surface: CompileSession isolation,
/// the pass pipeline's stage bookkeeping (timings, snapshots,
/// diagnostics), core::compileBatch's concurrency and determinism, and
/// the merged "reticle-batch-v1" summary document.
///
//===----------------------------------------------------------------------===//

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

using namespace reticle;

namespace {

const char *MacSrc = R"(
def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
  t0:i8 = mul(a, b) @??;
  t1:i8 = add(t0, c) @??;
  y:i8 = reg[0](t1, en) @??;
}
)";

const char *Dot3Src = R"(
def dot3(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (t2:i8) {
  m0:i8 = mul(a0, b0) @??;
  t0:i8 = add(m0, in) @??;
  m1:i8 = mul(a1, b1) @??;
  t1:i8 = add(m1, t0) @??;
  m2:i8 = mul(a2, b2) @??;
  t2:i8 = add(m2, t1) @??;
}
)";

const char *AddsSrc = R"(
def scalar_adds(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8)
    -> (y0:i8, y1:i8, y2:i8, y3:i8) {
  y0:i8 = add(a0, b0) @??;
  y1:i8 = add(a1, b1) @??;
  y2:i8 = add(a2, b2) @??;
  y3:i8 = add(a3, b3) @??;
}
)";

core::CompileOptions smallDevice() {
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  return Options;
}

std::vector<core::BatchInput> threePrograms() {
  return {{"mac.ret", MacSrc}, {"dot3.ret", Dot3Src}, {"adds.ret", AddsSrc}};
}

TEST(Session, CompileSourceRunsTheFullPipeline) {
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compileSource(MacSrc, "mac.ret", smallDevice(), Session);
  ASSERT_TRUE(R) << R.error();
  EXPECT_FALSE(R.value().Verilog.str().empty());
  EXPECT_GT(R.value().Times.TotalMs, 0.0);
  EXPECT_GE(R.value().Times.ParseMs, 0.0);
  EXPECT_GE(R.value().Times.TotalMs, R.value().Times.SelectMs);
  EXPECT_TRUE(Session.diagnostics().empty());
}

TEST(Session, SourcePipelineSnapshotsEveryStage) {
  core::CompileSession Session;
  Session.captureSnapshots();
  Result<core::CompileResult> R =
      core::compileSource(MacSrc, "mac.ret", smallDevice(), Session);
  ASSERT_TRUE(R) << R.error();
  const std::vector<obs::StageSnapshot> &Stages =
      Session.snapshots().stages();
  ASSERT_EQ(Stages.size(), 6u);
  const char *Expected[] = {"parse",   "opt",   "isel",
                            "cascade", "place", "codegen"};
  for (size_t I = 0; I < 6; ++I)
    EXPECT_EQ(Stages[I].Stage, Expected[I]);
  // The parse snapshot is IR text; the codegen snapshot is Verilog.
  EXPECT_NE(Stages[0].Text.find("def mac"), std::string::npos);
  EXPECT_EQ(Stages[5].Format, "verilog");
}

TEST(Session, ParseFailureIsDiagnosedUnderTheParseStage) {
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compileSource("not a program", "bad.ret", smallDevice(),
                          Session);
  ASSERT_FALSE(R);
  ASSERT_EQ(Session.diagnostics().size(), 1u);
  EXPECT_EQ(Session.diagnostics().front().Stage, "parse");
  EXPECT_EQ(Session.diagnostics().front().Message, R.error());
}

TEST(Session, OptimizePassRecordsItsWork) {
  core::CompileOptions Options = smallDevice();
  Options.Optimize = true;
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compileSource(AddsSrc, "adds.ret", Options, Session);
  ASSERT_TRUE(R) << R.error();
  // Four independent i8 adds vectorize into one SIMD lane group.
  EXPECT_GT(R.value().Opt.Vectorized, 0u);
}

TEST(Session, SessionsDoNotShareCounters) {
  core::CompileSession A;
  core::CompileSession B;
  Result<core::CompileResult> R =
      core::compileSource(MacSrc, "mac.ret", smallDevice(), A);
  ASSERT_TRUE(R) << R.error();
  EXPECT_GT(A.context().counter("core.compiles").load(), 0u);
  EXPECT_EQ(B.context().counter("core.compiles").load(), 0u);
}

TEST(Session, StatsJsonReadsTheSessionRegistry) {
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compileSource(MacSrc, "mac.ret", smallDevice(), Session);
  ASSERT_TRUE(R) << R.error();
  obs::Json Doc = core::statsJson(R.value(), "mac.ret", Session.context());
  const obs::Json *Schema = Doc.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->asString(), "reticle-stats-v1");
  ASSERT_NE(Doc.find("timings"), nullptr);
  EXPECT_NE(Doc.find("timings")->find("parse_ms"), nullptr);
  EXPECT_NE(Doc.find("timings")->find("opt_ms"), nullptr);
  EXPECT_NE(Doc.find("opt"), nullptr);
}

TEST(Batch, SequentialAndConcurrentRunsAgreeByteForByte) {
  std::vector<core::BatchInput> Inputs = threePrograms();

  core::BatchOptions Sequential;
  Sequential.Options = smallDevice();
  Sequential.Jobs = 1;
  std::vector<core::BatchItem> SeqItems =
      core::compileBatch(Inputs, Sequential);

  core::BatchOptions Concurrent = Sequential;
  Concurrent.Jobs = 3;
  std::vector<core::BatchItem> ConItems =
      core::compileBatch(Inputs, Concurrent);

  ASSERT_EQ(SeqItems.size(), 3u);
  ASSERT_EQ(ConItems.size(), 3u);
  for (size_t I = 0; I < 3; ++I) {
    ASSERT_TRUE(SeqItems[I].ok())
        << SeqItems[I].Name << ": " << SeqItems[I].Outcome->error();
    ASSERT_TRUE(ConItems[I].ok())
        << ConItems[I].Name << ": " << ConItems[I].Outcome->error();
    EXPECT_EQ(SeqItems[I].Name, ConItems[I].Name);
    EXPECT_EQ(SeqItems[I].Outcome->value().Verilog.str(),
              ConItems[I].Outcome->value().Verilog.str());
    EXPECT_EQ(SeqItems[I].Outcome->value().Placed.str(),
              ConItems[I].Outcome->value().Placed.str());
  }
}

TEST(Batch, FailuresAreIsolatedPerInput) {
  std::vector<core::BatchInput> Inputs = threePrograms();
  Inputs.insert(Inputs.begin() + 1, {"broken.ret", "def oops("});

  core::BatchOptions Options;
  Options.Options = smallDevice();
  Options.Jobs = 2;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);
  ASSERT_EQ(Items.size(), 4u);
  EXPECT_TRUE(Items[0].ok());
  EXPECT_FALSE(Items[1].ok());
  EXPECT_TRUE(Items[2].ok());
  EXPECT_TRUE(Items[3].ok());
  ASSERT_EQ(Items[1].Session->diagnostics().size(), 1u);
  EXPECT_EQ(Items[1].Session->diagnostics().front().Stage, "parse");
}

TEST(Batch, SummaryDocumentHasTheBatchShape) {
  std::vector<core::BatchInput> Inputs = threePrograms();
  Inputs.push_back({"broken.ret", "def oops("});

  core::BatchOptions Options;
  Options.Options = smallDevice();
  Options.Jobs = 2;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);
  obs::Json Doc = core::batchStatsJson(Items, 2);

  EXPECT_EQ(Doc.find("schema")->asString(), "reticle-batch-v1");
  EXPECT_EQ(Doc.find("inputs")->asInt(), 4);
  EXPECT_EQ(Doc.find("succeeded")->asInt(), 3);
  EXPECT_EQ(Doc.find("failed")->asInt(), 1);
  EXPECT_EQ(Doc.find("jobs")->asInt(), 2);
  const obs::Json *Programs = Doc.find("programs");
  ASSERT_NE(Programs, nullptr);
  ASSERT_EQ(Programs->size(), 4u);
  EXPECT_EQ(Programs->items()[0].find("status")->asString(), "ok");
  EXPECT_EQ(Programs->items()[3].find("status")->asString(), "error");
  EXPECT_FALSE(Programs->items()[3].find("error")->asString().empty());
  // Ok entries embed the per-input stats document.
  const obs::Json *Stats = Programs->items()[0].find("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_EQ(Stats->find("schema")->asString(), "reticle-stats-v1");
  ASSERT_NE(Doc.find("totals"), nullptr);
  EXPECT_NE(Doc.find("totals")->find("total_ms"), nullptr);
}

TEST(Batch, PerItemSessionsCaptureTheirOwnArtifacts) {
  core::BatchOptions Options;
  Options.Options = smallDevice();
  Options.Jobs = 2;
  Options.CaptureSnapshots = true;
  Options.EnableRemarks = true;
  std::vector<core::BatchItem> Items =
      core::compileBatch(threePrograms(), Options);
  for (const core::BatchItem &Item : Items) {
    ASSERT_TRUE(Item.ok()) << Item.Name;
    EXPECT_EQ(Item.Session->snapshots().stages().size(), 6u) << Item.Name;
    EXPECT_GT(Item.Session->remarks().count(), 0u) << Item.Name;
  }
}

} // namespace

TEST(Batch, ScheduleOrdersByCostDescendingWithStableTies) {
  // Cost is the statement count (';' terminators); the biggest program
  // compiles first, equal costs keep their input order, and the schedule
  // never touches the Items[i] <-> Inputs[i] correspondence.
  std::vector<core::BatchInput> Inputs = {
      {"one", "a;"},
      {"three", "a; b; c;"},
      {"two", "a; b;"},
      {"empty", ""},
      {"two_again", "d; e;"},
  };
  std::vector<size_t> Order = core::batchScheduleOrder(Inputs);
  EXPECT_EQ(Order, (std::vector<size_t>{1, 2, 4, 0, 3}));
}

TEST(Batch, CostSortedScheduleKeepsOutputOrdering) {
  // threePrograms() lists mac (3 statements) first, but dot3 (6) and adds
  // (4) are scheduled ahead of it; the result vector must still line up
  // with the inputs, and each item must be the right program.
  std::vector<core::BatchInput> Inputs = threePrograms();
  std::vector<size_t> Order = core::batchScheduleOrder(Inputs);
  EXPECT_EQ(Order, (std::vector<size_t>{1, 2, 0}));
  core::BatchOptions Options;
  Options.Options = smallDevice();
  Options.Jobs = 3;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);
  ASSERT_EQ(Items.size(), 3u);
  for (size_t I = 0; I < Items.size(); ++I) {
    EXPECT_EQ(Items[I].Name, Inputs[I].Name);
    ASSERT_TRUE(Items[I].ok());
  }
  EXPECT_NE(Items[0].Outcome->value().Verilog.str().find("module mac"),
            std::string::npos);
  EXPECT_NE(Items[1].Outcome->value().Verilog.str().find("module dot3"),
            std::string::npos);
}
