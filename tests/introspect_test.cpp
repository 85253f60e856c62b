//===- tests/introspect_test.cpp - Pipeline introspection tests ----------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Covers the introspection surface: the optimization remarks engine, the
/// per-stage snapshot sink (including that every snapshot re-parses with
/// the matching parser), and the placement floorplan renderings.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "ir/Parser.h"
#include "obs/Json.h"
#include "obs/Remarks.h"
#include "obs/Snapshots.h"
#include "place/Floorplan.h"
#include "rasm/AsmParser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace reticle;
using obs::Json;

namespace {

constexpr const char *MacSource = R"(
def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
  t0:i8 = mul(a, b) @??;
  t1:i8 = add(t0, c) @??;
  y:i8 = reg[0](t1, en) @??;
}
)";

/// Each test compiles into, and reads remarks and snapshots from, its own
/// session.
class Introspect : public ::testing::Test {
protected:
  Result<core::CompileResult> compileMac(core::CompileOptions Options = {}) {
    Result<ir::Function> Fn = ir::parseFunction(MacSource);
    EXPECT_TRUE(Fn.ok()) << Fn.error();
    Options.Dev = device::Device::small();
    return core::compile(Fn.value(), Options, Session);
  }

  core::CompileSession Session;
  obs::RemarkStream &Rem = Session.remarks();
};

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Parses a `reticle-remarks-v1` stream: header plus one record per line.
std::vector<Json> parseJsonl(const std::string &Text) {
  std::vector<Json> Records;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    Result<Json> Doc = Json::parse(Line);
    EXPECT_TRUE(Doc.ok()) << Doc.error() << " in: " << Line;
    if (Doc)
      Records.push_back(Doc.take());
  }
  return Records;
}

} // namespace

TEST_F(Introspect, RemarksOffByDefault) {
  EXPECT_FALSE(Rem.enabled());
  obs::Remark(Rem, "isel", "pattern").message("dropped on the floor");
  EXPECT_EQ(Rem.count(), 0u);
  EXPECT_EQ(Rem.text(), "");
}

TEST_F(Introspect, RemarkBuilderCommitsOnDestruction) {
  Rem.enable();
  {
    obs::Remark R(Rem, "isel", "pattern");
    R.instr("t0").message("covered with 'mul'").arg("area", 16);
    EXPECT_EQ(Rem.count(), 0u) << "must not commit before scope exit";
  }
  EXPECT_EQ(Rem.count(), 1u);
  std::string Text = Rem.text();
  EXPECT_NE(Text.find("isel:pattern:"), std::string::npos) << Text;
  EXPECT_NE(Text.find("'t0'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("covered with 'mul'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("area=16"), std::string::npos) << Text;
}

TEST_F(Introspect, RemarksJsonlSchema) {
  Rem.enable();
  obs::Remark(Rem, "place", "bind").instr("y").message("bound").arg("x", 2);
  std::vector<Json> Records = parseJsonl(Rem.jsonl("prog.ret"));
  ASSERT_EQ(Records.size(), 2u) << "header plus one record";

  const Json &Header = Records[0];
  ASSERT_TRUE(Header.isObject());
  EXPECT_EQ(Header.find("schema")->asString(), "reticle-remarks-v1");
  EXPECT_EQ(Header.find("program")->asString(), "prog.ret");
  EXPECT_EQ(Header.find("remarks")->asInt(), 1);

  const Json &Record = Records[1];
  EXPECT_EQ(Record.find("stage")->asString(), "place");
  EXPECT_EQ(Record.find("kind")->asString(), "bind");
  EXPECT_EQ(Record.find("instr")->asString(), "y");
  EXPECT_EQ(Record.find("message")->asString(), "bound");
  ASSERT_NE(Record.find("args"), nullptr);
  EXPECT_EQ(Record.find("args")->find("x")->asInt(), 2);
}

TEST_F(Introspect, PipelineEmitsRemarksFromEveryStage) {
  Rem.enable();
  Result<core::CompileResult> R = compileMac();
  ASSERT_TRUE(R.ok()) << R.error();

  std::vector<Json> Records = parseJsonl(Rem.jsonl("mac"));
  ASSERT_GE(Records.size(), 2u);
  std::set<std::string> Stages;
  for (size_t I = 1; I < Records.size(); ++I)
    Stages.insert(Records[I].find("stage")->asString());
  EXPECT_TRUE(Stages.count("isel")) << Rem.text();
  EXPECT_TRUE(Stages.count("cascade")) << Rem.text();
  EXPECT_TRUE(Stages.count("place")) << Rem.text();
}

TEST_F(Introspect, SnapshotSinkRecordsPipelineStages) {
  Session.captureSnapshots();
  Result<core::CompileResult> R = compileMac();
  ASSERT_TRUE(R.ok()) << R.error();

  const obs::SnapshotSink &Sink = Session.snapshots();
  ASSERT_EQ(Sink.stages().size(), 4u) << "isel, cascade, place, codegen";
  EXPECT_NE(Sink.find("isel"), nullptr);
  EXPECT_NE(Sink.find("cascade"), nullptr);
  EXPECT_NE(Sink.find("place"), nullptr);
  EXPECT_NE(Sink.find("codegen"), nullptr);
  EXPECT_EQ(Sink.find("parse"), nullptr) << "parse is the driver's snapshot";
}

TEST_F(Introspect, SnapshotsRecordedWithCascadeDisabled) {
  core::CompileOptions Options;
  Options.Cascade = false;
  Session.captureSnapshots();
  ASSERT_TRUE(compileMac(Options).ok());
  const obs::SnapshotSink &Sink = Session.snapshots();
  // The manifest always lists the same stages, pass enabled or not.
  EXPECT_NE(Sink.find("cascade"), nullptr);
  EXPECT_EQ(Sink.stages().size(), 4u);
}

TEST_F(Introspect, EverySnapshotReparses) {
  obs::SnapshotSink &Sink = Session.snapshots();
  Sink.add("parse", "ir",
           ir::parseFunction(MacSource).value().str());
  Session.captureSnapshots();
  ASSERT_TRUE(compileMac().ok());

  for (const obs::StageSnapshot &Snap : Sink.stages()) {
    if (Snap.Format == "ir") {
      Result<ir::Function> Fn = ir::parseFunction(Snap.Text);
      EXPECT_TRUE(Fn.ok()) << Snap.Stage << ": " << Fn.error();
    } else if (Snap.Format == "asm") {
      Result<rasm::AsmProgram> Prog = rasm::parseAsmProgram(Snap.Text);
      EXPECT_TRUE(Prog.ok()) << Snap.Stage << ": " << Prog.error();
    } else {
      EXPECT_EQ(Snap.Format, "verilog") << Snap.Stage;
      EXPECT_NE(Snap.Text.find("module"), std::string::npos) << Snap.Stage;
    }
  }
}

TEST_F(Introspect, SnapshotFileNamesAreOrderedAndTyped) {
  obs::StageSnapshot Parse{"parse", "ir", ""};
  obs::StageSnapshot Isel{"isel", "asm", ""};
  obs::StageSnapshot Codegen{"codegen", "verilog", ""};
  EXPECT_EQ(obs::snapshotFileName(Parse, 0), "00-parse.ret");
  EXPECT_EQ(obs::snapshotFileName(Isel, 1), "01-isel.rasm");
  EXPECT_EQ(obs::snapshotFileName(Codegen, 4), "04-codegen.v");
}

TEST_F(Introspect, WriteSnapshotsEmitsManifest) {
  obs::SnapshotSink Sink;
  Sink.add("parse", "ir", "def f() -> () {}\n");
  Sink.add("isel", "asm", "def f() -> () {}\n");
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "reticle_snapshots_test";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(obs::writeSnapshots(Sink, Dir.string(), "f.ret").ok());

  EXPECT_EQ(readFile(Dir / "00-parse.ret"), "def f() -> () {}\n");
  Result<Json> Manifest = Json::parse(readFile(Dir / "manifest.json"));
  ASSERT_TRUE(Manifest.ok()) << Manifest.error();
  EXPECT_EQ(Manifest.value().find("schema")->asString(),
            "reticle-snapshots-v1");
  EXPECT_EQ(Manifest.value().find("program")->asString(), "f.ret");
  const Json *Stages = Manifest.value().find("stages");
  ASSERT_NE(Stages, nullptr);
  ASSERT_NE(Stages->find("isel"), nullptr);
  EXPECT_EQ(Stages->find("isel")->find("file")->asString(), "01-isel.rasm");
  EXPECT_EQ(Stages->find("isel")->find("index")->asInt(), 1);
  std::filesystem::remove_all(Dir);
}

TEST_F(Introspect, FloorplanSvgIsWellFormed) {
  Result<core::CompileResult> R = compileMac();
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Svg =
      place::floorplanSvg(R.value().Placed, device::Device::small());
  EXPECT_EQ(Svg.rfind("<svg", 0), 0u) << Svg.substr(0, 80);
  EXPECT_NE(Svg.find("</svg>"), std::string::npos);
  // The placed instruction appears as a labeled cell with a tooltip.
  EXPECT_NE(Svg.find(">y</text>"), std::string::npos) << Svg;
  EXPECT_NE(Svg.find("<title>"), std::string::npos);
}

TEST_F(Introspect, FloorplanAsciiShowsPlacement) {
  Result<core::CompileResult> R = compileMac();
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Plan =
      place::floorplanAscii(R.value().Placed, device::Device::small());
  EXPECT_EQ(Plan.rfind("floorplan: mac on small", 0), 0u) << Plan;
  EXPECT_NE(Plan.find('#'), std::string::npos) << Plan;
  EXPECT_NE(Plan.find("y = muladdreg"), std::string::npos) << Plan;
}

TEST_F(Introspect, FloorplanHandlesEmptyProgram) {
  rasm::AsmProgram Empty;
  std::string Svg = place::floorplanSvg(Empty, device::Device::tiny());
  EXPECT_NE(Svg.find("</svg>"), std::string::npos);
  std::string Plan = place::floorplanAscii(Empty, device::Device::tiny());
  EXPECT_EQ(Plan.rfind("floorplan:", 0), 0u) << Plan;
}

TEST_F(Introspect, StatsJsonCarriesTheSatProfile) {
  Result<core::CompileResult> R = compileMac();
  ASSERT_TRUE(R.ok()) << R.error();
  Json Doc = core::statsJson(R.value(), "mac", Session.context());
  const Json *Sat = Doc.find("sat");
  ASSERT_NE(Sat, nullptr);
  ASSERT_TRUE(Sat->isObject());
  const Json *Solves = Sat->find("solves");
  ASSERT_NE(Solves, nullptr);
  EXPECT_GE(Solves->asInt(), 1);
  const Json *Lbd = Sat->find("lbd_histogram");
  ASSERT_NE(Lbd, nullptr);
  EXPECT_EQ(Lbd->size(), 8u);
  const Json *Probes = Sat->find("shrink_probes");
  ASSERT_NE(Probes, nullptr);
  EXPECT_EQ(Probes->size(), R.value().PlaceStats.Timeline.size());
  // The encoding size lives here, once: `place` keeps only the placement
  // geometry, and no second latency record rides along.
  const Json *Vars = Sat->find("vars");
  ASSERT_NE(Vars, nullptr);
  EXPECT_EQ(Vars->asInt(), static_cast<int64_t>(R.value().PlaceStats.Vars));
  const Json *Clauses = Sat->find("clauses");
  ASSERT_NE(Clauses, nullptr);
  EXPECT_EQ(Clauses->asInt(),
            static_cast<int64_t>(R.value().PlaceStats.Clauses));
  const Json *Place = Doc.find("place");
  ASSERT_NE(Place, nullptr);
  EXPECT_EQ(Place->find("sat"), nullptr);
  EXPECT_EQ(Place->find("solves"), nullptr);
  EXPECT_EQ(Doc.find("histograms"), nullptr);
}

TEST_F(Introspect, DisabledPassIsSkippedButStillSnapshots) {
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  Options.Cascade = false;
  Session.captureSnapshots();
  Result<core::CompileResult> R = core::compileSource(
      std::string(MacSource), "mac", Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().CascadeStats.Chains, 0u);
  EXPECT_EQ(R.value().CascadeStats.Rewritten, 0u);
  // The stage list stays stable: the disabled pass still snapshots.
  EXPECT_NE(Session.snapshots().find("cascade"), nullptr);
}
