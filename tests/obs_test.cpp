//===- tests/obs_test.cpp - Telemetry subsystem tests --------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "ir/Parser.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "obs/Telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

using namespace reticle;
using obs::Json;

namespace {

/// Each test records into its own telemetry instance.
class Obs : public ::testing::Test {
protected:
  obs::Telemetry Telem;
};

const Json *event(const Json &Trace, const std::string &Name) {
  const Json *Events = Trace.find("traceEvents");
  if (!Events || !Events->isArray())
    return nullptr;
  for (const Json &E : Events->items()) {
    const Json *N = E.isObject() ? E.find("name") : nullptr;
    if (N && N->isString() && N->asString() == Name)
      return &E;
  }
  return nullptr;
}

double numField(const Json &Event, const char *Key) {
  const Json *V = Event.find(Key);
  EXPECT_NE(V, nullptr) << "missing field " << Key;
  return V ? V->asDouble() : 0.0;
}

} // namespace

TEST_F(Obs, JsonRoundTrip) {
  Json Doc = Json::object();
  Doc.set("int", 42);
  Doc.set("neg", int64_t(-7));
  Doc.set("pi", 3.25);
  Doc.set("flag", true);
  Doc.set("none", Json());
  Doc.set("text", "a \"quoted\" line\nwith\ttabs and unicode \xE2\x9C\x93");
  Json Arr = Json::array();
  Arr.push(1).push("two").push(Json::object());
  Doc.set("arr", std::move(Arr));

  for (unsigned Indent : {0u, 2u}) {
    Result<Json> Back = Json::parse(Doc.str(Indent));
    ASSERT_TRUE(Back.ok()) << Back.error();
    EXPECT_EQ(Back.value().find("int")->asInt(), 42);
    EXPECT_EQ(Back.value().find("neg")->asInt(), -7);
    EXPECT_DOUBLE_EQ(Back.value().find("pi")->asDouble(), 3.25);
    EXPECT_TRUE(Back.value().find("flag")->asBool());
    EXPECT_TRUE(Back.value().find("none")->isNull());
    EXPECT_EQ(Back.value().find("text")->asString(),
              Doc.find("text")->asString());
    EXPECT_EQ(Back.value().find("arr")->size(), 3u);
  }
}

TEST_F(Obs, JsonEscapesControlCharacters) {
  // Every control character must round-trip: short escapes where JSON has
  // them, \u00XX otherwise.
  std::string AllControls;
  for (char C = 1; C < 0x20; ++C)
    AllControls.push_back(C);
  AllControls.push_back('\0'); // keep the embedded NUL off index 0
  AllControls = std::string("a") + AllControls + "z";

  std::string Quoted = Json::quote(AllControls);
  EXPECT_NE(Quoted.find("\\n"), std::string::npos);
  EXPECT_NE(Quoted.find("\\t"), std::string::npos);
  EXPECT_NE(Quoted.find("\\u0000"), std::string::npos);
  EXPECT_NE(Quoted.find("\\u001f"), std::string::npos);
  // Nothing below 0x20 may appear raw inside the literal.
  for (char C : Quoted)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u);

  Result<Json> Back = Json::parse(Quoted);
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_EQ(Back.value().asString(), AllControls);
}

TEST_F(Obs, JsonParsesUnicodeEscapes) {
  // BMP escape, raw UTF-8 pass-through, and a surrogate pair.
  Result<Json> Bmp = Json::parse("\"caf\\u00e9\"");
  ASSERT_TRUE(Bmp.ok()) << Bmp.error();
  EXPECT_EQ(Bmp.value().asString(), "caf\xC3\xA9");

  Result<Json> Pair = Json::parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(Pair.ok()) << Pair.error();
  EXPECT_EQ(Pair.value().asString(), "\xF0\x9F\x98\x80");

  // A decoded escape must survive a quote/parse round-trip as raw UTF-8.
  Result<Json> Again = Json::parse(Json::quote(Pair.value().asString()));
  ASSERT_TRUE(Again.ok()) << Again.error();
  EXPECT_EQ(Again.value().asString(), "\xF0\x9F\x98\x80");

  EXPECT_FALSE(Json::parse("\"\\ud83d\"").ok()) << "lone high surrogate";
  EXPECT_FALSE(Json::parse("\"\\ude00\"").ok()) << "lone low surrogate";
  EXPECT_FALSE(Json::parse("\"\\ud83d\\u0041\"").ok())
      << "high surrogate without a low one";
  EXPECT_FALSE(Json::parse("\"\\u12g4\"").ok()) << "bad hex digit";
}

TEST_F(Obs, JsonPassesInvalidUtf8BytesThrough) {
  // The writer is byte-transparent above 0x1F: invalid UTF-8 (overlong,
  // truncated, stray continuation) must round-trip byte-exact rather than
  // be replaced or rejected, so remark text can carry arbitrary bytes.
  const std::string Sequences[] = {
      std::string("\x80"),         // stray continuation byte
      std::string("\xC3"),         // truncated two-byte sequence
      std::string("\xC0\xAF"),     // overlong encoding
      std::string("\xFF\xFE"),     // bytes never valid in UTF-8
      std::string("ok \xF0\x9F\x98\x80 then bad \xED\xA0\x80 end"),
  };
  for (const std::string &S : Sequences) {
    Result<Json> Back = Json::parse(Json::quote(S));
    ASSERT_TRUE(Back.ok()) << Back.error();
    EXPECT_EQ(Back.value().asString(), S);
  }
}

TEST_F(Obs, JsonParserRejectsGarbage) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("01").ok());
  EXPECT_FALSE(Json::parse("{} trailing").ok());
  EXPECT_TRUE(Json::parse("  {\"a\": [1, 2.5, null]}  ").ok());
}

// String errors end in " at offset N" like every other parse error, so a
// reader can name the line. A raw control character is reported at its
// own offset: a raw newline names the line it ends.
TEST_F(Obs, JsonStringErrorsCarryAnOffset) {
  auto Error = [](std::string_view Text) {
    Result<Json> R = Json::parse(Text);
    EXPECT_FALSE(R.ok()) << Text;
    return R.ok() ? std::string() : R.error();
  };
  EXPECT_EQ(Error("[\"abc"), "json: unterminated string at offset 5");
  EXPECT_EQ(Error("{\"a\": \"x\ny\"}"),
            "json: raw control character in string at offset 8");
  EXPECT_EQ(Error("\"ab\\"), "json: unterminated escape at offset 4");
  EXPECT_EQ(Error("{\"k\tey\": 1}"),
            "json: raw control character in string at offset 3");
}

TEST_F(Obs, CounterAccumulates) {
  obs::Counter &C = Telem.counter("test.counter");
  EXPECT_EQ(C.load(), 0u);
  ++C;
  C++;
  C += 40;
  EXPECT_EQ(C.load(), 42u);
  // Lookup by the same name returns the same counter.
  EXPECT_EQ(&Telem.counter("test.counter"), &C);
  EXPECT_EQ(Telem.counter("test.counter").load(), 42u);
}

TEST_F(Obs, CounterIsThreadSafe) {
  obs::Counter &C = Telem.counter("test.mt");
  constexpr unsigned Threads = 4, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&C] {
      for (unsigned I = 0; I < PerThread; ++I)
        ++C;
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.load(), uint64_t(Threads) * PerThread);
}

TEST_F(Obs, CountersJsonSnapshot) {
  Telem.counter("test.a") += 3;
  Json Counters = Telem.countersJson();
  ASSERT_NE(Counters.find("test.a"), nullptr);
  EXPECT_EQ(Counters.find("test.a")->asInt(), 3);
}

TEST_F(Obs, SpansNestAndSerialize) {
  Telem.enableTracing();
  {
    obs::Span Outer(Telem, "outer");
    Outer.arg("n", uint64_t(7));
    Outer.arg("label", "x");
    {
      obs::Span Inner(Telem, "inner");
      Inner.arg("ratio", 0.5);
    }
    Telem.instant("tick");
  }
  Result<Json> Trace = Json::parse(Telem.traceJson());
  ASSERT_TRUE(Trace.ok()) << Trace.error();

  const Json *Outer = event(Trace.value(), "outer");
  const Json *Inner = event(Trace.value(), "inner");
  const Json *Tick = event(Trace.value(), "tick");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Tick, nullptr);

  // The inner span lies strictly within the outer one — that containment
  // is what the trace viewer uses to reconstruct nesting.
  double OuterTs = numField(*Outer, "ts"), OuterDur = numField(*Outer, "dur");
  double InnerTs = numField(*Inner, "ts"), InnerDur = numField(*Inner, "dur");
  EXPECT_GE(InnerTs, OuterTs);
  EXPECT_LE(InnerTs + InnerDur, OuterTs + OuterDur + 1e-9);
  EXPECT_EQ(Outer->find("ph")->asString(), "X");
  EXPECT_EQ(Tick->find("ph")->asString(), "i");

  const Json *Args = Outer->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("n")->asInt(), 7);
  EXPECT_EQ(Args->find("label")->asString(), "x");
}

TEST_F(Obs, SpansRecordNothingWhileDisabled) {
  {
    obs::Span Sp(Telem, "invisible");
    Telem.instant("also_invisible");
  }
  Result<Json> Trace = Json::parse(Telem.traceJson());
  ASSERT_TRUE(Trace.ok()) << Trace.error();
  EXPECT_EQ(Trace.value().find("traceEvents")->size(), 0u);
}

TEST_F(Obs, HistogramPercentilesAreBucketUpperBounds) {
  obs::Telemetry T;
  obs::Histogram &H = T.histogram("t.ms");
  EXPECT_DOUBLE_EQ(H.percentile(50), 0.0) << "empty histogram";
  for (int I = 1; I <= 100; ++I)
    H.record(double(I));
  EXPECT_EQ(H.count(), 100u);
  EXPECT_DOUBLE_EQ(H.max(), 100.0);
  EXPECT_NEAR(H.sum(), 5050.0, 1e-9);
  // The rank-50 sample (50) lands in the [32,64) bucket, whose upper
  // bound is the reported percentile; p90/p99 clamp to the observed max.
  EXPECT_DOUBLE_EQ(H.percentile(50), 64.0);
  EXPECT_DOUBLE_EQ(H.percentile(90), 100.0);
  EXPECT_DOUBLE_EQ(H.percentile(99), 100.0);

  Json Doc = T.histogramsJson();
  const Json *E = Doc.find("t.ms");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->find("count")->asInt(), 100);
  EXPECT_DOUBLE_EQ(E->find("p50")->asDouble(), 64.0);
  EXPECT_DOUBLE_EQ(E->find("p99")->asDouble(), 100.0);
  EXPECT_DOUBLE_EQ(E->find("max")->asDouble(), 100.0);

  // Registered-but-empty histograms stay out of the export.
  T.histogram("t.unused");
  EXPECT_EQ(T.histogramsJson().find("t.unused"), nullptr);
}

TEST_F(Obs, FoldedStacksReconstructNesting) {
  Telem.enableTracing();
  {
    obs::Span Outer(Telem, "outer");
    {
      obs::Span Inner(Telem, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::string Folded = Telem.foldedStacks();
  EXPECT_NE(Folded.find("outer;inner "), std::string::npos) << Folded;
  EXPECT_NE(Folded.find("outer "), std::string::npos) << Folded;
  // Every line is `stack <integer self-microseconds>`.
  std::istringstream Lines(Folded);
  std::string Line;
  while (std::getline(Lines, Line)) {
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_NO_THROW((void)std::stoll(Line.substr(Space + 1))) << Line;
  }
}

TEST_F(Obs, StatsDocumentIsWellFormed) {
  // Four LUT adds: the one placement solve, inside the smallest box the
  // capacity precheck admits, has to decide where three of them go (a
  // single DSP, as in mac, is settled without a decision).
  Result<ir::Function> Fn = ir::parseFunction(R"(
    def scalar_adds(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8)
        -> (y0:i8, y1:i8, y2:i8, y3:i8) {
      y0:i8 = add(a0, b0) @??;
      y1:i8 = add(a1, b1) @??;
      y2:i8 = add(a2, b2) @??;
      y3:i8 = add(a3, b3) @??;
    }
  )");
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn.value(), Options, Session);
  ASSERT_TRUE(R.ok()) << R.error();

  Json Doc = core::statsJson(R.value(), "scalar_adds.ret", Session.context());
  // The document survives a serialize/parse round trip...
  Result<Json> Back = Json::parse(Doc.str(2));
  ASSERT_TRUE(Back.ok()) << Back.error();
  const Json &B = Back.value();
  // ...and carries every section of the schema.
  EXPECT_EQ(B.find("schema")->asString(), "reticle-stats-v1");
  EXPECT_EQ(B.find("program")->asString(), "scalar_adds.ret");
  ASSERT_NE(B.find("timings"), nullptr);
  EXPECT_GT(B.find("timings")->find("total_ms")->asDouble(), 0.0);
  ASSERT_NE(B.find("place"), nullptr);
  const Json *Sat = B.find("place")->find("sat");
  ASSERT_NE(Sat, nullptr);
  EXPECT_GT(Sat->find("decisions")->asInt(), 0);
  EXPECT_GT(Sat->find("propagations")->asInt(), 0);
  EXPECT_EQ(B.find("utilization")->find("dsps")->asInt(), 0);
  EXPECT_EQ(B.find("utilization")->find("luts")->asInt(), 32);
  EXPECT_GT(B.find("timing")->find("fmax_mhz")->asDouble(), 0.0);
  // The counter registry rides along and reflects the compile that just
  // ran.
  const Json *Counters = B.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("core.compiles"), nullptr);
  EXPECT_GE(Counters->find("core.compiles")->asInt(), 1);
  EXPECT_GE(Counters->find("sat.solves")->asInt(), 1);
}

TEST_F(Obs, CompilePipelineEmitsNestedStageSpans) {
  Result<ir::Function> Fn = ir::parseFunction(R"(
    def add1(a:i8, b:i8) -> (y:i8) {
      y:i8 = add(a, b) @??;
    }
  )");
  ASSERT_TRUE(Fn.ok()) << Fn.error();
  core::CompileSession Session;
  Session.telemetry().enableTracing();
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  ASSERT_TRUE(core::compile(Fn.value(), Options, Session).ok());

  Result<Json> Trace = Json::parse(Session.telemetry().traceJson());
  ASSERT_TRUE(Trace.ok()) << Trace.error();
  const Json *Compile = event(Trace.value(), "compile");
  ASSERT_NE(Compile, nullptr);
  double T0 = numField(*Compile, "ts");
  double T1 = T0 + numField(*Compile, "dur");
  for (const char *Stage : {"select", "cascade", "place", "codegen",
                            "timing", "sat.solve", "place.solve"}) {
    const Json *E = event(Trace.value(), Stage);
    ASSERT_NE(E, nullptr) << "no span " << Stage;
    EXPECT_GE(numField(*E, "ts"), T0) << Stage;
    EXPECT_LE(numField(*E, "ts") + numField(*E, "dur"), T1 + 1e-9) << Stage;
  }
}

TEST_F(Obs, PrintTableRendersEverySection) {
  Json Doc = Json::object();
  Doc.set("schema", "reticle-stats-v1");
  Json Sub = Json::object();
  Sub.set("x", 1);
  Json Nested = Json::object();
  Nested.set("deep", 2);
  Sub.set("sat", std::move(Nested));
  Doc.set("place", std::move(Sub));

  char Buffer[4096] = {};
  FILE *Stream = fmemopen(Buffer, sizeof(Buffer) - 1, "w");
  ASSERT_NE(Stream, nullptr);
  obs::printTable(Doc, Stream);
  std::fclose(Stream);
  std::string Out(Buffer);
  EXPECT_NE(Out.find("reticle-stats-v1"), std::string::npos);
  EXPECT_NE(Out.find("[place]"), std::string::npos);
  EXPECT_NE(Out.find("sat.deep"), std::string::npos);
}
