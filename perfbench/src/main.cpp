//===- perfbench/src/main.cpp - The benchmark's command line --------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--out <dir>] [--commit <sha>]
///
/// Runs one workload and prints, one per line, the environment, each
/// metric with its unit and worse direction, and last a JSON object
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
/// and the spans are written to <out>/spans-<workload>-s<seed>.json.
/// The full result (environment, per-program rows, the tail percentile
/// and its sample count) goes to <out>/<workload>-s<seed>-t<trace>.json.
/// Exit codes: 0 after a completed run (check "correct"), 2 for usage
/// errors, 1 when results cannot be written.
///
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include "obs/Json.h"
#include "obs/Report.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

using namespace reticle;
using namespace perfbench;

namespace {

int usage(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--commit <sha>]\nworkloads:");
  for (const WorkloadDef &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::strtoull(Text.c_str(), nullptr, 10);
  return true;
}

obs::Json environment(const std::string &Commit, uint64_t Seed) {
  obs::Json Env = obs::Json::object();
  Env.set("nproc", std::thread::hardware_concurrency());
  Env.set("build_type", PERFBENCH_BUILD_TYPE);
  Env.set("compiler", PERFBENCH_COMPILER);
#ifdef RETICLE_NO_TELEMETRY
  Env.set("telemetry", "compiled-out");
#else
  Env.set("telemetry", "compiled-in");
#endif
  Env.set("commit", Commit);
  Env.set("seed", Seed);
  return Env;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, OutDir = ".", Commit = "unknown";
  uint64_t Seed = 0, Seconds = 0, Trace = 0;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage("missing value for " + Flag);
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      HaveSeed = parseUnsigned(Value, Seed);
    else if (Flag == "--seconds")
      HaveSeconds = parseUnsigned(Value, Seconds) && Seconds > 0;
    else if (Flag == "--trace") {
      if (!parseUnsigned(Value, Trace) || Trace > 1)
        return usage("--trace takes 0 or 1");
    } else if (Flag == "--out")
      OutDir = Value;
    else if (Flag == "--commit")
      Commit = Value;
    else
      return usage("unknown flag " + Flag);
  }
  const WorkloadDef *W = findWorkload(Workload);
  if (!W)
    return usage("unknown workload '" + Workload + "'");
  if (!HaveSeed || !HaveSeconds)
    return usage("--seed and --seconds take whole numbers (seconds > 0)");

  RunConfig Config;
  Config.Seed = Seed;
  Config.Seconds = static_cast<double>(Seconds);
  Config.Trace = Trace == 1;
  RunOutcome Out;
  runWorkload(*W, Config, Out);

  obs::Json Env = environment(Commit, Seed);
  std::printf("env %s\n", Env.str().c_str());
  std::printf("workload %s seed %llu trace %llu: %llu attempted, %llu "
              "failed\n",
              W->Name, static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(Trace),
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (const obs::Json &F : Out.Detail.find("failures")->items())
    std::printf("  failure: %s\n", F.asString().c_str());

  obs::Json Metrics = obs::Json::array();
  std::string Line;
  for (const Metric &M : Out.Metrics.all()) {
    const char *Dir = M.Dir == Better::Lower ? "lower" : "higher";
    std::printf("  %-28s %18s %-9s (%s is better)\n", M.Name.c_str(),
                formatNumber(M.Value).c_str(), M.Unit.c_str(), Dir);
    obs::Json J = obs::Json::object();
    J.set("name", M.Name);
    J.set("value", M.Value);
    J.set("unit", M.Unit);
    J.set("better", Dir);
    Metrics.push(std::move(J));
    Line += std::string(Line.empty() ? "" : ", ") + obs::Json::quote(M.Name) +
            ": {\"value\": " + formatNumber(M.Value) +
            ", \"unit\": " + obs::Json::quote(M.Unit) + "}";
  }
  if (const obs::Json *T = Out.Detail.find("compile_ms_tail"))
    std::printf("  compile_ms_tail is p%lld of %lld compiles (%lld beyond)\n",
                static_cast<long long>(T->find("percentile")->asInt()),
                static_cast<long long>(T->find("samples")->asInt()),
                static_cast<long long>(T->find("beyond")->asInt()));

  std::error_code Ec;
  std::filesystem::create_directories(OutDir, Ec);
  std::string Stem = std::string(W->Name) + "-s" + std::to_string(Seed);
  obs::Json Doc = obs::Json::object();
  Doc.set("schema", "reticle-perfbench-v1");
  Doc.set("workload", W->Name);
  Doc.set("why", W->Why);
  Doc.set("trace", Config.Trace);
  Doc.set("seconds", Config.Seconds);
  Doc.set("environment", std::move(Env));
  Doc.set("attempted", Out.Attempted);
  Doc.set("failed", Out.Failed);
  Doc.set("metrics", std::move(Metrics));
  Doc.set("detail", Out.Detail);
  std::string ResultPath =
      (std::filesystem::path(OutDir) /
       (Stem + "-t" + std::to_string(Trace) + ".json"))
          .string();
  if (Status S = obs::writeJsonFile(Doc, ResultPath); !S) {
    std::fprintf(stderr, "perfbench: %s\n", S.error().c_str());
    return 1;
  }
  if (Config.Trace) {
    std::string SpanPath =
        (std::filesystem::path(OutDir) / ("spans-" + Stem + ".json")).string();
    std::ofstream F(SpanPath, std::ios::binary);
    F << Out.Spans.chromeJson();
    F.close();
    if (!F) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpanPath.c_str());
      return 1;
    }
  }

  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Line.c_str());
  return 0;
}
