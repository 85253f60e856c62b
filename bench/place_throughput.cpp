//===- bench/place_throughput.cpp - Placement shrink-search throughput ----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Measures the wall-clock of the placement shrink search (Section 5's
/// area minimization) under the two solver strategies: `scratch`
/// (historical behavior — a fresh SAT encoding per probe) and
/// `incremental` (one persistent solver answering every probe through
/// the Kill-ladder assumptions, learnt clauses and activities carried
/// across probes). Every FSM in the corpus is compiled through
/// core::compileBatch once per mode, and the per-program rows record the
/// probe mix (SAT-backed vs arithmetic precheck), the total and average
/// per-probe solve time, and the clause-reuse counters the speedup comes
/// from. The headline number is the `speedup` block: scratch-vs-
/// incremental on the ~256-instruction FSM, where the acceptance bar is
/// >= 1.5x. Writes `BENCH_place.json` ("reticle-bench-v1") next to the
/// binary.
///
//===----------------------------------------------------------------------===//

#include "core/Batch.h"
#include "core/Compiler.h"
#include "device/Device.h"
#include "frontend/Benchmarks.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "place/Place.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace reticle;

namespace {

const char *modeName(place::SatMode Mode) {
  switch (Mode) {
  case place::SatMode::Scratch:
    return "scratch";
  case place::SatMode::Incremental:
    return "incremental";
  }
  return "?";
}

/// One (program, mode) measurement reduced to what the figure plots.
struct PlaceRun {
  bool Ok = false;
  std::string Error;
  double CompileMs = 0.0;
  place::PlacementStats Stats;
};

/// Compiles the whole corpus through core::compileBatch under one solver
/// mode. Jobs is pinned to 1 so the shrink-search timings are not
/// perturbed by sibling compiles on the same cores.
std::vector<PlaceRun>
runCorpus(const std::vector<std::pair<std::string, ir::Function>> &Corpus,
          place::SatMode Mode) {
  std::vector<core::BatchInput> Inputs;
  Inputs.reserve(Corpus.size());
  for (const auto &[Name, Fn] : Corpus)
    Inputs.push_back({Name, Fn.str()});

  core::BatchOptions Options;
  Options.Options.Dev = device::Device::xczu3eg();
  Options.Options.SatMode = Mode;
  Options.Jobs = 1;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);

  std::vector<PlaceRun> Out;
  Out.reserve(Items.size());
  for (const core::BatchItem &Item : Items) {
    PlaceRun R;
    if (!Item.ok()) {
      R.Error = Item.Outcome ? Item.Outcome->error()
                             : std::string("not compiled");
      Out.push_back(std::move(R));
      continue;
    }
    R.Ok = true;
    R.CompileMs = Item.Outcome->value().Times.TotalMs;
    R.Stats = Item.Outcome->value().PlaceStats;
    Out.push_back(std::move(R));
  }
  return Out;
}

obs::Json rowFor(const std::string &Size, place::SatMode Mode,
                 const PlaceRun &R) {
  obs::Json Row = obs::Json::object();
  Row.set("size", Size);
  Row.set("toolchain", std::string(modeName(Mode)));
  Row.set("ok", R.Ok);
  if (!R.Ok) {
    Row.set("error", R.Error);
    return Row;
  }
  const place::PlacementStats &S = R.Stats;
  // Timeline holds the initial solve plus every probe; the shrink search
  // proper is everything after the first frame.
  uint64_t Probes = S.IncrementalProbes + S.PrecheckProbes;
  Row.set("compile_ms", R.CompileMs);
  Row.set("shrink_ms", S.ShrinkMs);
  Row.set("sat_ms", S.SatMs);
  Row.set("probes", Probes);
  Row.set("sat_probes", S.IncrementalProbes);
  Row.set("precheck_probes", S.PrecheckProbes);
  Row.set("probe_ms_avg",
          S.IncrementalProbes ? S.ShrinkMs / double(S.IncrementalProbes)
                              : 0.0);
  Row.set("encodes", S.IncrementalEncodes);
  Row.set("reused_clauses", S.ReusedClauses);
  Row.set("reused_learned", S.ReusedLearned);
  Row.set("conflicts", S.Conflicts);
  Row.set("max_column", uint64_t(S.MaxColumn));
  Row.set("max_row", uint64_t(S.MaxRow));
  return Row;
}

} // namespace

int main() {
  // FSM state counts picked off the xczu3eg probe profile: 16 and 32
  // settle every shrink probe in the arithmetic precheck (so they pin
  // down the fixed costs), while 43 states lowers to ~256 instructions
  // and drives real SAT probes on both axes — the corpus point the
  // paper-scale speedup claim is measured on.
  std::vector<std::pair<std::string, ir::Function>> Corpus;
  Corpus.emplace_back("fsm_16", frontend::makeFsm(16));
  Corpus.emplace_back("fsm_32", frontend::makeFsm(32));
  Corpus.emplace_back("fsm_256", frontend::makeFsm(43));

  const place::SatMode Modes[] = {place::SatMode::Scratch,
                                  place::SatMode::Incremental};

  std::printf("Placement shrink-search throughput: FSM corpus on xczu3eg\n\n");
  std::printf("  %-8s %-12s %10s %10s %7s %7s %10s %9s\n", "size", "mode",
              "shrink ms", "sat ms", "probes", "satprb", "avg ms/prb",
              "reused");

  obs::Json Rows = obs::Json::array();
  // [mode][program] — kept for the speedup block below.
  std::vector<std::vector<PlaceRun>> ByMode;
  for (place::SatMode Mode : Modes) {
    std::vector<PlaceRun> Runs = runCorpus(Corpus, Mode);
    for (size_t I = 0; I < Runs.size(); ++I) {
      const PlaceRun &R = Runs[I];
      if (!R.Ok) {
        std::printf("  %-8s %-12s FAILED: %s\n", Corpus[I].first.c_str(),
                    modeName(Mode), R.Error.c_str());
      } else {
        const place::PlacementStats &S = R.Stats;
        std::printf(
            "  %-8s %-12s %10.1f %10.1f %7llu %7llu %10.1f %9llu\n",
            Corpus[I].first.c_str(), modeName(Mode), S.ShrinkMs, S.SatMs,
            (unsigned long long)(S.IncrementalProbes + S.PrecheckProbes),
            (unsigned long long)S.IncrementalProbes,
            S.IncrementalProbes ? S.ShrinkMs / double(S.IncrementalProbes)
                                : 0.0,
            (unsigned long long)S.ReusedClauses);
      }
      Rows.push(rowFor(Corpus[I].first, Mode, R));
    }
    ByMode.push_back(std::move(Runs));
  }

  // Speedup block: total shrink-phase wall-clock, scratch over
  // incremental, per program. The acceptance gate is the fsm_256 entry
  // (>= 1.5x).
  obs::Json Speedup = obs::Json::array();
  std::printf("\n  %-8s %24s\n", "size", "incremental_vs_scratch");
  bool GateOk = false;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const PlaceRun &Scratch = ByMode[0][I];
    const PlaceRun &Incr = ByMode[1][I];
    if (!Scratch.Ok || !Incr.Ok)
      continue;
    double IncrX = Incr.Stats.ShrinkMs > 0.0
                       ? Scratch.Stats.ShrinkMs / Incr.Stats.ShrinkMs
                       : 0.0;
    obs::Json E = obs::Json::object();
    E.set("size", Corpus[I].first);
    E.set("scratch_shrink_ms", Scratch.Stats.ShrinkMs);
    E.set("incremental_shrink_ms", Incr.Stats.ShrinkMs);
    E.set("incremental_vs_scratch", IncrX);
    Speedup.push(std::move(E));
    std::printf("  %-8s %23.2fx\n", Corpus[I].first.c_str(), IncrX);
    if (Corpus[I].first == "fsm_256" && IncrX >= 1.5)
      GateOk = true;
  }
  std::printf("\n  fsm_256 incremental-vs-scratch gate (>= 1.5x): %s\n",
              GateOk ? "PASS" : "FAIL");

  obs::Json Doc = obs::Json::object();
  Doc.set("schema", "reticle-bench-v1");
  Doc.set("figure", "place");
  Doc.set("title",
          "Placement shrink-search solve time by SAT solver strategy");
  Doc.set("series", std::move(Rows));
  Doc.set("speedup", std::move(Speedup));
  std::string Path = "BENCH_place.json";
  if (Status S = obs::writeJsonFile(Doc, Path); !S) {
    std::fprintf(stderr, "warning: %s\n", S.error().c_str());
    return GateOk ? 0 : 1;
  }
  std::printf("\nwrote %s\n", Path.c_str());
  return GateOk ? 0 : 1;
}
