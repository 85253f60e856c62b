//===- bench/sim_throughput.cpp - Simulation engine throughput -----------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Measures the cycles/second of the three simulation engines — the
/// tree-walking reference interpreter (Section 6.2) plus the
/// compiled-bytecode VM lowered from the source program (vm-ir) and from
/// the generated Verilog (vm-netlist) — bare, with a waveform sink
/// attached, and with the capture replayed into per-bit toggle-coverage
/// bins, so the cost of full per-cycle observability is a tracked number
/// rather than folklore. Each vm-ir row carries `speedup_vs_tree`, its
/// throughput relative to the same-mode interpreter run (programs are
/// compiled once, outside the timed region); each bare VM row carries
/// `speedup_vs_seed` against a recorded baseline. Writes `BENCH_sim.json`
/// ("reticle-bench-v1") next to the binary.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "obs/Coverage.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

using namespace reticle;
using interp::Trace;
using interp::Value;

namespace {

const char *MacSource = R"(
  def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
  }
)";

/// A deterministic input trace: a linear-congruential walk over the i8
/// range, so every run measures identical work.
Trace makeTrace(const ir::Function &Fn, size_t Cycles) {
  Trace T;
  uint64_t State = 0x2545F4914F6CDD1DULL;
  auto Next = [&State] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((State >> 33) % 256) - 128;
  };
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      if (P.Ty.isBool()) {
        S[P.Name] = Value::makeBool(Next() & 1);
        continue;
      }
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(Next());
      S[P.Name] = Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  return T;
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

int main() {
  Result<ir::Function> Fn = ir::parseFunction(MacSource);
  if (!Fn) {
    std::fprintf(stderr, "parse failed: %s\n", Fn.error().c_str());
    return 1;
  }
  core::CompileOptions Options;
  Options.Dev = device::Device::small();
  core::CompileSession Session;
  const obs::Context &Ctx = Session.context();
  Result<core::CompileResult> Compiled =
      core::compile(Fn.value(), Options, Session);
  if (!Compiled) {
    std::fprintf(stderr, "compile failed: %s\n", Compiled.error().c_str());
    return 1;
  }

  // Lower both compiled-simulation programs once, outside every timed
  // region: compile-once is the VM's contract, so the timer measures
  // execution alone (the interpreter has no equivalent setup to skip).
  Result<sim::Program> IrProg = sim::compile(Fn.value(), Ctx);
  if (!IrProg) {
    std::fprintf(stderr, "vm-ir lowering failed: %s\n",
                 IrProg.error().c_str());
    return 1;
  }
  Result<sim::Program> NetProg = sim::compile(Compiled.value().Verilog, Ctx);
  if (!NetProg) {
    std::fprintf(stderr, "vm-netlist lowering failed: %s\n",
                 NetProg.error().c_str());
    return 1;
  }

  const size_t Cycles = 20000;
  Trace In = makeTrace(Fn.value(), Cycles);
  std::printf("Simulation throughput: mac on small, %zu cycles\n\n", Cycles);
  std::printf("  %-10s %-8s %10s %14s %10s\n", "engine", "mode", "ms",
              "cycles/sec", "speedup");

  obs::Json Rows = obs::Json::array();
  bool AllOk = true;
  // Interpreter wall time per mode, so each vm-ir row can report its
  // speedup against the engine it replaces. Note the live interpreter is
  // itself faster than before the compiled-simulation refactor: it now
  // rides the same flat-step trace and shared cycle skeleton, so
  // `speedup_vs_tree` compares against an already-improved baseline.
  std::map<std::string, double> InterpMs;
  // Pre-refactor throughput of the tree engines on this benchmark
  // (mac, 20k cycles, bare mode), measured before the shared cycle
  // skeleton and flat-step trace landed: the interpreter and the
  // tree-walking netlist simulator that vm-netlist replaced. Each
  // bare-mode VM row reports `speedup_vs_seed` against the engine it
  // replaces as it performed when the VM work started.
  const double SeedInterpPerSec = 1493654.0;
  const double SeedNetlistPerSec = 149123.0;
  // Modes: bare engine, wave capture attached, and capture replayed into
  // toggle-coverage bins (the full --run --coverage path).
  // Best of Reps runs per row: the machine is shared, so a single
  // measurement carries multi-x noise; the minimum is the stable
  // estimate of the work actually required.
  const int Reps = 5;
  auto Measure = [&](const char *Engine, const char *Mode) {
    std::string Eng(Engine);
    bool WithWave = std::string(Mode) != "none";
    bool WithCoverage = std::string(Mode) == "coverage";
    double Ms = 0.0;
    Result<Trace> Out = fail<Trace>("not run");
    uint64_t ToggleBins = 0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      sim::WaveCapture Cap;
      sim::WaveSink *Sink = WithWave ? &Cap : nullptr;
      // Drop the previous rep's trace before the timer starts; tearing
      // down 20k steps is not part of the engine's work.
      Out = fail<Trace>("not run");
      auto Start = std::chrono::steady_clock::now();
      Out = Eng == "interp"
                ? interp::interpret(Fn.value(), In, Sink, Ctx)
                : sim::execute(Eng == "vm-ir" ? IrProg.value()
                                              : NetProg.value(),
                               In, Sink, Ctx);
      obs::Coverage Cov;
      if (Out && WithCoverage) {
        sim::ToggleCoverageSink Toggles(Cov);
        if (Status S = sim::replay({{&Cap, Engine}}, Toggles); !S) {
          std::printf("  %-8s %-8s replay FAILED: %s\n", Engine, Mode,
                      S.error().c_str());
          AllOk = false;
        }
        obs::CoverageSnapshot Snap = Cov.snapshot();
        if (auto It = Snap.find("sim.toggle"); It != Snap.end())
          ToggleBins = It->second.size();
      }
      double RepMs = msSince(Start);
      if (Rep == 0 || RepMs < Ms)
        Ms = RepMs;
      if (!Out)
        break;
    }
    obs::Json Row = obs::Json::object();
    Row.set("engine", Engine);
    Row.set("mode", Mode);
    Row.set("ok", Out.ok());
    if (!Out) {
      Row.set("error", Out.error());
      std::printf("  %-8s %-8s FAILED: %s\n", Engine, Mode,
                  Out.error().c_str());
      AllOk = false;
    } else {
      double PerSec = Ms > 0.0 ? 1000.0 * Cycles / Ms : 0.0;
      Row.set("cycles", static_cast<uint64_t>(Cycles));
      Row.set("ms", Ms);
      Row.set("cycles_per_sec", PerSec);
      if (WithCoverage)
        Row.set("toggle_bins", ToggleBins);
      if (Eng == "interp") {
        InterpMs[Mode] = Ms;
        std::printf("  %-10s %-8s %10.1f %14.0f %10s\n", Engine, Mode, Ms,
                    PerSec, "-");
      } else {
        // vm-ir compares with the same-mode interpreter run; vm-netlist
        // has no live engine to compare with, only its seed baseline.
        bool IsIr = Eng == "vm-ir";
        char Col[16] = "-";
        if (IsIr) {
          double Speedup =
              Ms > 0.0 && InterpMs.count(Mode) ? InterpMs[Mode] / Ms : 0.0;
          Row.set("speedup_vs_tree", Speedup);
          std::snprintf(Col, sizeof Col, "%.1fx", Speedup);
        }
        if (!WithWave)
          Row.set("speedup_vs_seed",
                  PerSec / (IsIr ? SeedInterpPerSec : SeedNetlistPerSec));
        std::printf("  %-10s %-8s %10.1f %14.0f %10s\n", Engine, Mode, Ms,
                    PerSec, Col);
      }
    }
    Rows.push(std::move(Row));
  };

  for (const char *Engine : {"interp", "vm-ir", "vm-netlist"})
    for (const char *Mode : {"none", "wave", "coverage"})
      Measure(Engine, Mode);

  obs::Json Doc = obs::Json::object();
  Doc.set("schema", "reticle-bench-v1");
  Doc.set("figure", "sim");
  Doc.set("title", "Simulation engine throughput (mac, 20k cycles)");
  obs::Json Baseline = obs::Json::object();
  Baseline.set("note", "pre-refactor tree-engine throughput (bare mode), "
                       "the reference point for speedup_vs_seed");
  Baseline.set("interp_cycles_per_sec", SeedInterpPerSec);
  Baseline.set("netlist_cycles_per_sec", SeedNetlistPerSec);
  Doc.set("baseline", std::move(Baseline));
  Doc.set("series", std::move(Rows));
  if (Status S = obs::writeJsonFile(Doc, "BENCH_sim.json"); !S) {
    std::fprintf(stderr, "warning: %s\n", S.error().c_str());
    return AllOk ? 0 : 1;
  }
  std::printf("\nwrote BENCH_sim.json\n");
  return AllOk ? 0 : 1;
}
