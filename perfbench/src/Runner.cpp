//===- perfbench/src/Runner.cpp - One measured run of a workload ----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include "Calibrate.h"
#include "Oracle.h"

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "obs/Coverage.h"
#include "place/Place.h"
#include "sim/Compile.h"
#include "sim/Vm.h"
#include "tdl/Ultrascale.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sys/resource.h>

using namespace reticle;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run (set-up time is their median).
constexpr unsigned SetupRepeats = 3;
/// Cycles of the set-up differential check (vm-netlist vs interpreter).
constexpr size_t CheckCycles = 64;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// One drawn program with everything set-up derived and checked.
struct Program {
  std::string Name;
  std::string Text;
  ir::Function Fn;
  core::CompileResult Ref; ///< the checked reference compile
  std::string Verilog;     ///< Ref.Verilog.str(): what timed compiles match
  sim::Program IrProg;
  sim::Program NetProg;
  interp::Trace Bare;     ///< bare-run inputs
  interp::Trace Observed; ///< observed-run inputs (a prefix of Bare)
  interp::Trace BareWant; ///< interpreter outputs on Bare
  interp::Trace ObservedWant;
};

interp::Trace prefix(const interp::Trace &T, size_t Cycles) {
  interp::Trace Out;
  for (size_t C = 0; C < Cycles && C < T.size(); ++C)
    Out.push(T.step(C));
  return Out;
}

/// Builds and checks one program. Simulation lowering is spanned when
/// \p Log is set (the traced run's sim.compile_* metrics).
Status setUpProgram(const WorkloadDef &W, const ProgramText &Drawn,
                    uint64_t TraceSeed, const core::CompileOptions &Options,
                    SpanLog *Log, uint64_t Op, Program &P) {
  P.Name = Drawn.Name;
  P.Text = Drawn.Text;
  Result<ir::Function> Fn = ir::parseFunction(P.Text);
  if (!Fn)
    return Status::failure("parse: " + Fn.error());
  P.Fn = Fn.take();
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compileSource(P.Text, P.Name, Options, Session);
  if (!R)
    return Status::failure("compile: " + R.error());
  P.Ref = R.take();
  P.Verilog = P.Ref.Verilog.str();

  P.Bare = makeInputTrace(P.Fn, W.BareCycles, TraceSeed);
  P.Observed = prefix(P.Bare, W.ObservedCycles);
  Result<interp::Trace> Want = interp::interpret(P.Fn, P.Bare);
  if (!Want)
    return Status::failure("interpreter: " + Want.error());
  P.BareWant = Want.take();
  P.ObservedWant = prefix(P.BareWant, W.ObservedCycles);
  if (Status S = checkCompiled(P.Fn, P.Ref, Options,
                               prefix(P.Bare, CheckCycles),
                               prefix(P.BareWant, CheckCycles));
      !S)
    return S;

  core::CompileSession SimSession;
  Result<sim::Program> Ir = [&] {
    SpanLog::Scope Sp(Log, "sim.compile_ir", Op);
    return sim::compile(P.Fn, SimSession.context());
  }();
  if (!Ir)
    return Status::failure("vm-ir lowering: " + Ir.error());
  Result<sim::Program> Net = [&] {
    SpanLog::Scope Sp(Log, "sim.compile_netlist", Op);
    return sim::compile(P.Ref.Verilog, SimSession.context());
  }();
  if (!Net)
    return Status::failure("vm-netlist lowering: " + Net.error());
  P.IrProg = Ir.take();
  P.NetProg = Net.take();
  return Status::success();
}

/// The untraced compile operation: the user entry point, timed from
/// session creation to the returned result.
Status compileOp(const Program &P, const core::CompileOptions &Options,
                 double &Ms) {
  Clock::time_point Start = Clock::now();
  auto Session = std::make_unique<core::CompileSession>();
  Result<core::CompileResult> R =
      core::compileSource(P.Text, P.Name, Options, *Session);
  Ms = msSince(Start);
  if (!R)
    return Status::failure(R.error());
  return checkVerilog(R.value().Verilog.str(), P.Verilog);
}

/// The traced compile operation: the pipeline's layer calls made one by
/// one, each inside a span, with the same arguments core::Pipeline uses.
Status tracedCompileOp(const Program &P, const core::CompileOptions &Options,
                       SpanLog &Log, uint64_t Op,
                       place::PlacementStats &PlaceStats, double &PlaceMs) {
  const tdl::Target &Target =
      Options.Target ? *Options.Target : tdl::ultrascale();
  std::unique_ptr<core::CompileSession> Session;
  Result<verilog::Module> Mod = fail<verilog::Module>("not run");
  {
    SpanLog::Scope Root(&Log, "compile", Op);
    Session = std::make_unique<core::CompileSession>();
    const obs::Context &Ctx = Session->context();
    Result<ir::Function> Fn = [&] {
      SpanLog::Scope Sp(&Log, "ir.parse", Op);
      return ir::parseFunction(P.Text);
    }();
    if (!Fn)
      return Status::failure(Fn.error());
    if (Status S = [&] {
          SpanLog::Scope Sp(&Log, "ir.verify", Op);
          return ir::verify(Fn.value(), Ctx);
        }();
        !S)
      return S;
    isel::SelectionStats SelStats;
    Result<rasm::AsmProgram> Asm = [&] {
      SpanLog::Scope Sp(&Log, "isel.select", Op);
      return isel::select(Fn.value(), Target, &SelStats, Ctx);
    }();
    if (!Asm)
      return Status::failure(Asm.error());
    isel::CascadeStats CasStats;
    if (Options.Cascade)
      if (Status S = [&] {
            SpanLog::Scope Sp(&Log, "isel.cascade", Op);
            unsigned MaxChain =
                std::max(2u, Options.Dev.maxHeight(ir::Resource::Dsp));
            return isel::cascadePass(Asm.value(), Target, MaxChain,
                                     &CasStats, Ctx);
          }();
          !S)
        return S;
    place::PlacementOptions PlaceOptions;
    PlaceOptions.Shrink = Options.Shrink;
    PlaceOptions.Mode = Options.SatMode;
    PlaceOptions.PortfolioLanes = Options.SatThreads;
    Clock::time_point PlaceStart = Clock::now();
    Result<rasm::AsmProgram> Placed = [&] {
      SpanLog::Scope Sp(&Log, "place.place", Op);
      return place::place(Asm.value(), Options.Dev, PlaceOptions,
                          &PlaceStats, Ctx);
    }();
    PlaceMs = msSince(PlaceStart);
    if (!Placed)
      return Status::failure(Placed.error());
    if (Status S = [&] {
          SpanLog::Scope Sp(&Log, "place.check", Op);
          return place::checkPlacement(Asm.value(), Placed.value(),
                                       Options.Dev);
        }();
        !S)
      return S;
    codegen::Utilization Util;
    Mod = [&] {
      SpanLog::Scope Sp(&Log, "codegen.generate", Op);
      return codegen::generate(Placed.value(), Target, Options.Dev, &Util,
                               Ctx);
    }();
    if (!Mod)
      return Status::failure(Mod.error());
    if (Options.Timing) {
      Result<timing::TimingReport> Report = [&] {
        SpanLog::Scope Sp(&Log, "timing.analyze", Op);
        return timing::analyzeAsm(Placed.value(), Target, Options.Dev,
                                  timing::DelayModel(), Ctx);
      }();
      if (!Report)
        return Status::failure(Report.error());
    }
  }
  return checkVerilog(Mod.value().str(), P.Verilog);
}

/// One bare VM run of \p Prog, a copy of P's vm-ir or vm-netlist program,
/// over P's bare trace.
Status executeOp(const Program &P, const sim::Program &Prog, SpanLog *Log,
                 uint64_t Op, double &Ms) {
  core::CompileSession Session;
  Clock::time_point Start = Clock::now();
  Result<interp::Trace> Out = [&] {
    SpanLog::Scope Sp(Log,
                      Prog.Source == "netlist" ? "sim.execute_netlist"
                                               : "sim.execute_ir",
                      Op);
    return sim::execute(Prog, P.Bare, nullptr, Session.context());
  }();
  Ms = msSince(Start);
  if (!Out)
    return Status::failure(Out.error());
  return checkTrace(P.Fn, Out.value(), P.BareWant);
}

struct ObservedCounts {
  uint64_t Events = 0;
  uint64_t ToggleBins = 0;
  uint64_t VcdBytes = 0;
};

/// One observed run: both VM engines captured, the captures replayed into
/// toggle coverage and into a VCD held in memory (`reticlec --run --vcd
/// --coverage`).
Status observedOp(const Program &P, const sim::Program &Ir,
                  const sim::Program &Net, SpanLog *Log, uint64_t Op,
                  double &Ms, ObservedCounts &Counts) {
  core::CompileSession Session;
  const obs::Context &Ctx = Session.context();
  sim::WaveCapture CapIr, CapNet;
  obs::Coverage Cov;
  sim::ToggleCoverageSink Toggles(Cov);
#ifndef RETICLE_NO_TELEMETRY
  sim::VcdWriter Vcd(P.Name);
#endif
  Result<interp::Trace> OutIr = fail<interp::Trace>("not run");
  Result<interp::Trace> OutNet = fail<interp::Trace>("not run");
  Status Replay = Status::success();
  Clock::time_point Start = Clock::now();
  {
    SpanLog::Scope Root(Log, "sim.observed", Op);
    {
      SpanLog::Scope Sp(Log, "sim.capture", Op);
      OutIr = sim::execute(Ir, P.Observed, &CapIr, Ctx);
    }
    {
      SpanLog::Scope Sp(Log, "sim.capture", Op);
      OutNet = sim::execute(Net, P.Observed, &CapNet, Ctx);
    }
    std::vector<std::pair<const sim::WaveCapture *, std::string>> Sources = {
        {&CapIr, "vm-ir"}, {&CapNet, "vm-netlist"}};
    {
      SpanLog::Scope Sp(Log, "sim.replay_toggle", Op);
      Replay = sim::replay(Sources, Toggles);
    }
#ifndef RETICLE_NO_TELEMETRY
    if (Replay) {
      SpanLog::Scope Sp(Log, "sim.replay_vcd", Op);
      Replay = sim::replay(Sources, Vcd);
    }
#endif
  }
  Ms = msSince(Start);
  if (!OutIr)
    return Status::failure("vm-ir: " + OutIr.error());
  if (!OutNet)
    return Status::failure("vm-netlist: " + OutNet.error());
  if (!Replay)
    return Status::failure("replay: " + Replay.error());
  if (Status S = checkTrace(P.Fn, OutIr.value(), P.ObservedWant); !S)
    return Status::failure("vm-ir: " + S.error());
  if (Status S = checkTrace(P.Fn, OutNet.value(), P.ObservedWant); !S)
    return Status::failure("vm-netlist: " + S.error());
  Counts = {};
  for (const sim::WaveCapture *Cap : {&CapIr, &CapNet})
    for (const auto &Cycle : Cap->eventsByCycle())
      Counts.Events += Cycle.size();
  obs::CoverageSnapshot Snap = Cov.snapshot();
  if (auto It = Snap.find("sim.toggle"); It != Snap.end())
    Counts.ToggleBins = It->second.size();
#ifndef RETICLE_NO_TELEMETRY
  Counts.VcdBytes = Vcd.text().size();
#endif
  return Status::success();
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t codeWords(const sim::Program &P) {
  return P.Init.size() + P.Eval.size() + P.Commit.size();
}

/// A raw time and the phase (one set-up or one pass) it was measured in.
struct Timed {
  double Ms;
  uint32_t Phase;
};

/// The calibration scale of each phase: ReferenceMs over the geometric
/// mean of the kernel times measured just before and just after it.
class PhaseScales {
public:
  /// \p CalibMs holds one kernel time before each phase plus one after
  /// the last.
  explicit PhaseScales(const std::vector<double> &CalibMs) {
    for (size_t K = 0; K + 1 < CalibMs.size(); ++K)
      Scales.push_back(ReferenceMs / std::sqrt(CalibMs[K] * CalibMs[K + 1]));
  }
  double at(uint32_t Phase) const { return Scales[Phase]; }
  std::vector<double> apply(const std::vector<Timed> &Times) const {
    std::vector<double> Out;
    for (const Timed &T : Times)
      Out.push_back(T.Ms * at(T.Phase));
    return Out;
  }

private:
  std::vector<double> Scales;
};

/// Samples of one operation kind on one program.
struct ProgramSamples {
  std::vector<Timed> CompileMs, BareIrMs, BareNetMs, ObservedMs;
  // Traced compile: place span time and the run's reported SAT time.
  std::vector<Timed> NonSatMs, SatMs, ShrinkMs;
  ObservedCounts Observed;
};

std::vector<double> pooled(const std::vector<ProgramSamples> &Samples,
                           std::vector<Timed> ProgramSamples::*Field,
                           const PhaseScales &Scales) {
  std::vector<double> All;
  for (const ProgramSamples &S : Samples) {
    std::vector<double> Scaled = Scales.apply(S.*Field);
    All.insert(All.end(), Scaled.begin(), Scaled.end());
  }
  return All;
}

/// The traced run's per-layer metrics: span self-time medians per layer
/// call, the layers' work counts (deterministic, from the reference
/// compiles and one observed run per program), the pipeline overhead
/// (untraced compile median minus the layer medians) and the tracing
/// overhead (traced root spans over the same operations untraced).
void addLayerMetrics(MetricSet &M, const std::vector<Program> &Programs,
                     const std::vector<ProgramSamples> &Samples,
                     const SpanLog &Spans, const PhaseScales &Scales,
                     const std::vector<uint32_t> &OpPhase) {
  const Better Lo = Better::Lower, Hi = Better::Higher;
  auto Self = Spans.selfTimesByName();
  auto SpanMs = [&](const char *Name) {
    std::vector<double> Ms;
    for (const auto &[Op, Raw] : Self[Name])
      Ms.push_back(Raw * Scales.at(OpPhase[Op]));
    return median(Ms);
  };
  auto PooledMs = [&](std::vector<Timed> ProgramSamples::*Field) {
    return median(pooled(Samples, Field, Scales));
  };
  double Instrs = 0, AsmOps = 0, Chains = 0, Vars = 0, Clauses = 0;
  double Solves = 0, SatProbes = 0, Prechecks = 0, Encodes = 0;
  double Conflicts = 0, Words = 0, Events = 0, Bins = 0, VcdBytes = 0;
  for (size_t I = 0; I < Programs.size(); ++I) {
    const Program &P = Programs[I];
    const place::PlacementStats &PS = P.Ref.PlaceStats;
    Instrs += static_cast<double>(P.Fn.body().size());
    AsmOps += P.Ref.SelectStats.NumAsmOps;
    Chains += P.Ref.CascadeStats.Chains;
    Vars += PS.Vars;
    Clauses += PS.Clauses;
    Solves += PS.Solves;
    SatProbes += static_cast<double>(PS.IncrementalProbes);
    Prechecks += static_cast<double>(PS.PrecheckProbes);
    Encodes += static_cast<double>(PS.IncrementalEncodes);
    Conflicts += static_cast<double>(PS.Conflicts);
    Words += static_cast<double>(codeWords(P.IrProg) + codeWords(P.NetProg));
    Events += static_cast<double>(Samples[I].Observed.Events);
    Bins += static_cast<double>(Samples[I].Observed.ToggleBins);
    VcdBytes += static_cast<double>(Samples[I].Observed.VcdBytes);
  }

  double LayerSum = 0.0;
  auto Layer = [&](const char *Metric, const char *Span) {
    double Ms = SpanMs(Span);
    LayerSum += Ms;
    M.add(Metric, Ms, "ms", Lo);
  };
  Layer("ir.parse_ms", "ir.parse");
  Layer("ir.verify_ms", "ir.verify");
  M.add("ir.instrs", Instrs, "count", Lo);
  Layer("isel.select_ms", "isel.select");
  M.add("isel.asm_ops", AsmOps, "count", Lo);
  Layer("isel.cascade_ms", "isel.cascade");
  M.add("isel.cascade_chains", Chains, "count", Hi);
  Layer("place.place_ms", "place.place");
  Layer("place.check_ms", "place.check");
  M.add("place.nonsat_ms", PooledMs(&ProgramSamples::NonSatMs), "ms", Lo);
  M.add("place.sat_ms", PooledMs(&ProgramSamples::SatMs), "ms", Lo);
  M.add("place.shrink_ms", PooledMs(&ProgramSamples::ShrinkMs), "ms", Lo);
  M.add("place.vars", Vars, "count", Lo);
  M.add("place.clauses", Clauses, "count", Lo);
  M.add("place.solves", Solves, "count", Lo);
  M.add("place.sat_probes", SatProbes, "count", Lo);
  M.add("place.precheck_probes", Prechecks, "count", Hi);
  M.add("place.precheck_ratio",
        SatProbes + Prechecks > 0 ? Prechecks / (SatProbes + Prechecks) : 0.0,
        "ratio", Hi);
  M.add("place.encodes", Encodes, "count", Lo);
  M.add("place.conflicts", Conflicts, "count", Lo);
  Layer("codegen.generate_ms", "codegen.generate");
  Layer("timing.analyze_ms", "timing.analyze");
  double CompileMs = PooledMs(&ProgramSamples::CompileMs);
  M.add("core.compile_ms", CompileMs, "ms", Lo);
  M.add("core.pipeline_overhead_ms", CompileMs - LayerSum, "ms", Lo);

  M.add("sim.compile_ir_ms", SpanMs("sim.compile_ir"), "ms", Lo);
  M.add("sim.compile_netlist_ms", SpanMs("sim.compile_netlist"), "ms", Lo);
  M.add("sim.program_words", Words, "count", Lo);
  M.add("sim.execute_ir_ms", SpanMs("sim.execute_ir"), "ms", Lo);
  M.add("sim.execute_netlist_ms", SpanMs("sim.execute_netlist"), "ms", Lo);
  M.add("sim.capture_ms", SpanMs("sim.capture"), "ms", Lo);
  M.add("sim.wave_events", Events, "count", Lo);
  M.add("sim.replay_toggle_ms", SpanMs("sim.replay_toggle"), "ms", Lo);
  M.add("sim.toggle_bins", Bins, "count", Lo);
  M.add("sim.replay_vcd_ms", SpanMs("sim.replay_vcd"), "ms", Lo);
  M.add("sim.vcd_bytes", VcdBytes, "bytes", Lo);

  // Tracing overhead: the traced operations' root spans against the same
  // operations run untraced.
  std::map<std::string, std::vector<double>> RootMs;
  for (const SpanRec &R : Spans.spans())
    if (R.Parent < 0)
      RootMs[R.Name].push_back((R.EndUs - R.StartUs) / 1000.0 *
                               Scales.at(OpPhase[R.Op]));
  double Traced = median(RootMs["compile"]) + median(RootMs["sim.execute_ir"]) +
                  median(RootMs["sim.execute_netlist"]) +
                  median(RootMs["sim.observed"]);
  double Untraced = PooledMs(&ProgramSamples::CompileMs) +
                    PooledMs(&ProgramSamples::BareIrMs) +
                    PooledMs(&ProgramSamples::BareNetMs) +
                    PooledMs(&ProgramSamples::ObservedMs);
  M.add("trace.overhead_frac", Untraced > 0 ? Traced / Untraced - 1.0 : 0.0,
        "ratio", Lo);
}

} // namespace

void runWorkload(const WorkloadDef &W, const RunConfig &Config,
                 RunOutcome &Out) {
  core::CompileOptions Options; // defaults: incremental SAT, no portfolio
  OpLedger Ops;
  SpanLog *Log = Config.Trace ? &Out.Spans : nullptr;

  // Every set-up and every pass is a phase; a calibration point opens each
  // one (see Calibrate.h), and operation ids map to their phase.
  std::vector<double> CalibMs;
  uint32_t Phase = 0;
  std::vector<uint32_t> OpPhase(1, 0); // ids start at 1
  auto BeginPhase = [&] {
    CalibMs.push_back(calibrationMs());
    Phase = static_cast<uint32_t>(CalibMs.size() - 1);
  };
  auto NewOp = [&] {
    OpPhase.push_back(Phase);
    return static_cast<uint64_t>(OpPhase.size() - 1);
  };
  calibrationMs(); // untimed warm-up: first touch of the kernel's table

  // Set-up, repeated; the last repetition's programs are measured.
  std::vector<Program> Programs;
  std::vector<Timed> SetupMs;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    Programs.clear(); // one set-up's programs alive at a time
    BeginPhase();
    Clock::time_point Start = Clock::now();
    std::vector<ProgramText> Drawn = drawPrograms(W, Config.Seed);
    std::vector<Program> Built(Drawn.size());
    std::vector<bool> Ok(Drawn.size());
    for (size_t I = 0; I < Drawn.size(); ++I) {
      Status S = setUpProgram(W, Drawn[I], subSeed(Config.Seed, 1 + I),
                              Options, Log, NewOp(), Built[I]);
      Ok[I] = static_cast<bool>(S);
      Ops.record(S, "set-up " + Drawn[I].Name);
    }
    SetupMs.push_back({msSince(Start), Phase});
    for (size_t I = 0; I < Built.size(); ++I)
      if (Ok[I])
        Programs.push_back(std::move(Built[I]));
  }

  std::vector<ProgramSamples> Samples(Programs.size());
  double CompileWall = 0.0, SimWall = 0.0;
  unsigned CompilePasses = 0, SimPasses = 0;
  // Every operation is counted; a successful untraced one also keeps its
  // time in \p Into (traced times come from the spans).
  auto Keep = [&](const Status &St, const std::string &What, double Ms,
                  std::vector<Timed> *Into) {
    Ops.record(St, What);
    if (St && Into)
      Into->push_back({Ms, Phase});
    return static_cast<bool>(St);
  };

  // A traced run makes every operation twice, untraced and traced; which
  // goes first alternates by pass, so cache warmth does not bias
  // trace.overhead_frac.
  auto CompilePass = [&] {
    Clock::time_point Start = Clock::now();
    bool TracedFirst = CompilePasses % 2 == 1;
    for (size_t I = 0; I < Programs.size(); ++I) {
      const Program &P = Programs[I];
      ProgramSamples &S = Samples[I];
      auto Traced = [&] {
        place::PlacementStats PlaceStats;
        double PlaceMs = 0.0;
        Status St =
            tracedCompileOp(P, Options, *Log, NewOp(), PlaceStats, PlaceMs);
        if (Keep(St, "traced compile " + P.Name, 0.0, nullptr)) {
          S.NonSatMs.push_back({PlaceMs - PlaceStats.SatMs, Phase});
          S.SatMs.push_back({PlaceStats.SatMs, Phase});
          S.ShrinkMs.push_back({PlaceStats.ShrinkMs, Phase});
        }
      };
      if (Log && TracedFirst)
        Traced();
      double Ms = 0.0;
      Status St = compileOp(P, Options, Ms);
      Keep(St, "compile " + P.Name, Ms, &S.CompileMs);
      if (Log && !TracedFirst)
        Traced();
    }
    CompileWall += msSince(Start);
    ++CompilePasses;
  };

  // One simulation pass over every program, traced when L is set. The VM's
  // speed depends on where its program and state tables land in memory, so
  // every pass runs fresh copies behind a seeded heap offset: a run's
  // medians then average over layouts instead of keeping the one its
  // set-up drew.
  Rng Layout(subSeed(Config.Seed, 0x1a7));
  auto SimRuns = [&](SpanLog *L) {
    for (size_t I = 0; I < Programs.size(); ++I) {
      const Program &P = Programs[I];
      ProgramSamples &S = Samples[I];
      std::vector<uint64_t> Pad(1 + Layout.below(1024));
      asm volatile("" : : "r"(Pad.data()) : "memory"); // keep the offset
      sim::Program Ir = P.IrProg, Net = P.NetProg;
      double Ms = 0.0;
      Status St = executeOp(P, Ir, L, NewOp(), Ms);
      Keep(St, "vm-ir " + P.Name, Ms, L ? nullptr : &S.BareIrMs);
      St = executeOp(P, Net, L, NewOp(), Ms);
      Keep(St, "vm-netlist " + P.Name, Ms, L ? nullptr : &S.BareNetMs);
      ObservedCounts Counts;
      St = observedOp(P, Ir, Net, L, NewOp(), Ms, Counts);
      if (Keep(St, "observed " + P.Name, Ms,
               L ? nullptr : &S.ObservedMs))
        S.Observed = Counts;
    }
  };
  auto SimPass = [&] {
    Clock::time_point Start = Clock::now();
    bool TracedFirst = SimPasses % 2 == 1;
    if (Log && TracedFirst)
      SimRuns(Log);
    SimRuns(nullptr);
    if (Log && !TracedFirst)
      SimRuns(Log);
    SimWall += msSince(Start);
    ++SimPasses;
  };

  // The closed loop: whichever kind of pass is behind its share of the
  // measured time runs next, so compile and simulate passes interleave. The
  // loop overruns the deadline only until the tail rule has its samples and
  // every simulation kind has three per program.
  Clock::time_point Begin = Clock::now();
  double Budget = Config.Seconds * 1000.0;
  while (!Programs.empty()) {
    bool TailReady = CompilePasses * Programs.size() >= 11;
    bool Late = msSince(Begin) >= Budget;
    if (Late && TailReady && SimPasses >= 3)
      break;
    BeginPhase();
    if (!TailReady ||
        (!Late && CompileWall <= W.CompileShare * (CompileWall + SimWall)))
      CompilePass();
    else
      SimPass();
  }
  double MeasuredS = msSince(Begin) / 1000.0;
  CalibMs.push_back(calibrationMs()); // closes the last phase
  // Every reported time is scaled to the reference machine speed.
  PhaseScales Scales(CalibMs);

  // Per-program rows and the quality sums, from the checked references.
  // Simulation rates are geometric means of per-program rates (cycles
  // over the median run time), so every program weighs the same.
  double Luts = 0, Dsps = 0, Area = 0, LogCritical = 0;
  double LogIrRate = 0, LogNetRate = 0, LogObsRate = 0;
  std::vector<double> PooledCompileMs;
  double CompileInstrs = 0.0, CompileSeconds = 0.0;
  auto LogRate = [](size_t Cycles, const std::vector<double> &Ms) {
    double M = median(Ms);
    return M > 0 ? std::log(1000.0 * static_cast<double>(Cycles) / M) : 0.0;
  };
  obs::Json Rows = obs::Json::array();
  for (size_t I = 0; I < Programs.size(); ++I) {
    const Program &P = Programs[I];
    const ProgramSamples &S = Samples[I];
    const place::PlacementStats &PS = P.Ref.PlaceStats;
    double ProgArea = double(PS.MaxColumn + 1) * double(PS.MaxRow + 1);
    Luts += P.Ref.Util.Luts;
    Dsps += P.Ref.Util.Dsps;
    Area += ProgArea;
    LogCritical += std::log(P.Ref.Timing.CriticalPathNs);
    std::vector<double> CompileMs = Scales.apply(S.CompileMs);
    std::vector<double> IrMs = Scales.apply(S.BareIrMs);
    std::vector<double> NetMs = Scales.apply(S.BareNetMs);
    std::vector<double> ObsMs = Scales.apply(S.ObservedMs);
    PooledCompileMs.insert(PooledCompileMs.end(), CompileMs.begin(),
                           CompileMs.end());
    for (double Ms : CompileMs) {
      CompileInstrs += static_cast<double>(P.Fn.body().size());
      CompileSeconds += Ms / 1000.0;
    }
    LogIrRate += LogRate(P.Bare.size(), IrMs);
    LogNetRate += LogRate(P.Bare.size(), NetMs);
    LogObsRate += LogRate(P.Observed.size(), ObsMs);
    obs::Json Row = obs::Json::object();
    Row.set("name", P.Name);
    Row.set("instrs", static_cast<uint64_t>(P.Fn.body().size()));
    Row.set("luts", P.Ref.Util.Luts);
    Row.set("dsps", P.Ref.Util.Dsps);
    Row.set("placed_area", ProgArea);
    Row.set("critical_ns", P.Ref.Timing.CriticalPathNs);
    Row.set("sat_probes", PS.IncrementalProbes);
    Row.set("precheck_probes", PS.PrecheckProbes);
    Row.set("solves", PS.Solves);
    Row.set("bare_cycles", static_cast<uint64_t>(P.Bare.size()));
    Row.set("observed_cycles", static_cast<uint64_t>(P.Observed.size()));
    // Scaled samples, then their raw (unscaled) times.
    auto Samples = [&](const char *Key, const std::vector<double> &Scaled,
                       const std::vector<Timed> &Raw) {
      obs::Json A = obs::Json::array(), R = obs::Json::array();
      for (size_t K = 0; K < Raw.size(); ++K) {
        A.push(Scaled[K]);
        R.push(Raw[K].Ms);
      }
      Row.set(std::string(Key) + "_ms", std::move(A));
      Row.set(std::string(Key) + "_raw_ms", std::move(R));
    };
    Samples("compile", CompileMs, S.CompileMs);
    Samples("vm_ir", IrMs, S.BareIrMs);
    Samples("vm_netlist", NetMs, S.BareNetMs);
    Samples("observed", ObsMs, S.ObservedMs);
    Rows.push(std::move(Row));
  }

  MetricSet &M = Out.Metrics;
  const Better Lo = Better::Lower, Hi = Better::Higher;
  std::optional<Tail> CompileTail = tailPercentile(PooledCompileMs);
  if (!Config.Trace) {
    M.add("setup_s", median(Scales.apply(SetupMs)) / 1000.0, "s", Lo);
    M.add("peak_rss_mb", peakRssMb(), "MB", Lo);
    M.add("compile_ms_p50", median(PooledCompileMs), "ms", Lo);
    M.add("compile_ms_tail", CompileTail ? CompileTail->Value : 0.0, "ms", Lo);
    M.add("compile_instrs_per_s",
          CompileSeconds > 0 ? CompileInstrs / CompileSeconds : 0.0,
          "instrs/s", Hi);
    M.add("luts", Luts, "count", Lo);
    M.add("dsps", Dsps, "count", Lo);
    M.add("placed_area", Area, "slots", Lo);
    auto GeoMean = [&](double LogSum) {
      return Programs.empty() ? 0.0 : std::exp(LogSum / Programs.size());
    };
    M.add("critical_ns", GeoMean(LogCritical), "ns", Lo);
    M.add("vm_ir_cycles_per_s", GeoMean(LogIrRate), "cycles/s", Hi);
    M.add("vm_netlist_cycles_per_s", GeoMean(LogNetRate), "cycles/s", Hi);
    M.add("observed_cycles_per_s", GeoMean(LogObsRate), "cycles/s", Hi);
  } else {
    addLayerMetrics(M, Programs, Samples, Out.Spans, Scales, OpPhase);
    M.add("bench.calibration_ms", median(CalibMs), "ms", Lo);
  }

  Out.Attempted = Ops.attempted();
  Out.Failed = Ops.failed();
  obs::Json &D = Out.Detail;
  D.set("programs", std::move(Rows));
  obs::Json Setup = obs::Json::array();
  for (const Timed &S : SetupMs)
    Setup.push(S.Ms / 1000.0);
  D.set("setup_raw_s", std::move(Setup));
  D.set("measured_s", MeasuredS);
  obs::Json Calib = obs::Json::array();
  for (double C : CalibMs)
    Calib.push(C);
  D.set("calibration_ms", std::move(Calib));
  D.set("compile_passes", CompilePasses);
  D.set("sim_passes", SimPasses);
  if (CompileTail) {
    obs::Json T = obs::Json::object();
    T.set("percentile", CompileTail->Percentile);
    T.set("samples", static_cast<uint64_t>(CompileTail->Samples));
    T.set("beyond", static_cast<uint64_t>(CompileTail->Beyond));
    T.set("value_ms", CompileTail->Value);
    D.set("compile_ms_tail", std::move(T));
  }
  obs::Json Failures = obs::Json::array();
  for (const std::string &Msg : Ops.messages())
    Failures.push(Msg);
  D.set("failures", std::move(Failures));
}

} // namespace perfbench
