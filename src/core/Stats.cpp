//===- core/Stats.cpp - Unified compilation stats document ---------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Stats.h"

#include "obs/Coverage.h"
#include "obs/Telemetry.h"
#include "sim/Program.h"

using namespace reticle;
using namespace reticle::core;
using obs::Json;

Json reticle::core::statsJson(const CompileResult &Result,
                              std::string_view Program,
                              const obs::Context &Ctx) {
  // One snapshot of the registry serves both the sim section and the
  // counters section; reading it registers nothing, so the counters
  // section lists only what the session recorded.
  Json Counters = Ctx.Telem->countersJson();
  auto Count = [&](const std::string &Name) -> uint64_t {
    const Json *V = Counters.find(Name);
    return V ? static_cast<uint64_t>(V->asInt()) : 0;
  };

  Json Doc = Json::object();
  Doc.set("schema", "reticle-stats-v1");
  Doc.set("program", std::string(Program));

  Json Timings = Json::object();
  Timings.set("parse_ms", Result.Times.ParseMs);
  Timings.set("opt_ms", Result.Times.OptMs);
  Timings.set("select_ms", Result.Times.SelectMs);
  Timings.set("cascade_ms", Result.Times.CascadeMs);
  Timings.set("place_ms", Result.Times.PlaceMs);
  Timings.set("codegen_ms", Result.Times.CodegenMs);
  Timings.set("timing_ms", Result.Times.TimingMs);
  Timings.set("total_ms", Result.Times.TotalMs);
  Doc.set("timings", std::move(Timings));

  Json Opt = Json::object();
  Opt.set("folded", Result.Opt.Folded);
  Opt.set("dead", Result.Opt.Dead);
  Opt.set("vectorized", Result.Opt.Vectorized);
  Doc.set("opt", std::move(Opt));

  Json Select = Json::object();
  Select.set("trees", Result.SelectStats.NumTrees);
  Select.set("asm_ops", Result.SelectStats.NumAsmOps);
  Select.set("wires", Result.SelectStats.NumWire);
  Select.set("total_area", Result.SelectStats.TotalArea);
  Select.set("total_latency", Result.SelectStats.TotalLatency);
  Doc.set("select", std::move(Select));

  Json Cascade = Json::object();
  Cascade.set("chains", Result.CascadeStats.Chains);
  Cascade.set("rewritten", Result.CascadeStats.Rewritten);
  Doc.set("cascade", std::move(Cascade));

  Json Place = Json::object();
  Place.set("solves", Result.PlaceStats.Solves);
  Place.set("shrink_iterations", Result.PlaceStats.ShrinkIterations);
  Place.set("max_column", Result.PlaceStats.MaxColumn);
  Place.set("max_row", Result.PlaceStats.MaxRow);
  Json Sat = Json::object();
  Sat.set("vars", Result.PlaceStats.Vars);
  Sat.set("clauses", Result.PlaceStats.Clauses);
  Sat.set("decisions", Result.PlaceStats.Decisions);
  Sat.set("propagations", Result.PlaceStats.Propagations);
  Sat.set("conflicts", Result.PlaceStats.Conflicts);
  Sat.set("restarts", Result.PlaceStats.Restarts);
  Sat.set("learned", Result.PlaceStats.Learned);
  Place.set("sat", std::move(Sat));
  Doc.set("place", std::move(Place));

  // The solver-level search profile: solve counts, learned-clause quality
  // histograms, time, and the per-probe shrink record. The `place.sat`
  // block above stays as the compact aggregate consumers already depend
  // on; this section carries the full profile.
  Json SatProfile = Json::object();
  SatProfile.set("solves", Result.PlaceStats.Solves);
  SatProfile.set("budget_exhausted", Result.PlaceStats.BudgetExhausted);
  SatProfile.set("time_ms", Result.PlaceStats.SatMs);
  SatProfile.set("shrink_ms", Result.PlaceStats.ShrinkMs);
  SatProfile.set("conflicts", Result.PlaceStats.Conflicts);
  SatProfile.set("decisions", Result.PlaceStats.Decisions);
  SatProfile.set("propagations", Result.PlaceStats.Propagations);
  SatProfile.set("restarts", Result.PlaceStats.Restarts);
  SatProfile.set("learned", Result.PlaceStats.Learned);
  Json Lbd = Json::array();
  for (uint64_t Bucket : Result.PlaceStats.LbdHistogram)
    Lbd.push(Bucket);
  SatProfile.set("lbd_histogram", std::move(Lbd));
  Json Sizes = Json::array();
  for (uint64_t Bucket : Result.PlaceStats.LearnedSizeHistogram)
    Sizes.push(Bucket);
  SatProfile.set("learned_size_histogram", std::move(Sizes));
  // Shrink probes by what answered them, always present so schema checks
  // can `--require` them unconditionally.
  SatProfile.set("sat_probes", Result.PlaceStats.IncrementalProbes);
  SatProfile.set("precheck_probes", Result.PlaceStats.PrecheckProbes);
  Json Probes = Json::array();
  for (const place::ShrinkProbe &P : Result.PlaceStats.Timeline) {
    Json Probe = Json::object();
    Probe.set("axis", P.ProbeAxis == place::ShrinkProbe::Axis::Initial
                          ? "initial"
                          : P.ProbeAxis == place::ShrinkProbe::Axis::Column
                                ? "col"
                                : "row");
    Probe.set("bound", P.Bound);
    Probe.set("outcome", P.Result == place::ShrinkProbe::Outcome::Sat
                             ? "sat"
                             : P.Result == place::ShrinkProbe::Outcome::Unsat
                                   ? "unsat"
                                   : "budget_exhausted");
    Probe.set("conflicts", P.Conflicts);
    Probe.set("decisions", P.Decisions);
    Probe.set("max_column", P.MaxColumn);
    Probe.set("max_row", P.MaxRow);
    Probes.push(std::move(Probe));
  }
  SatProfile.set("shrink_probes", std::move(Probes));
  Doc.set("sat", std::move(SatProfile));

  Json Util = Json::object();
  Util.set("luts", Result.Util.Luts);
  Util.set("dsps", Result.Util.Dsps);
  Util.set("carries", Result.Util.Carries);
  Util.set("ffs", Result.Util.Ffs);
  Doc.set("utilization", std::move(Util));

  Json Timing = Json::object();
  Timing.set("critical_path_ns", Result.Timing.CriticalPathNs);
  Timing.set("fmax_mhz", Result.Timing.FmaxMhz);
  Json Path = Json::array();
  for (const std::string &Node : Result.Timing.Path)
    Path.push(Node);
  Timing.set("path", std::move(Path));
  Doc.set("timing", std::move(Timing));

  // Simulation counters (populated by `reticlec --run` / the engines'
  // wave-enabled entry points; all zero when nothing was simulated).
  Json Sim = Json::object();
  Sim.set("cycles", Count("sim.cycles"));
  Sim.set("events", Count("sim.events"));
  Sim.set("toggles", Count("sim.toggles"));
  Sim.set("signals", Count("sim.signals"));
  Json Interp = Json::object();
  Interp.set("cycles", Count("interp.cycles"));
  Interp.set("evals", Count("interp.evals"));
  Sim.set("interp", std::move(Interp));
  // The compiled-simulation VM: lowering activity (program geometry,
  // compile count) and execution volume (cycles, bytecode instructions
  // retired). `ops` divided by `cycles` is the per-cycle program size the
  // VM actually ran.
  Json Vm = Json::object();
  Vm.set("cycles", Count("sim.vm.cycles"));
  Vm.set("ops", Count("sim.vm.ops"));
  Vm.set("compiles", Count("sim.vm.compiles"));
  Json VmProgram = Json::object();
  VmProgram.set("words", Count("sim.vm.program.words"));
  VmProgram.set("consts", Count("sim.vm.program.consts"));
  VmProgram.set("signals", Count("sim.vm.program.signals"));
  Vm.set("program", std::move(VmProgram));
  // Static opcode histogram over every program compiled in this session,
  // keyed by mnemonic; zero-count opcodes are omitted so the section
  // stays compact (and empty when nothing was compiled).
  Json OpHist = Json::object();
  for (uint32_t K = 0; K < sim::NumOps; ++K) {
    const char *Name = sim::opName(static_cast<sim::Op>(K));
    uint64_t N = Count(std::string("sim.vm.op.") + Name);
    if (N != 0)
      OpHist.set(Name, N);
  }
  Vm.set("op_histogram", std::move(OpHist));
  Sim.set("vm", std::move(Vm));
  Doc.set("sim", std::move(Sim));

  // Coverage bins recorded into this compile's registry (static IR, isel
  // pattern, and — after a --run — dynamic toggle coverage).
  Doc.set("coverage", obs::coverageJson(Ctx.coverage().snapshot()));

  Doc.set("counters", std::move(Counters));
  // Latency distributions (pipeline.pass_ms[.<pass>], sat.solve_ms,
  // sim.cycle_batch_ms): log-bucketed percentile estimates per name.
  Doc.set("histograms", Ctx.Telem->histogramsJson());
  return Doc;
}
