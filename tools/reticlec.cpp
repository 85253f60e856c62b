//===- tools/reticlec.cpp - The Reticle compiler driver -------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Command-line front end for the compilation pipeline of Figure 7:
/// reads an intermediate-language program and emits assembly, placed
/// assembly, or structural Verilog with layout annotations. Also exposes
/// the behavioral-Verilog translation backend used to build the paper's
/// baselines, the built-in target description, the front-end optimization
/// passes of Section 8.2, and the introspection surface. `reticlec --help`
/// lists every flag.
///
/// The driver has four modes. A single input compiles through the
/// pipeline; `--emit=behavioral` translates one input without it; `--run`
/// compiles one input and executes it over an input trace; several inputs
/// compile concurrently in batch mode, one session each, with per-input
/// artifacts under `--out-dir` as `<stem>.*`. One flag table records which
/// modes take each flag; a flag given outside its modes is a usage error.
///
/// After a pipeline compile, writeArtifacts writes everything the session
/// holds, whether the compile succeeded or not: a failed placement's
/// `sat:core` remarks and the snapshots of the stages before it are the
/// output that explains the failure. Run mode writes its simulation
/// artifacts beside it.
///
/// Exit codes: 0 success, 1 an input failed to parse, compile or simulate,
/// 2 the invocation itself was wrong (unknown flag or value, a flag the
/// mode does not take, missing input, unreadable input file, unwritable
/// output file).
///
//===----------------------------------------------------------------------===//

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "obs/Coverage.h"
#include "obs/Report.h"
#include "obs/Snapshots.h"
#include "opt/Transforms.h"
#include "place/Floorplan.h"
#include "sim/Compile.h"
#include "sim/Vm.h"
#include "synth/Synth.h"
#include "tdl/Ultrascale.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#ifndef RETICLE_VERSION
#define RETICLE_VERSION "0.0.0-dev"
#endif

using namespace reticle;

namespace {

void printUsage(std::FILE *Out, const char *Argv0) {
  std::fprintf(
      Out,
      "usage: %s [options] <input.ret> [<input2.ret> ...]\n"
      "\n"
      "compile options:\n"
      "  --emit=asm|placed|verilog|behavioral   artifact to print (verilog)\n"
      "  --device=xczu3eg|small|tiny            placement target (xczu3eg)\n"
      "  -O                                     run dce/fold/vectorize first\n"
      "  --no-cascade                           skip the cascade rewrite\n"
      "  --no-shrink                            skip placement shrinking\n"
      "  --sat-proof=<file|->                   DRAT-style proof log of the "
      "placement\n"
      "                                         SAT searches\n"
      "  -o <file>                              write output to a file\n"
      "\n"
      "observability:\n"
      "  --stats                                per-stage report on stderr\n"
      "  --stats-json=<file|->                  unified stats document\n"
      "  --trace=<file|->                       Chrome/Perfetto trace\n"
      "  --dump-after-all=<dir>                 every stage snapshot + "
      "manifest\n"
      "  --dump-after=<stage>                   one stage's program to "
      "stderr\n"
      "  --remarks=<file|->                     optimization remarks (text)\n"
      "  --remarks-json=<file|->                remarks as JSONL\n"
      "  --floorplan=<file|->                   placement floorplan "
      "(SVG/ASCII)\n"
      "  --coverage=<file|->                    coverage bins as "
      "reticle-coverage-v1\n"
      "  --profile-folded=<file|->              collapsed-stack flamegraph "
      "fold of the\n"
      "                                         recorded tracing spans\n"
      "\n"
      "run mode (execute instead of printing an artifact):\n"
      "  --run=<trace.json>                     execute over this input "
      "trace\n"
      "  --cycles=N                             simulate only the first N "
      "cycles\n"
      "  --sim=interp|vm-ir|vm-netlist|both     engine selection (both)\n"
      "  --vcd=<file|->                         waveform as standard VCD\n"
      "  --wave-json=<file|->                   waveform as reticle-wave-v1 "
      "JSONL\n"
      "  --dump-sim-program=<file|->            compiled sim bytecode "
      "disassembly\n"
      "  --profile-sim=<file|->                 per-op VM execution profile "
      "as a\n"
      "                                         reticle-profile-v1 doc\n"
      "\n"
      "batch mode (several inputs):\n"
      "  --jobs=N                               worker threads (default: "
      "cores)\n"
      "  --out-dir=<dir>                        per-input artifacts land "
      "here (.)\n"
      "\n"
      "other:\n"
      "  --dump-target                          print the UltraScale TDL\n"
      "  --version                              print the version and exit\n"
      "  --help                                 print this help and exit\n",
      Argv0);
}

int usage(const char *Argv0) {
  printUsage(stderr, Argv0);
  return 2;
}

/// The invocation itself was wrong: bad flag value, unreadable input,
/// unwritable output. Distinct from a program that fails to compile.
int usageError(const std::string &Message) {
  std::fprintf(stderr, "reticlec: error: %s\n", Message.c_str());
  return 2;
}

/// An input program failed to parse, compile or simulate.
int compileError(const std::string &Message) {
  std::fprintf(stderr, "reticlec: error: %s\n", Message.c_str());
  return 1;
}

/// The driver's modes; each flag names the modes that take it.
enum Mode : unsigned {
  SingleMode = 1u << 0,     ///< one input through the pipeline
  BehavioralMode = 1u << 1, ///< --emit=behavioral: the pipeline is bypassed
  RunMode = 1u << 2,        ///< --run: compile one input, then execute it
  BatchMode = 1u << 3,      ///< several inputs, one session each
  PipelineModes = SingleMode | RunMode | BatchMode,
  AllModes = PipelineModes | BehavioralMode,
};

/// Where the artifacts of one compile session go. An empty path leaves
/// the artifact out; "-" streams it to stdout.
struct ArtifactPaths {
  bool StatsTable = false; ///< the stats document as a table on stderr
  std::string Stats;
  std::string SnapshotDir;
  std::string DumpStage; ///< one stage's snapshot, printed to stderr
  std::string Floorplan;
  std::string SatProof;
  std::string Remarks;
  std::string RemarksJson;
  std::string Trace;
  std::string Folded;
  std::string Coverage;

  bool tracing() const { return !Trace.empty() || !Folded.empty(); }
  bool remarks() const { return !Remarks.empty() || !RemarksJson.empty(); }
  bool snapshots() const { return !SnapshotDir.empty() || !DumpStage.empty(); }
};

/// Everything parsed from the command line.
struct DriverArgs {
  std::vector<std::string> Inputs;
  std::string Emit = "verilog";
  std::string Device = "xczu3eg";
  bool NoCascade = false;
  bool NoShrink = false;
  std::string OutputPath;
  /// --stats sets StatsTable; in batch mode it prints one line per input
  /// instead, and in behavioral mode the -O summary.
  ArtifactPaths Artifacts;
  std::string RunTracePath;
  std::string SimEngine = "both";
  std::optional<uint64_t> Cycles;
  std::string VcdPath;
  std::string WaveJsonPath;
  std::string DumpSimProgramPath;
  std::string ProfileSimPath;
  std::optional<uint64_t> Jobs;
  std::string OutDir = ".";
  core::CompileOptions Options;
};

/// One command-line flag: where its value goes, how the value is checked,
/// and which modes take it. A switch sets *Switch. A long flag takes its
/// value as `--name=value`, a short one (`-o`) as the next argument.
struct Flag {
  const char *Name;
  unsigned Modes;
  bool *Switch = nullptr;
  std::string *Text = nullptr;
  std::optional<uint64_t> *Count = nullptr;
  /// The bad-value message: "<Name>= requires <Needs>", or for a flag with
  /// Choices, "unknown <Needs> '<value>' (valid: <Choices>)".
  const char *Needs = nullptr;
  const char *Choices = nullptr;
  uint64_t Min = 0;
  uint64_t Max = UINT64_MAX;
};

/// The flag table. `printUsage` is written by hand; the
/// reticlec_help_lists_every_flag ctest names every flag here and checks
/// that --help mentions each.
std::vector<Flag> flagTable(DriverArgs &A) {
  const char *File = "a file path or '-'";
  ArtifactPaths &Out = A.Artifacts;
  auto Switch = [](const char *Name, unsigned Modes, bool &V) {
    return Flag{Name, Modes, &V};
  };
  auto Text = [](const char *Name, unsigned Modes, std::string &V,
                 const char *Needs, const char *Choices = nullptr) {
    return Flag{Name, Modes, nullptr, &V, nullptr, Needs, Choices};
  };
  auto Count = [](const char *Name, unsigned Modes, std::optional<uint64_t> &V,
                  const char *Needs, uint64_t Min, uint64_t Max) {
    return Flag{Name, Modes, nullptr, nullptr, &V, Needs, nullptr, Min, Max};
  };
  return {
      Text("--emit", AllModes, A.Emit, "--emit kind",
           "asm, placed, verilog, behavioral"),
      Text("--device", AllModes, A.Device, "--device", "xczu3eg, small, tiny"),
      Switch("-O", AllModes, A.Options.Optimize),
      Switch("--no-cascade", AllModes, A.NoCascade),
      Switch("--no-shrink", AllModes, A.NoShrink),
      Text("--sat-proof", SingleMode, Out.SatProof, File),
      Text("-o", SingleMode | BehavioralMode, A.OutputPath, nullptr),
      Switch("--stats", AllModes, Out.StatsTable),
      Text("--stats-json", PipelineModes, Out.Stats, File),
      Text("--trace", PipelineModes, Out.Trace, File),
      Text("--dump-after-all", SingleMode | BatchMode, Out.SnapshotDir,
           "a directory"),
      Text("--dump-after", SingleMode, Out.DumpStage, "stage",
           "parse, opt, isel, cascade, place, codegen"),
      Text("--remarks", PipelineModes, Out.Remarks, File),
      Text("--remarks-json", PipelineModes, Out.RemarksJson, File),
      Text("--floorplan", SingleMode, Out.Floorplan, File),
      Text("--coverage", PipelineModes, Out.Coverage, File),
      Text("--profile-folded", SingleMode | RunMode, Out.Folded, File),
      Text("--run", RunMode, A.RunTracePath, "an input-trace file"),
      Count("--cycles", RunMode, A.Cycles, "a cycle count", 0, UINT64_MAX),
      Text("--sim", RunMode, A.SimEngine, "--sim engine",
           "interp, vm-ir, vm-netlist, both"),
      Text("--vcd", RunMode, A.VcdPath, File),
      Text("--wave-json", RunMode, A.WaveJsonPath, File),
      Text("--dump-sim-program", RunMode, A.DumpSimProgramPath, File),
      Text("--profile-sim", RunMode, A.ProfileSimPath, File),
      Count("--jobs", AllModes, A.Jobs, "a positive thread count", 1, 1024),
      Text("--out-dir", AllModes, A.OutDir, "a directory"),
  };
}

bool isChoice(std::string_view Choices, std::string_view Value) {
  for (size_t Start = 0; Start <= Choices.size();) {
    size_t End = Choices.find(", ", Start);
    if (End == std::string_view::npos)
      End = Choices.size();
    if (Choices.substr(Start, End - Start) == Value)
      return true;
    Start = End + 2;
  }
  return false;
}

/// Checks \p Value against \p F and stores it; returns the usage error,
/// or an empty string when the value is good. A count is decimal digits
/// only (no sign, no blanks), the whole value consumed, within [Min, Max].
std::string setValue(const Flag &F, const std::string &Value) {
  if (F.Count) {
    uint64_t N = 0;
    const char *End = Value.data() + Value.size();
    auto [Ptr, Ec] = std::from_chars(Value.data(), End, N);
    if (Ec != std::errc() || Ptr != End || N < F.Min || N > F.Max)
      return std::string(F.Name) + "= requires " + F.Needs;
    *F.Count = N;
    return {};
  }
  if (F.Choices && !isChoice(F.Choices, Value))
    return std::string("unknown ") + F.Needs + " '" + Value +
           "' (valid: " + F.Choices + ")";
  if (F.Needs && Value.empty())
    return std::string(F.Name) + "= requires " + F.Needs;
  *F.Text = Value;
  return {};
}

/// Why \p F is refused in \p M, a mode outside F.Modes.
std::string refusal(const Flag &F, unsigned M) {
  std::string Name = F.Name;
  if (F.Modes == RunMode)
    return Name + " requires --run";
  if (M == BatchMode)
    return Name + " applies to a single input; with several inputs use "
                  "--out-dir";
  if (M == BehavioralMode)
    return Name + " requires a pipeline emit kind (asm, placed, verilog)";
  return Name + " does not apply with --run";
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Writes \p Text to the file \p Path.
Status writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (Out)
    Out << Text;
  if (!Out)
    return Status::failure("cannot write '" + Path + "'");
  return Status::success();
}

/// Writes \p Text to \p Path, or to stdout when \p Path is "-".
Status writeTextOutput(const std::string &Path, const std::string &Text) {
  if (Path != "-")
    return writeFile(Path, Text);
  std::fputs(Text.c_str(), stdout);
  return Status::success();
}

bool endsWith(const std::string &Text, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return Text.size() >= N &&
         Text.compare(Text.size() - N, N, Suffix) == 0;
}

/// Turns on the session sinks that the artifacts in \p Paths read.
void enableSinks(const ArtifactPaths &Paths, core::CompileSession &Session) {
  Session.telemetry().enableTracing(Paths.tracing());
  Session.remarks().enable(Paths.remarks());
  Session.captureSnapshots(Paths.snapshots());
}

/// Writes every artifact \p Paths asks for from \p Session, which compiled
/// \p Program. \p R is the compile's result, or null when the compile
/// failed or a run stopped before simulating: the stats document, the
/// floorplan and the SAT proof describe a result, while the snapshots,
/// remarks, trace, folded stacks and coverage hold whatever the session
/// recorded. Stops at the first artifact it cannot write.
Status writeArtifacts(const ArtifactPaths &Paths,
                      const core::CompileSession &Session,
                      const std::string &Program,
                      const core::CompileResult *R,
                      const device::Device &Dev) {
  Status Written = Status::success();
  auto Put = [&](const std::string &Path, auto Render) {
    if (Written && !Path.empty())
      Written = writeTextOutput(Path, Render());
  };
  if (R && (Paths.StatsTable || !Paths.Stats.empty())) {
    obs::Json Doc = core::statsJson(*R, Program, Session.context());
    if (Paths.StatsTable)
      obs::printTable(Doc, stderr);
    Put(Paths.Stats, [&] { return Doc.str(2) + "\n"; });
  }
  if (Written && !Paths.SnapshotDir.empty())
    Written =
        obs::writeSnapshots(Session.snapshots(), Paths.SnapshotDir, Program);
  if (Written && !Paths.DumpStage.empty())
    if (const obs::StageSnapshot *Snap =
            Session.snapshots().find(Paths.DumpStage)) {
      std::fprintf(stderr, "; after %s\n", Snap->Stage.c_str());
      std::fputs(Snap->Text.c_str(), stderr);
    }
  if (R) {
    Put(Paths.Floorplan, [&] {
      return Paths.Floorplan == "-" || endsWith(Paths.Floorplan, ".txt")
                 ? place::floorplanAscii(R->Placed, Dev)
                 : place::floorplanSvg(R->Placed, Dev);
    });
    Put(Paths.SatProof, [&] { return R->SatProof; });
  }
  Put(Paths.Remarks, [&] { return Session.remarks().text(); });
  Put(Paths.RemarksJson, [&] { return Session.remarks().jsonl(Program); });
  Put(Paths.Trace, [&] { return Session.telemetry().traceJson() + "\n"; });
  Put(Paths.Folded, [&] { return Session.telemetry().foldedStacks(); });
  Put(Paths.Coverage, [&] {
    return obs::coverageDoc(Program, Session.coverage().snapshot()).str(2) +
           "\n";
  });
  return Written;
}

/// Ends an invocation that failed after its compile started: writes what
/// the session recorded, then reports \p Error with exit code \p Code. A
/// write error is reported too but does not change the exit code.
int flushAndFail(const DriverArgs &Args, const core::CompileSession &Session,
                 const std::string &Program, int Code,
                 const std::string &Error) {
  if (Status S = writeArtifacts(Args.Artifacts, Session, Program, nullptr,
                                Args.Options.Dev);
      !S)
    std::fprintf(stderr, "reticlec: error: %s\n", S.error().c_str());
  std::fprintf(stderr, "reticlec: error: %s\n", Error.c_str());
  return Code;
}

/// The compile error message for a failed pipeline run: parse failures
/// carry the input path, later stages speak for themselves (matching the
/// historical driver output).
std::string pipelineErrorMessage(const core::CompileSession &Session,
                                 const std::string &InputPath,
                                 const std::string &Error) {
  for (const core::CompileSession::Diagnostic &D : Session.diagnostics())
    if (D.Stage == "parse" && D.Message == Error)
      return InputPath + ": " + Error;
  return Error;
}

std::string primaryArtifactText(const core::CompileResult &R,
                                const std::string &Emit) {
  if (Emit == "asm")
    return R.Asm.str();
  if (Emit == "placed")
    return R.Placed.str();
  return R.Verilog.str();
}

/// The behavioral translation bypasses the Figure-7 pipeline: parse and
/// optimize by hand, then emit.
int runBehavioral(const DriverArgs &Args) {
  const std::string &InputPath = Args.Inputs.front();
  std::optional<std::string> Source = readFile(InputPath);
  if (!Source)
    return usageError("cannot open '" + InputPath + "'");
  Result<ir::Function> Fn = ir::parseFunction(*Source);
  if (!Fn)
    return compileError(InputPath + ": " + Fn.error());
  if (Args.Options.Optimize) {
    // No observability artifact covers this path; the session only
    // receives what the passes record.
    core::CompileSession Session;
    const obs::Context &Ctx = Session.context();
    unsigned Folded = opt::constantFold(Fn.value(), Ctx);
    unsigned Dead = opt::deadCodeElim(Fn.value(), Ctx);
    unsigned Vectors = opt::vectorize(Fn.value(), 4, Ctx);
    if (Args.Artifacts.StatsTable)
      std::fprintf(stderr,
                   "opt: folded %u, removed %u dead, formed %u vector "
                   "op(s)\n",
                   Folded, Dead, Vectors);
  }
  std::string Output =
      synth::emitBehavioral(Fn.value(), synth::Mode::Hint).str();
  if (Status S = writeTextOutput(
          Args.OutputPath.empty() ? "-" : Args.OutputPath, Output);
      !S)
    return usageError(S.error());
  return 0;
}

/// Compiles one input inside its own session.
int runSingle(const DriverArgs &Args) {
  const std::string &InputPath = Args.Inputs.front();
  std::optional<std::string> Source = readFile(InputPath);
  if (!Source)
    return usageError("cannot open '" + InputPath + "'");

  core::CompileSession Session;
  enableSinks(Args.Artifacts, Session);
  Result<core::CompileResult> R =
      core::compileSource(*Source, InputPath, Args.Options, Session);
  if (!R)
    return flushAndFail(Args, Session, InputPath, 1,
                        pipelineErrorMessage(Session, InputPath, R.error()));

  if (Args.Options.Optimize && Args.Artifacts.StatsTable)
    std::fprintf(stderr,
                 "opt: folded %u, removed %u dead, formed %u vector "
                 "op(s)\n",
                 R.value().Opt.Folded, R.value().Opt.Dead,
                 R.value().Opt.Vectorized);
  if (Status S = writeArtifacts(Args.Artifacts, Session, InputPath,
                                &R.value(), Args.Options.Dev);
      !S)
    return usageError(S.error());

  std::string Output = primaryArtifactText(R.value(), Args.Emit);
  if (Args.OutputPath.empty()) {
    std::fputs(Output.c_str(), stdout);
    return 0;
  }
  if (Status S = writeFile(Args.OutputPath, Output); !S)
    return usageError(S.error());
  return 0;
}

/// Compiles one input, then executes it over the --run input trace with
/// the selected engine(s), streaming waveforms and checking both engines
/// against each other in --sim=both mode.
int runExecute(const DriverArgs &Args) {
  const std::string &InputPath = Args.Inputs.front();
  std::optional<std::string> Source = readFile(InputPath);
  if (!Source)
    return usageError("cannot open '" + InputPath + "'");
  std::optional<std::string> TraceText = readFile(Args.RunTracePath);
  if (!TraceText)
    return usageError("cannot open '" + Args.RunTracePath + "'");

  core::CompileSession Session;
  enableSinks(Args.Artifacts, Session);
  Result<core::CompileResult> R =
      core::compileSource(*Source, InputPath, Args.Options, Session);
  // Every exit from here on writes the session's artifacts first.
  auto Fail = [&](int Code, const std::string &Error) {
    return flushAndFail(Args, Session, InputPath, Code, Error);
  };
  if (!R)
    return Fail(1, pipelineErrorMessage(Session, InputPath, R.error()));

  // The interpreter and vm-ir execute the source program; vm-netlist
  // executes the compiled structural Verilog.
  Result<ir::Function> Fn = ir::parseFunction(*Source);
  if (!Fn)
    return Fail(1, InputPath + ": " + Fn.error());

  Result<interp::Trace> InputTrace =
      sim::parseInputTrace(*TraceText, Fn.value());
  if (!InputTrace)
    return Fail(1, Args.RunTracePath + ": " + InputTrace.error());
  interp::Trace Drive = InputTrace.take();
  if (Args.Cycles) {
    if (*Args.Cycles > Drive.size())
      return Fail(1, Args.RunTracePath + ": trace has " +
                         std::to_string(Drive.size()) + " cycle(s), --cycles=" +
                         std::to_string(*Args.Cycles) + " requested");
    Drive.steps().resize(*Args.Cycles);
  }

  bool Both = Args.SimEngine == "both";
  bool RunInterp = Both || Args.SimEngine == "interp";
  bool RunVmIr = Both || Args.SimEngine == "vm-ir";
  bool RunVmNetlist = Both || Args.SimEngine == "vm-netlist";
  bool WantWave = !Args.VcdPath.empty() || !Args.WaveJsonPath.empty();
  // Toggle coverage replays the same captures the waveform writers use,
  // so a coverage or stats request keeps the captures alive too.
  bool WantCoverage =
      !Args.Artifacts.Coverage.empty() || !Args.Artifacts.Stats.empty();
  bool Capture = WantWave || WantCoverage;

  // The compiled-simulation programs: the VM engines execute them, and
  // --dump-sim-program disassembles both regardless of engine selection.
  bool WantPrograms =
      RunVmIr || RunVmNetlist || !Args.DumpSimProgramPath.empty();
  Result<sim::Program> IrProgram = fail<sim::Program>("not compiled");
  Result<sim::Program> NetProgram = fail<sim::Program>("not compiled");
  if (WantPrograms) {
    IrProgram = sim::compile(Fn.value(), Session.context());
    NetProgram = sim::compile(R.value().Verilog, Session.context());
  }
  if (!Args.DumpSimProgramPath.empty()) {
    if (!IrProgram)
      return Fail(1, "vm-ir: " + IrProgram.error());
    if (!NetProgram)
      return Fail(1, "vm-netlist: " + NetProgram.error());
    std::string Text = sim::disassemble(IrProgram.value()) +
                       sim::disassemble(NetProgram.value());
    if (Status S = writeTextOutput(Args.DumpSimProgramPath, Text); !S)
      return Fail(2, S.error());
  }

  sim::WaveCapture InterpWave, VmIrWave, VmNetlistWave;
  Result<interp::Trace> InterpOut = fail<interp::Trace>("not run");
  Result<interp::Trace> VmIrOut = fail<interp::Trace>("not run");
  Result<interp::Trace> VmNetlistOut = fail<interp::Trace>("not run");
  if (RunInterp)
    InterpOut = interp::interpret(Fn.value(), Drive,
                                  Capture ? &InterpWave : nullptr,
                                  Session.context());
  // --profile-sim attaches the profiled executor to one VM engine: vm-ir
  // when it runs (the primary in --sim=both mode), vm-netlist otherwise.
  bool ProfileIr = !Args.ProfileSimPath.empty() && RunVmIr;
  bool ProfileNet = !Args.ProfileSimPath.empty() && !RunVmIr && RunVmNetlist;
  sim::VmProfile Profile;
  auto Execute = [&](const Result<sim::Program> &Prog, bool Profiled,
                     sim::WaveCapture &Wave) -> Result<interp::Trace> {
    if (!Prog)
      return fail<interp::Trace>(Prog.error());
    sim::WaveCapture *Sink = Capture ? &Wave : nullptr;
    return Profiled ? sim::execute(Prog.value(), Drive, Profile, Sink,
                                   Session.context())
                    : sim::execute(Prog.value(), Drive, Sink,
                                   Session.context());
  };
  if (RunVmIr)
    VmIrOut = Execute(IrProgram, ProfileIr, VmIrWave);
  if (RunVmNetlist)
    VmNetlistOut = Execute(NetProgram, ProfileNet, VmNetlistWave);

  // The sim profile flushes before the engine-failure checks below, so an
  // aborted run still reports the ops it retired (Aborted marked true).
  if (ProfileIr || ProfileNet) {
    const Result<sim::Program> &Prog = ProfileIr ? IrProgram : NetProgram;
    if (Prog)
      if (Status S = writeTextOutput(
              Args.ProfileSimPath,
              sim::profileJson(Prog.value(), Profile).str(2) + "\n");
          !S)
        return Fail(2, S.error());
  }

  std::vector<std::pair<const sim::WaveCapture *, std::string>> Sources;
  if (RunInterp)
    Sources.push_back({&InterpWave, "interp"});
  if (RunVmIr)
    Sources.push_back({&VmIrWave, "vm-ir"});
  if (RunVmNetlist)
    Sources.push_back({&VmNetlistWave, "vm-netlist"});
  // A single engine streams unprefixed, matching the pre-VM layout.
  if (Sources.size() == 1)
    Sources.front().second = "";

  // Dynamic toggle coverage: replay the captured run(s) — complete or
  // aborted — into the session's coverage registry as per-signal-bit
  // 0->1 / 1->0 bins, per-engine-prefixed in --sim=both mode. The stats
  // document and the --coverage doc render afterwards, so both see the
  // sim.toggle space.
  if (Capture) {
    sim::ToggleCoverageSink Toggles(Session.coverage());
    if (Status S = sim::replay(Sources, Toggles); !S)
      return Fail(1, S.error());
  }

  // Waveforms are written from the in-memory captures after the run —
  // including aborted runs, whose partial captures replay with the
  // aborted marker so the artifacts stay parseable.
  std::string Top = std::filesystem::path(InputPath).stem().string();
  if (Top.empty())
    Top = "reticle";
  if (!Args.VcdPath.empty()) {
    sim::VcdWriter Vcd(Top);
    Status S = sim::replay(Sources, Vcd);
    if (S)
      S = writeTextOutput(Args.VcdPath, Vcd.text());
    if (!S)
      return Fail(2, S.error());
  }
  if (!Args.WaveJsonPath.empty()) {
    sim::WaveJsonWriter Wj(Top, Args.SimEngine.c_str());
    Status S = sim::replay(Sources, Wj);
    if (S)
      S = writeTextOutput(Args.WaveJsonPath, Wj.text());
    if (!S)
      return Fail(2, S.error());
  }

  // The session's artifacts render after the run, so the stats document
  // sees the sim.* counters.
  if (Status S = writeArtifacts(Args.Artifacts, Session, InputPath,
                                &R.value(), Args.Options.Dev);
      !S)
    return usageError(S.error());

  if (RunInterp && !InterpOut)
    return compileError("interp: " + InterpOut.error());
  if (RunVmIr && !VmIrOut)
    return compileError("vm-ir: " + VmIrOut.error());
  if (RunVmNetlist && !VmNetlistOut)
    return compileError("vm-netlist: " + VmNetlistOut.error());

  // The differential checks: in both mode each VM engine checks every
  // output port against the interpreter, cycle for cycle, through the
  // flattened bit representation.
  auto DiffVsInterp = [&](const char *Name, const interp::Trace &Vm) {
    for (size_t Cycle = 0; Cycle < Drive.size(); ++Cycle) {
      for (const ir::Port &P : Fn.value().outputs()) {
        const interp::Value *Va = Vm.get(Cycle, P.Name);
        const interp::Value *Vb = InterpOut.value().get(Cycle, P.Name);
        if (!Va || !Vb || Va->toBits() != Vb->toBits())
          return compileError(
              std::string(Name) + " vs interp divergence at cycle " +
              std::to_string(Cycle) + ", signal '" + P.Name + "': " + Name +
              " " + (Va ? sim::bitsToString(Va->toBits()) : "<missing>") +
              ", interp " +
              (Vb ? sim::bitsToString(Vb->toBits()) : "<missing>"));
      }
    }
    return 0;
  };
  if (RunInterp && RunVmIr)
    if (int Rc = DiffVsInterp("vm-ir", VmIrOut.value()))
      return Rc;
  if (RunInterp && RunVmNetlist)
    if (int Rc = DiffVsInterp("vm-netlist", VmNetlistOut.value()))
      return Rc;

  std::fprintf(stderr, "reticlec: run: %s: %zu cycle(s), sim=%s: ok\n",
               InputPath.c_str(), Drive.size(), Args.SimEngine.c_str());
  return 0;
}

/// Compiles every input concurrently and writes per-input artifacts plus
/// the merged batch summary.
int runBatch(const DriverArgs &Args) {
  // Read every input up front, and derive a unique artifact stem per
  // input from its file name.
  std::vector<core::BatchInput> Inputs;
  std::vector<std::string> Stems;
  std::set<std::string> SeenStems;
  for (const std::string &Path : Args.Inputs) {
    std::optional<std::string> Source = readFile(Path);
    if (!Source)
      return usageError("cannot open '" + Path + "'");
    Inputs.push_back({Path, std::move(*Source)});
    std::string Stem = std::filesystem::path(Path).stem().string();
    if (Stem.empty())
      Stem = "input" + std::to_string(Stems.size());
    if (!SeenStems.insert(Stem).second)
      return usageError("inputs '" + Path +
                        "' and an earlier input share the artifact stem '" +
                        Stem + "'; rename one");
    Stems.push_back(Stem);
  }

  std::error_code Ec;
  std::filesystem::create_directories(Args.OutDir, Ec);
  if (Ec)
    return usageError("cannot create '" + Args.OutDir +
                      "': " + Ec.message());

  const ArtifactPaths &Given = Args.Artifacts;
  core::BatchOptions Batch;
  Batch.Options = Args.Options;
  Batch.Jobs = static_cast<unsigned>(Args.Jobs.value_or(0));
  Batch.CaptureSnapshots = Given.snapshots();
  Batch.EnableRemarks = Given.remarks();
  Batch.EnableTracing = Given.tracing();
  unsigned Jobs = core::batchJobCount(Batch, Inputs.size());

  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Batch);

  const char *Ext = Args.Emit == "verilog" ? ".v" : ".rasm";
  int Exit = 0;
  for (size_t I = 0; I < Items.size(); ++I) {
    const core::BatchItem &Item = Items[I];
    // The flags given name which artifacts each input writes; their
    // paths are ignored in favour of <out-dir>/<stem>.*.
    std::string Base = (std::filesystem::path(Args.OutDir) / Stems[I]).string();
    auto At = [&](const std::string &Flag, const char *Suffix) {
      return Flag.empty() ? std::string() : Base + Suffix;
    };
    ArtifactPaths Paths;
    Paths.Stats = At(Given.Stats, ".stats.json");
    Paths.Remarks = At(Given.Remarks, ".remarks.txt");
    Paths.RemarksJson = At(Given.RemarksJson, ".remarks.jsonl");
    Paths.Trace = At(Given.Trace, ".trace.json");
    Paths.Coverage = At(Given.Coverage, ".coverage.json");
    if (!Given.SnapshotDir.empty())
      Paths.SnapshotDir =
          (std::filesystem::path(Given.SnapshotDir) / Stems[I]).string();

    const core::CompileResult *R = nullptr;
    if (Item.ok()) {
      R = &Item.Outcome->value();
      if (Status S = writeFile(Base + Ext, primaryArtifactText(*R, Args.Emit));
          !S)
        return usageError(S.error());
    } else {
      compileError(pipelineErrorMessage(
          *Item.Session, Item.Name,
          Item.Outcome ? Item.Outcome->error() : "not compiled"));
      Exit = 1;
    }
    if (Status S = writeArtifacts(Paths, *Item.Session, Item.Name, R,
                                  Args.Options.Dev);
        !S)
      return usageError(S.error());
    if (R && Given.StatsTable)
      std::fprintf(stderr, "%s: ok (%.1f ms, %u LUT, %u DSP)\n",
                   Item.Name.c_str(), R->Times.TotalMs, R->Util.Luts,
                   R->Util.Dsps);
  }

  // --stats-json receives the merged summary and --coverage the union of
  // every input's bins (also embedded in the summary).
  if (!Given.Stats.empty())
    if (Status S = writeTextOutput(
            Given.Stats, core::batchStatsJson(Items, Jobs).str(2) + "\n");
        !S)
      return usageError(S.error());
  if (!Given.Coverage.empty())
    if (Status S = writeTextOutput(
            Given.Coverage,
            obs::coverageDoc("batch", core::batchCoverage(Items)).str(2) +
                "\n");
        !S)
      return usageError(S.error());
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverArgs Args;
  const std::vector<Flag> Flags = flagTable(Args);
  std::vector<const Flag *> Given;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--dump-target") {
      std::fputs(tdl::ultrascaleText().c_str(), stdout);
      return 0;
    }
    if (Arg == "--version") {
      std::printf("reticlec %s\n", RETICLE_VERSION);
      return 0;
    }
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout, Argv[0]);
      return 0;
    }
    if (Arg.empty() || Arg[0] != '-' || Arg == "-") {
      Args.Inputs.push_back(Arg);
      continue;
    }
    bool Long = Arg.rfind("--", 0) == 0;
    size_t Eq = Long ? Arg.find('=') : std::string::npos;
    std::string Name = Arg.substr(0, Eq);
    const Flag *F = nullptr;
    for (const Flag &Row : Flags)
      if (Name == Row.Name)
        F = &Row;
    // Switches take no value; long flags take theirs after '='.
    bool Known = F && (F->Switch ? Eq == std::string::npos
                                 : !Long || Eq != std::string::npos);
    if (!Known) {
      std::fprintf(stderr, "reticlec: unknown option '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
    if (F->Switch) {
      *F->Switch = true;
    } else if (!Long && ++I >= Argc) {
      return usage(Argv[0]);
    } else if (std::string Error =
                   setValue(*F, Long ? Arg.substr(Eq + 1) : Argv[I]);
               !Error.empty()) {
      return usageError(Error);
    }
    Given.push_back(F);
  }
  if (Args.Inputs.empty())
    return usage(Argv[0]);

  bool Behavioral = Args.Emit == "behavioral";
  Mode M = Behavioral ? BehavioralMode : SingleMode;
  if (!Args.RunTracePath.empty()) {
    if (Args.Inputs.size() > 1)
      return usageError("--run applies to a single input");
    if (Behavioral)
      return usageError("--run requires a pipeline emit kind "
                        "(asm, placed, verilog)");
    M = RunMode;
  } else if (Args.Inputs.size() > 1) {
    if (Behavioral)
      return usageError("--emit=behavioral applies to a single input");
    M = BatchMode;
  }
  for (const Flag *F : Given)
    if (!(F->Modes & M))
      return usageError(refusal(*F, M));
  if (!Args.ProfileSimPath.empty() && Args.SimEngine == "interp")
    return usageError("--profile-sim requires a VM engine "
                      "(--sim=vm-ir, vm-netlist, or both)");

  core::CompileOptions &Options = Args.Options;
  Options.Dev = Args.Device == "small"  ? device::Device::small()
                : Args.Device == "tiny" ? device::Device::tiny()
                                        : device::Device::xczu3eg();
  Options.Cascade = !Args.NoCascade;
  Options.Shrink = !Args.NoShrink;
  Options.SatProof = !Args.Artifacts.SatProof.empty();

  switch (M) {
  case BehavioralMode:
    return runBehavioral(Args);
  case RunMode:
    return runExecute(Args);
  case BatchMode:
    return runBatch(Args);
  default:
    return runSingle(Args);
  }
}
