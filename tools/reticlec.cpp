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
/// passes of Section 8.2, and the introspection surface: per-stage
/// program snapshots, optimization remarks, and a placement floorplan.
///
/// Usage:
///   reticlec [options] <input.ret> [<input2.ret> ...]
///     --emit=asm|placed|verilog|behavioral   artifact to print (verilog)
///     --device=xczu3eg|small|tiny            placement target (xczu3eg)
///     -O                                     run dce/fold/vectorize first
///     --no-cascade                           skip the cascade rewrite
///     --no-shrink                            skip placement shrinking
///     --sat-proof=<file|->                   DRAT-style proof log of the
///                                            placement SAT searches
///     --stats                                per-stage report on stderr
///     --stats-json=<file|->                  unified stats document
///     --trace=<file|->                       Chrome/Perfetto trace of the run
///     --dump-after-all=<dir>                 write every stage snapshot + manifest
///     --dump-after=<stage>                   print one stage's program to stderr
///                                            (parse, opt, isel, cascade, place,
///                                            codegen)
///     --remarks=<file|->                     human-readable optimization remarks
///     --remarks-json=<file|->                remarks as JSONL (reticle-remarks-v1)
///     --floorplan=<file|->                   placement floorplan; SVG by default,
///                                            ASCII for "-" or a .txt path
///     --floorplan-timeline=<file|->          shrink-probe timeline as SVG
///                                            small multiples
///     --coverage=<file|->                    coverage bins as a
///                                            reticle-coverage-v1 doc
///     --profile-folded=<file|->              collapsed-stack flamegraph fold
///                                            of the recorded tracing spans
///     --disable-pass=<name>                  skip an optional pass (opt,
///                                            cascade, timing); repeatable
///     --print-before=<name>                  print the program to stderr just
///                                            before the named pass runs
///     --dump-target                          print the UltraScale TDL
///     --version                              print the version and exit
///     -o <file>                              write output to a file
///
/// Run mode executes the compiled program instead of printing an
/// artifact: the input trace (reticle-input-trace-v1 JSON) drives the
/// reference interpreter, the bytecode VM (compiled from the source
/// program or from the generated Verilog), or all of them:
///     --run=<trace.json>                     execute over this input trace
///     --cycles=N                             simulate only the first N cycles
///     --sim=interp|vm-ir|vm-netlist|both     engine selection (both)
///     --vcd=<file|->                         waveform as standard VCD
///     --wave-json=<file|->                   waveform as reticle-wave-v1 JSONL
///     --dump-sim-program=<file|->            compiled sim bytecode, as
///                                            reticle-sim-program-v1 text
///     --profile-sim=<file|->                 per-op VM execution profile as
///                                            a reticle-profile-v1 doc
///                                            (requires a VM engine; in
///                                            --sim=both mode profiles vm-ir)
/// Waveforms and sim profiles flush even when a run aborts
/// mid-simulation. --sim=both runs all three engines and exits 1 on
/// the first divergence of a VM engine from the interpreter (vm-ir vs
/// interp, then vm-netlist vs interp). With --run, --coverage
/// additionally carries sim.toggle bins: per-signal-bit 0->1/1->0
/// transitions replayed from the captured waveforms of every engine that
/// ran.
///
/// With more than one input the driver switches to batch mode and
/// compiles every program concurrently, one CompileSession per input:
///     --jobs=N                               worker threads (default: cores)
///     --out-dir=<dir>                        per-input artifacts land here (.)
/// Each input <stem>.ret produces <out-dir>/<stem>.v (or .rasm), plus —
/// when the corresponding flag is given — <stem>.stats.json,
/// <stem>.remarks.txt, <stem>.remarks.jsonl, <stem>.trace.json,
/// <stem>.coverage.json, and a <stem>/ snapshot directory under the
/// --dump-after-all directory. The --coverage path receives the batch
/// coverage union (also embedded in the summary's "coverage" key). The
/// --stats-json path then receives the merged "reticle-batch-v1" summary
/// (the per-input file paths of --remarks/--remarks-json/--trace are
/// ignored; presence of the flag enables the per-input artifact).
/// Single-input flags (-o, --dump-after, --floorplan,
/// --floorplan-timeline, --print-before, --emit=behavioral) are rejected
/// in batch mode.
///
/// Remarks and traces are flushed even when a compile fails: a failed
/// placement's `sat:core` remarks are precisely the output that explains
/// the failure.
///
/// Exit codes: 0 success, 1 an input failed to parse or compile, 2 the
/// invocation itself was wrong (unknown flag or value, missing input,
/// unreadable input file, unwritable output file).
///
//===----------------------------------------------------------------------===//

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Pipeline.h"
#include "core/Session.h"
#include "core/Stats.h"
#include "interp/Interp.h"
#include "interp/TraceIo.h"
#include "interp/Wave.h"
#include "ir/Parser.h"
#include "obs/Coverage.h"
#include "obs/Remarks.h"
#include "obs/Report.h"
#include "obs/Snapshots.h"
#include "obs/Telemetry.h"
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

constexpr const char *EmitChoices = "asm, placed, verilog, behavioral";
constexpr const char *DeviceChoices = "xczu3eg, small, tiny";
constexpr const char *StageChoices =
    "parse, opt, isel, cascade, place, codegen";
constexpr const char *PassChoices =
    "parse, opt, isel, cascade, place, codegen, timing";
constexpr const char *DisableablePasses = "opt, cascade, timing";

/// The complete flag inventory, one entry per flag the argument parser
/// accepts. usage() renders it (and the --help e2e test asserts every
/// accepted flag appears), so a flag added to main() without a row here
/// is a test failure, not silent doc rot.
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
      "  --disable-pass=<name>                  skip an optional pass "
      "(repeatable)\n"
      "  --print-before=<name>                  print the program before a "
      "pass\n"
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
      "  --floorplan-timeline=<file|->          shrink-probe timeline SVG\n"
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

/// An input program failed to parse or compile.
int compileError(const std::string &Message) {
  std::fprintf(stderr, "reticlec: error: %s\n", Message.c_str());
  return 1;
}

/// Parses a numeric flag value: decimal digits only (no sign, no blanks),
/// the whole value consumed, and within [Min, Max].
std::optional<uint64_t> parseCount(std::string_view Value, uint64_t Min,
                                   uint64_t Max) {
  uint64_t N = 0;
  const char *End = Value.data() + Value.size();
  auto [Ptr, Ec] = std::from_chars(Value.data(), End, N);
  if (Ec != std::errc() || Ptr != End || N < Min || N > Max)
    return std::nullopt;
  return N;
}

bool isKnownStage(const std::string &Stage) {
  return Stage == "parse" || Stage == "opt" || Stage == "isel" ||
         Stage == "cascade" || Stage == "place" || Stage == "codegen";
}

bool isKnownPass(const std::string &Name) {
  for (const std::string &P : core::pipelinePassNames())
    if (P == Name)
      return true;
  return false;
}

bool endsWith(const std::string &Text, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return Text.size() >= N &&
         Text.compare(Text.size() - N, N, Suffix) == 0;
}

/// Writes \p Text to \p Path, or to stdout when \p Path is "-".
Status writeTextOutput(const std::string &Path, const std::string &Text) {
  if (Path == "-") {
    std::fputs(Text.c_str(), stdout);
    return Status::success();
  }
  std::ofstream Out(Path);
  if (!Out)
    return Status::failure("cannot write '" + Path + "'");
  Out << Text;
  return Status::success();
}

/// Writes the standalone `reticle-coverage-v1` document for \p Program
/// over the bins in \p Spaces to \p Path ("-" streams to stdout); a no-op
/// when no --coverage path was given.
Status writeCoverage(const std::string &Path, const std::string &Program,
                     const obs::CoverageSnapshot &Spaces) {
  if (Path.empty())
    return Status::success();
  return writeTextOutput(Path, obs::coverageDoc(Program, Spaces).str(2) + "\n");
}

/// Everything parsed from the command line.
struct DriverArgs {
  std::string Emit = "verilog";
  std::vector<std::string> Inputs;
  std::string OutputPath;
  std::string StatsJsonPath;
  std::string TracePath;
  std::string DumpDir;
  std::string DumpStage;
  std::string RemarksPath;
  std::string RemarksJsonPath;
  std::string FloorplanPath;
  std::string FloorplanTimelinePath;
  std::string OutDir = ".";
  std::string SatProofPath;
  unsigned Jobs = 0;
  bool Stats = false;
  core::CompileOptions Options;
  std::string RunTracePath;
  std::string SimEngine = "both";
  std::string VcdPath;
  std::string WaveJsonPath;
  std::string DumpSimProgramPath;
  std::string CoveragePath;
  std::string ProfileSimPath;
  std::string ProfileFoldedPath;
  uint64_t Cycles = 0;
  bool CyclesSet = false;
  bool SimSet = false;
};

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

/// Compiles one input inside its own session. This is the whole
/// single-input driver minus argument parsing.
int runSingle(const DriverArgs &Args) {
  const std::string &InputPath = Args.Inputs.front();
  std::ifstream In(InputPath);
  if (!In)
    return usageError("cannot open '" + InputPath + "'");
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  if (Args.Emit == "behavioral") {
    // The behavioral translation bypasses the Figure-7 pipeline: parse
    // and optimize by hand, then emit.
    Result<ir::Function> Fn = ir::parseFunction(Buffer.str());
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
      if (Args.Stats)
        std::fprintf(stderr,
                     "opt: folded %u, removed %u dead, formed %u vector "
                     "op(s)\n",
                     Folded, Dead, Vectors);
    }
    std::string Output =
        synth::emitBehavioral(Fn.value(), synth::Mode::Hint).str();
    if (Args.OutputPath.empty()) {
      std::fputs(Output.c_str(), stdout);
      return 0;
    }
    if (Status S = writeTextOutput(Args.OutputPath, Output); !S)
      return usageError(S.error());
    return 0;
  }

  core::CompileSession Session;
  if (!Args.TracePath.empty() || !Args.ProfileFoldedPath.empty())
    Session.telemetry().enableTracing();
  if (!Args.RemarksPath.empty() || !Args.RemarksJsonPath.empty())
    Session.remarks().enable();
  bool WantSnapshots = !Args.DumpDir.empty() || !Args.DumpStage.empty();
  if (WantSnapshots)
    Session.captureSnapshots();

  Result<core::CompileResult> R =
      core::compileSource(Buffer.str(), InputPath, Args.Options, Session);

  // Remarks and traces flush whether or not the compile succeeded: when a
  // placement is infeasible, the sat:core remarks naming the binding
  // constraints are the whole point of asking for remarks.
  auto FlushDiagnostics = [&]() -> Status {
    if (!Args.RemarksPath.empty()) {
      if (Args.RemarksPath == "-") {
        std::fputs(Session.remarks().text().c_str(), stdout);
      } else if (Status S = Session.remarks().writeText(Args.RemarksPath);
                 !S) {
        return S;
      }
    }
    if (!Args.RemarksJsonPath.empty()) {
      if (Args.RemarksJsonPath == "-") {
        std::fputs(Session.remarks().jsonl(InputPath).c_str(), stdout);
      } else if (Status S = Session.remarks().writeJsonl(
                     Args.RemarksJsonPath, InputPath);
                 !S) {
        return S;
      }
    }
    if (!Args.TracePath.empty()) {
      if (Args.TracePath == "-") {
        std::fputs((Session.telemetry().traceJson() + "\n").c_str(), stdout);
      } else if (Status S = Session.telemetry().writeTrace(Args.TracePath);
                 !S) {
        return S;
      }
    }
    // The flamegraph fold flushes like the raw trace does: the spans of
    // a failed compile are exactly what explains where it spent time.
    if (!Args.ProfileFoldedPath.empty())
      if (Status S = writeTextOutput(Args.ProfileFoldedPath,
                                     Session.telemetry().foldedStacks());
          !S)
        return S;
    // Coverage flushes like remarks do: a failed compile still reports
    // the bins the stages it passed through recorded.
    if (Status S = writeCoverage(Args.CoveragePath, InputPath,
                                 Session.coverage().snapshot());
        !S)
      return S;
    return Status::success();
  };

  if (!R) {
    if (Status S = FlushDiagnostics(); !S)
      std::fprintf(stderr, "reticlec: error: %s\n", S.error().c_str());
    return compileError(pipelineErrorMessage(Session, InputPath, R.error()));
  }

  if (Args.Options.Optimize && Args.Stats)
    std::fprintf(stderr,
                 "opt: folded %u, removed %u dead, formed %u vector "
                 "op(s)\n",
                 R.value().Opt.Folded, R.value().Opt.Dead,
                 R.value().Opt.Vectorized);

  std::string Output = primaryArtifactText(R.value(), Args.Emit);

  obs::Json Doc = core::statsJson(R.value(), InputPath, Session.context());
  if (Args.Stats)
    obs::printTable(Doc, stderr);
  if (!Args.StatsJsonPath.empty()) {
    if (Args.StatsJsonPath == "-") {
      std::fputs((Doc.str(2) + "\n").c_str(), stdout);
    } else if (Status S = obs::writeJsonFile(Doc, Args.StatsJsonPath); !S) {
      return usageError(S.error());
    }
  }

  if (!Args.DumpDir.empty())
    if (Status S =
            obs::writeSnapshots(Session.snapshots(), Args.DumpDir, InputPath);
        !S)
      return usageError(S.error());
  if (!Args.DumpStage.empty()) {
    const obs::StageSnapshot *Snap =
        Session.snapshots().find(Args.DumpStage);
    if (!Snap)
      return compileError("no snapshot recorded for stage '" +
                          Args.DumpStage + "'");
    std::fprintf(stderr, "; after %s\n", Snap->Stage.c_str());
    std::fputs(Snap->Text.c_str(), stderr);
  }

  if (!Args.FloorplanPath.empty()) {
    bool Ascii =
        Args.FloorplanPath == "-" || endsWith(Args.FloorplanPath, ".txt");
    std::string Plan =
        Ascii ? place::floorplanAscii(R.value().Placed, Args.Options.Dev)
              : place::floorplanSvg(R.value().Placed, Args.Options.Dev);
    if (Status S = writeTextOutput(Args.FloorplanPath, Plan); !S)
      return usageError(S.error());
  }
  if (!Args.FloorplanTimelinePath.empty()) {
    std::string Plan = place::floorplanTimelineSvg(
        R.value().Placed, Args.Options.Dev, R.value().PlaceStats);
    if (Status S = writeTextOutput(Args.FloorplanTimelinePath, Plan); !S)
      return usageError(S.error());
  }

  // The proof log flushes with the other artifacts: DIMACS-notation learnt
  // additions/deletions, one `c`-delimited section per placement solve.
  if (!Args.SatProofPath.empty())
    if (Status S = writeTextOutput(Args.SatProofPath, R.value().SatProof);
        !S)
      return usageError(S.error());

  if (Status S = FlushDiagnostics(); !S)
    return usageError(S.error());

  if (Args.OutputPath.empty()) {
    std::fputs(Output.c_str(), stdout);
    return 0;
  }
  std::ofstream Out(Args.OutputPath);
  if (!Out)
    return usageError("cannot write '" + Args.OutputPath + "'");
  Out << Output;
  return 0;
}

/// Compiles one input, then executes it over the --run input trace with
/// the selected engine(s), streaming waveforms and checking both engines
/// against each other in --sim=both mode.
int runExecute(const DriverArgs &Args) {
  const std::string &InputPath = Args.Inputs.front();
  std::ifstream In(InputPath);
  if (!In)
    return usageError("cannot open '" + InputPath + "'");
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Source = Buffer.str();

  std::ifstream TraceIn(Args.RunTracePath);
  if (!TraceIn)
    return usageError("cannot open '" + Args.RunTracePath + "'");
  std::stringstream TraceBuffer;
  TraceBuffer << TraceIn.rdbuf();

  core::CompileSession Session;
  if (!Args.TracePath.empty() || !Args.ProfileFoldedPath.empty())
    Session.telemetry().enableTracing();
  if (!Args.RemarksPath.empty() || !Args.RemarksJsonPath.empty())
    Session.remarks().enable();

  Result<core::CompileResult> R =
      core::compileSource(Source, InputPath, Args.Options, Session);

  // Remarks and traces flush whether or not the compile or the
  // simulation succeeded, mirroring runSingle.
  auto FlushDiagnostics = [&]() -> Status {
    if (!Args.RemarksPath.empty()) {
      if (Args.RemarksPath == "-") {
        std::fputs(Session.remarks().text().c_str(), stdout);
      } else if (Status S = Session.remarks().writeText(Args.RemarksPath);
                 !S) {
        return S;
      }
    }
    if (!Args.RemarksJsonPath.empty()) {
      if (Args.RemarksJsonPath == "-") {
        std::fputs(Session.remarks().jsonl(InputPath).c_str(), stdout);
      } else if (Status S = Session.remarks().writeJsonl(
                     Args.RemarksJsonPath, InputPath);
                 !S) {
        return S;
      }
    }
    if (!Args.TracePath.empty()) {
      if (Args.TracePath == "-") {
        std::fputs((Session.telemetry().traceJson() + "\n").c_str(), stdout);
      } else if (Status S = Session.telemetry().writeTrace(Args.TracePath);
                 !S) {
        return S;
      }
    }
    // The flamegraph fold flushes like the raw trace does, aborted runs
    // included.
    if (!Args.ProfileFoldedPath.empty())
      if (Status S = writeTextOutput(Args.ProfileFoldedPath,
                                     Session.telemetry().foldedStacks());
          !S)
        return S;
    // Coverage flushes like remarks do; after a completed run it also
    // carries the sim.toggle bins the replay below recorded.
    if (Status S = writeCoverage(Args.CoveragePath, InputPath,
                                 Session.coverage().snapshot());
        !S)
      return S;
    return Status::success();
  };

  if (!R) {
    if (Status S = FlushDiagnostics(); !S)
      std::fprintf(stderr, "reticlec: error: %s\n", S.error().c_str());
    return compileError(pipelineErrorMessage(Session, InputPath, R.error()));
  }

  // The interpreter and vm-ir execute the source program; vm-netlist
  // executes the compiled structural Verilog.
  Result<ir::Function> Fn = ir::parseFunction(Source);
  if (!Fn)
    return compileError(InputPath + ": " + Fn.error());

  Result<interp::Trace> InputTrace =
      sim::parseInputTrace(TraceBuffer.str(), Fn.value());
  if (!InputTrace) {
    if (Status S = FlushDiagnostics(); !S)
      std::fprintf(stderr, "reticlec: error: %s\n", S.error().c_str());
    return compileError(Args.RunTracePath + ": " + InputTrace.error());
  }
  interp::Trace Drive = InputTrace.take();
  if (Args.CyclesSet) {
    if (Args.Cycles > Drive.size())
      return compileError(Args.RunTracePath + ": trace has " +
                          std::to_string(Drive.size()) +
                          " cycle(s), --cycles=" +
                          std::to_string(Args.Cycles) + " requested");
    Drive.steps().resize(Args.Cycles);
  }

  bool Both = Args.SimEngine == "both";
  bool RunInterp = Both || Args.SimEngine == "interp";
  bool RunVmIr = Both || Args.SimEngine == "vm-ir";
  bool RunVmNetlist = Both || Args.SimEngine == "vm-netlist";
  bool WantWave = !Args.VcdPath.empty() || !Args.WaveJsonPath.empty();
  // Toggle coverage replays the same captures the waveform writers use,
  // so a coverage or stats request keeps the captures alive too.
  bool WantCoverage =
      !Args.CoveragePath.empty() || !Args.StatsJsonPath.empty();
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
      return compileError("vm-ir: " + IrProgram.error());
    if (!NetProgram)
      return compileError("vm-netlist: " + NetProgram.error());
    std::string Text = sim::disassemble(IrProgram.value()) +
                       sim::disassemble(NetProgram.value());
    if (Status S = writeTextOutput(Args.DumpSimProgramPath, Text); !S)
      return usageError(S.error());
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
  if (RunVmIr)
    VmIrOut = !IrProgram ? fail<interp::Trace>(IrProgram.error())
              : ProfileIr
                  ? sim::execute(IrProgram.value(), Drive, Profile,
                                 Capture ? &VmIrWave : nullptr,
                                 Session.context())
                  : sim::execute(IrProgram.value(), Drive,
                                 Capture ? &VmIrWave : nullptr,
                                 Session.context());
  if (RunVmNetlist)
    VmNetlistOut = !NetProgram
                       ? fail<interp::Trace>(NetProgram.error())
                   : ProfileNet
                       ? sim::execute(NetProgram.value(), Drive, Profile,
                                      Capture ? &VmNetlistWave : nullptr,
                                      Session.context())
                       : sim::execute(NetProgram.value(), Drive,
                                      Capture ? &VmNetlistWave : nullptr,
                                      Session.context());

  // The sim profile flushes before the engine-failure checks below, so an
  // aborted run still reports the ops it retired (Aborted marked true).
  if (ProfileIr || ProfileNet) {
    const Result<sim::Program> &Prog = ProfileIr ? IrProgram : NetProgram;
    if (Prog)
      if (Status S = writeTextOutput(
              Args.ProfileSimPath,
              sim::profileJson(Prog.value(), Profile).str(2) + "\n");
          !S)
        return usageError(S.error());
  }

  auto CaptureSources =
      [&]() -> std::vector<std::pair<const sim::WaveCapture *, std::string>> {
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
    return Sources;
  };

  // Dynamic toggle coverage: replay the captured run(s) — complete or
  // aborted — into the session's coverage registry as per-signal-bit
  // 0->1 / 1->0 bins, per-engine-prefixed in --sim=both mode. The stats
  // document and the --coverage doc render afterwards, so both see the
  // sim.toggle space.
  if (Capture) {
    sim::ToggleCoverageSink Toggles(Session.coverage());
    if (Status S = sim::replay(CaptureSources(), Toggles); !S)
      return compileError(S.error());
  }

  // Waveforms are written from the in-memory captures after the run —
  // including aborted runs, whose partial captures replay with the
  // aborted marker so the artifacts stay parseable.
  auto WriteWaves = [&]() -> Status {
    if (!WantWave)
      return Status::success();
    std::vector<std::pair<const sim::WaveCapture *, std::string>> Sources =
        CaptureSources();
    std::string Top = std::filesystem::path(InputPath).stem().string();
    if (Top.empty())
      Top = "reticle";
    if (!Args.VcdPath.empty()) {
      sim::VcdWriter Vcd(Top);
      if (Status S = sim::replay(Sources, Vcd); !S)
        return S;
      if (Status S = writeTextOutput(Args.VcdPath, Vcd.text()); !S)
        return S;
    }
    if (!Args.WaveJsonPath.empty()) {
      sim::WaveJsonWriter Wj(Top, Args.SimEngine.c_str());
      if (Status S = sim::replay(Sources, Wj); !S)
        return S;
      if (Status S = writeTextOutput(Args.WaveJsonPath, Wj.text()); !S)
        return S;
    }
    return Status::success();
  };
  if (Status S = WriteWaves(); !S)
    return usageError(S.error());

  // Stats render after the run so the sim.* counters are populated.
  obs::Json Doc = core::statsJson(R.value(), InputPath, Session.context());
  if (Args.Stats)
    obs::printTable(Doc, stderr);
  if (!Args.StatsJsonPath.empty()) {
    if (Args.StatsJsonPath == "-") {
      std::fputs((Doc.str(2) + "\n").c_str(), stdout);
    } else if (Status S = obs::writeJsonFile(Doc, Args.StatsJsonPath); !S) {
      return usageError(S.error());
    }
  }

  if (Status S = FlushDiagnostics(); !S)
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
  for (const auto &[Flag, Value] :
       {std::pair<const char *, const std::string *>{"-o", &Args.OutputPath},
        {"--dump-after", &Args.DumpStage},
        {"--floorplan", &Args.FloorplanPath},
        {"--floorplan-timeline", &Args.FloorplanTimelinePath},
        {"--profile-folded", &Args.ProfileFoldedPath},
        {"--sat-proof", &Args.SatProofPath},
        {"--print-before", &Args.Options.PrintBefore}})
    if (!Value->empty())
      return usageError(std::string(Flag) +
                        " applies to a single input; with several inputs "
                        "use --out-dir");
  if (Args.Emit == "behavioral")
    return usageError("--emit=behavioral applies to a single input");

  // Read every input up front, and derive a unique artifact stem per
  // input from its file name.
  std::vector<core::BatchInput> Inputs;
  std::vector<std::string> Stems;
  std::set<std::string> SeenStems;
  for (const std::string &Path : Args.Inputs) {
    std::ifstream In(Path);
    if (!In)
      return usageError("cannot open '" + Path + "'");
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Inputs.push_back({Path, Buffer.str()});
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

  core::BatchOptions Batch;
  Batch.Options = Args.Options;
  Batch.Jobs = Args.Jobs;
  Batch.CaptureSnapshots = !Args.DumpDir.empty();
  Batch.EnableRemarks =
      !Args.RemarksPath.empty() || !Args.RemarksJsonPath.empty();
  Batch.EnableTracing = !Args.TracePath.empty();
  unsigned Jobs = core::batchJobCount(Batch, Inputs.size());

  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Batch);

  const char *Ext = Args.Emit == "verilog" ? ".v" : ".rasm";
  int Exit = 0;
  for (size_t I = 0; I < Items.size(); ++I) {
    const core::BatchItem &Item = Items[I];
    std::filesystem::path Base =
        std::filesystem::path(Args.OutDir) / Stems[I];
    if (!Item.ok()) {
      std::string Error =
          Item.Outcome ? Item.Outcome->error() : std::string("not compiled");
      compileError(pipelineErrorMessage(*Item.Session, Item.Name, Error));
      // A failed item still flushes its remarks and trace — the sat:core
      // remarks of an infeasible placement land there.
      if (!Args.RemarksPath.empty())
        if (Status S = Item.Session->remarks().writeText(Base.string() +
                                                         ".remarks.txt");
            !S)
          return usageError(S.error());
      if (!Args.RemarksJsonPath.empty())
        if (Status S = Item.Session->remarks().writeJsonl(
                Base.string() + ".remarks.jsonl", Item.Name);
            !S)
          return usageError(S.error());
      if (!Args.TracePath.empty())
        if (Status S = Item.Session->telemetry().writeTrace(
                Base.string() + ".trace.json");
            !S)
          return usageError(S.error());
      if (!Args.CoveragePath.empty())
        if (Status S = writeCoverage(Base.string() + ".coverage.json",
                                     Item.Name,
                                     Item.Session->coverage().snapshot());
            !S)
          return usageError(S.error());
      Exit = 1;
      continue;
    }
    const core::CompileResult &R = Item.Outcome->value();
    if (Status S = writeTextOutput(Base.string() + Ext,
                                   primaryArtifactText(R, Args.Emit));
        !S)
      return usageError(S.error());
    if (!Args.StatsJsonPath.empty()) {
      obs::Json Doc =
          core::statsJson(R, Item.Name, Item.Session->context());
      if (Status S = obs::writeJsonFile(Doc, Base.string() + ".stats.json");
          !S)
        return usageError(S.error());
    }
    if (!Args.RemarksPath.empty())
      if (Status S =
              Item.Session->remarks().writeText(Base.string() +
                                                ".remarks.txt");
          !S)
        return usageError(S.error());
    if (!Args.RemarksJsonPath.empty())
      if (Status S = Item.Session->remarks().writeJsonl(
              Base.string() + ".remarks.jsonl", Item.Name);
          !S)
        return usageError(S.error());
    if (!Args.TracePath.empty())
      if (Status S = Item.Session->telemetry().writeTrace(Base.string() +
                                                          ".trace.json");
          !S)
        return usageError(S.error());
    if (!Args.CoveragePath.empty())
      if (Status S = writeCoverage(Base.string() + ".coverage.json",
                                   Item.Name,
                                   Item.Session->coverage().snapshot());
          !S)
        return usageError(S.error());
    if (!Args.DumpDir.empty()) {
      std::filesystem::path StageDir =
          std::filesystem::path(Args.DumpDir) / Stems[I];
      if (Status S = obs::writeSnapshots(Item.Session->snapshots(),
                                         StageDir.string(), Item.Name);
          !S)
        return usageError(S.error());
    }
    if (Args.Stats)
      std::fprintf(stderr, "%s: ok (%.1f ms, %u LUT, %u DSP)\n",
                   Item.Name.c_str(), R.Times.TotalMs, R.Util.Luts,
                   R.Util.Dsps);
  }

  if (!Args.StatsJsonPath.empty()) {
    obs::Json Summary = core::batchStatsJson(Items, Jobs);
    if (Args.StatsJsonPath == "-") {
      std::fputs((Summary.str(2) + "\n").c_str(), stdout);
    } else if (Status S = obs::writeJsonFile(Summary, Args.StatsJsonPath);
               !S) {
      return usageError(S.error());
    }
  }
  // The --coverage path receives the batch union (per-input docs landed
  // next to the other per-input artifacts above), mirroring how
  // --stats-json holds the merged summary in batch mode.
  if (Status S =
          writeCoverage(Args.CoveragePath, "batch", core::batchCoverage(Items));
      !S)
    return usageError(S.error());
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverArgs Args;
  std::string DeviceName = "xczu3eg";

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
    if (Arg.rfind("--emit=", 0) == 0) {
      Args.Emit = Arg.substr(7);
    } else if (Arg.rfind("--device=", 0) == 0) {
      DeviceName = Arg.substr(9);
    } else if (Arg.rfind("--stats-json=", 0) == 0) {
      Args.StatsJsonPath = Arg.substr(13);
      if (Args.StatsJsonPath.empty())
        return usageError("--stats-json= requires a file path or '-'");
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Args.TracePath = Arg.substr(8);
      if (Args.TracePath.empty())
        return usageError("--trace= requires a file path or '-'");
    } else if (Arg.rfind("--dump-after-all=", 0) == 0) {
      Args.DumpDir = Arg.substr(17);
      if (Args.DumpDir.empty())
        return usageError("--dump-after-all= requires a directory");
    } else if (Arg.rfind("--dump-after=", 0) == 0) {
      Args.DumpStage = Arg.substr(13);
      if (!isKnownStage(Args.DumpStage))
        return usageError("unknown stage '" + Args.DumpStage +
                          "' (valid: " + std::string(StageChoices) + ")");
    } else if (Arg.rfind("--remarks=", 0) == 0) {
      Args.RemarksPath = Arg.substr(10);
      if (Args.RemarksPath.empty())
        return usageError("--remarks= requires a file path or '-'");
    } else if (Arg.rfind("--remarks-json=", 0) == 0) {
      Args.RemarksJsonPath = Arg.substr(15);
      if (Args.RemarksJsonPath.empty())
        return usageError("--remarks-json= requires a file path or '-'");
    } else if (Arg.rfind("--floorplan=", 0) == 0) {
      Args.FloorplanPath = Arg.substr(12);
      if (Args.FloorplanPath.empty())
        return usageError("--floorplan= requires a file path or '-'");
    } else if (Arg.rfind("--floorplan-timeline=", 0) == 0) {
      Args.FloorplanTimelinePath = Arg.substr(21);
      if (Args.FloorplanTimelinePath.empty())
        return usageError("--floorplan-timeline= requires a file path or "
                          "'-'");
    } else if (Arg.rfind("--disable-pass=", 0) == 0) {
      std::string Name = Arg.substr(15);
      if (!isKnownPass(Name))
        return usageError("unknown pass '" + Name +
                          "' (valid: " + std::string(PassChoices) + ")");
      if (!core::isPassDisableable(Name))
        return usageError("pass '" + Name +
                          "' cannot be disabled (disableable: " +
                          std::string(DisableablePasses) + ")");
      if (!Args.Options.isPassDisabled(Name))
        Args.Options.DisabledPasses.push_back(Name);
    } else if (Arg.rfind("--print-before=", 0) == 0) {
      std::string Name = Arg.substr(15);
      if (!isKnownPass(Name))
        return usageError("unknown pass '" + Name +
                          "' (valid: " + std::string(PassChoices) + ")");
      Args.Options.PrintBefore = Name;
    } else if (Arg.rfind("--run=", 0) == 0) {
      Args.RunTracePath = Arg.substr(6);
      if (Args.RunTracePath.empty())
        return usageError("--run= requires an input-trace file");
    } else if (Arg.rfind("--cycles=", 0) == 0) {
      std::optional<uint64_t> N =
          parseCount(std::string_view(Arg).substr(9), 0, UINT64_MAX);
      if (!N)
        return usageError("--cycles= requires a cycle count");
      Args.Cycles = *N;
      Args.CyclesSet = true;
    } else if (Arg.rfind("--sim=", 0) == 0) {
      Args.SimEngine = Arg.substr(6);
      Args.SimSet = true;
      if (Args.SimEngine != "interp" && Args.SimEngine != "vm-ir" &&
          Args.SimEngine != "vm-netlist" && Args.SimEngine != "both")
        return usageError("unknown --sim engine '" + Args.SimEngine +
                          "' (valid: interp, vm-ir, vm-netlist, both)");
    } else if (Arg.rfind("--vcd=", 0) == 0) {
      Args.VcdPath = Arg.substr(6);
      if (Args.VcdPath.empty())
        return usageError("--vcd= requires a file path or '-'");
    } else if (Arg.rfind("--wave-json=", 0) == 0) {
      Args.WaveJsonPath = Arg.substr(12);
      if (Args.WaveJsonPath.empty())
        return usageError("--wave-json= requires a file path or '-'");
    } else if (Arg.rfind("--dump-sim-program=", 0) == 0) {
      Args.DumpSimProgramPath = Arg.substr(19);
      if (Args.DumpSimProgramPath.empty())
        return usageError("--dump-sim-program= requires a file path or '-'");
    } else if (Arg.rfind("--coverage=", 0) == 0) {
      Args.CoveragePath = Arg.substr(11);
      if (Args.CoveragePath.empty())
        return usageError("--coverage= requires a file path or '-'");
    } else if (Arg.rfind("--profile-sim=", 0) == 0) {
      Args.ProfileSimPath = Arg.substr(14);
      if (Args.ProfileSimPath.empty())
        return usageError("--profile-sim= requires a file path or '-'");
    } else if (Arg.rfind("--profile-folded=", 0) == 0) {
      Args.ProfileFoldedPath = Arg.substr(17);
      if (Args.ProfileFoldedPath.empty())
        return usageError("--profile-folded= requires a file path or '-'");
    } else if (Arg.rfind("--sat-proof=", 0) == 0) {
      Args.SatProofPath = Arg.substr(12);
      if (Args.SatProofPath.empty())
        return usageError("--sat-proof= requires a file path or '-'");
      Args.Options.SatProof = true;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      std::optional<uint64_t> Jobs =
          parseCount(std::string_view(Arg).substr(7), 1, 1024);
      if (!Jobs)
        return usageError("--jobs= requires a positive thread count");
      Args.Jobs = static_cast<unsigned>(*Jobs);
    } else if (Arg.rfind("--out-dir=", 0) == 0) {
      Args.OutDir = Arg.substr(10);
      if (Args.OutDir.empty())
        return usageError("--out-dir= requires a directory");
    } else if (Arg == "-O") {
      Args.Options.Optimize = true;
    } else if (Arg == "--no-cascade") {
      Args.Options.Cascade = false;
    } else if (Arg == "--no-shrink") {
      Args.Options.Shrink = false;
    } else if (Arg == "--stats") {
      Args.Stats = true;
    } else if (Arg == "-o") {
      if (++I >= Argc)
        return usage(Argv[0]);
      Args.OutputPath = Argv[I];
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "reticlec: unknown option '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    } else {
      Args.Inputs.push_back(Arg);
    }
  }
  if (Args.Inputs.empty())
    return usage(Argv[0]);

  if (Args.Emit != "asm" && Args.Emit != "placed" &&
      Args.Emit != "verilog" && Args.Emit != "behavioral")
    return usageError("unknown --emit kind '" + Args.Emit +
                      "' (valid: " + EmitChoices + ")");

  if (DeviceName == "xczu3eg")
    Args.Options.Dev = device::Device::xczu3eg();
  else if (DeviceName == "small")
    Args.Options.Dev = device::Device::small();
  else if (DeviceName == "tiny")
    Args.Options.Dev = device::Device::tiny();
  else
    return usageError("unknown --device '" + DeviceName +
                      "' (valid: " + DeviceChoices + ")");

  if (Args.Emit == "behavioral") {
    // Everything below observes the Figure-7 pipeline, which the
    // behavioral translation bypasses entirely.
    const std::pair<const char *, const std::string *> PipelineOnly[] = {
        {"--stats-json", &Args.StatsJsonPath},
        {"--dump-after-all", &Args.DumpDir},
        {"--dump-after", &Args.DumpStage},
        {"--remarks", &Args.RemarksPath},
        {"--remarks-json", &Args.RemarksJsonPath},
        {"--floorplan", &Args.FloorplanPath},
        {"--floorplan-timeline", &Args.FloorplanTimelinePath},
        {"--print-before", &Args.Options.PrintBefore},
        {"--coverage", &Args.CoveragePath},
        {"--profile-folded", &Args.ProfileFoldedPath},
        {"--sat-proof", &Args.SatProofPath},
    };
    for (const auto &[Flag, Value] : PipelineOnly)
      if (!Value->empty())
        return usageError(std::string(Flag) +
                          " requires a pipeline emit kind "
                          "(asm, placed, verilog)");
    if (!Args.Options.DisabledPasses.empty())
      return usageError("--disable-pass requires a pipeline emit kind "
                        "(asm, placed, verilog)");
  }

  if (Args.RunTracePath.empty()) {
    if (Args.CyclesSet || Args.SimSet || !Args.VcdPath.empty() ||
        !Args.WaveJsonPath.empty() || !Args.DumpSimProgramPath.empty() ||
        !Args.ProfileSimPath.empty())
      return usageError("--cycles/--sim/--vcd/--wave-json/"
                        "--dump-sim-program/--profile-sim require --run");
  } else {
    if (Args.Inputs.size() > 1)
      return usageError("--run applies to a single input");
    if (Args.Emit == "behavioral")
      return usageError("--run requires a pipeline emit kind "
                        "(asm, placed, verilog)");
    const std::pair<const char *, const std::string *> NotInRunMode[] = {
        {"-o", &Args.OutputPath},
        {"--dump-after", &Args.DumpStage},
        {"--dump-after-all", &Args.DumpDir},
        {"--floorplan", &Args.FloorplanPath},
        {"--floorplan-timeline", &Args.FloorplanTimelinePath},
        {"--sat-proof", &Args.SatProofPath},
        {"--print-before", &Args.Options.PrintBefore},
    };
    for (const auto &[Flag, Value] : NotInRunMode)
      if (!Value->empty())
        return usageError(std::string(Flag) + " does not apply with --run");
    if (!Args.ProfileSimPath.empty() && Args.SimEngine != "both" &&
        Args.SimEngine != "vm-ir" && Args.SimEngine != "vm-netlist")
      return usageError("--profile-sim requires a VM engine "
                        "(--sim=vm-ir, vm-netlist, or both)");
    return runExecute(Args);
  }

  return Args.Inputs.size() > 1 ? runBatch(Args) : runSingle(Args);
}
