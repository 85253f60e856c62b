//===- bench/BenchUtil.h - Shared benchmark harness -------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-regeneration binaries: run one program
/// through the Reticle pipeline and through the baseline toolchain in both
/// modes, and print aligned series rows. Each bench binary regenerates one
/// figure of the paper's evaluation (Section 7); EXPERIMENTS.md records
/// the measured series against the published shapes.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_BENCH_BENCHUTIL_H
#define RETICLE_BENCH_BENCHUTIL_H

#include "core/Batch.h"
#include "core/Compiler.h"
#include "device/Device.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "synth/Synth.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace reticle {
namespace bench {

/// One toolchain run reduced to the quantities the figures plot.
struct RunResult {
  bool Ok = false;
  std::string Error;
  double CompileMs = 0.0;
  double CriticalNs = 0.0;
  double FmaxMhz = 0.0;
  unsigned Luts = 0;
  unsigned Dsps = 0;
  unsigned Ffs = 0;
};

inline RunResult runReticle(const ir::Function &Fn,
                            const device::Device &Dev) {
  core::CompileOptions Options;
  Options.Dev = Dev;
  RunResult Out;
  core::CompileSession Session;
  Result<core::CompileResult> R = core::compile(Fn, Options, Session);
  if (!R) {
    Out.Error = R.error();
    return Out;
  }
  Out.Ok = true;
  Out.CompileMs = R.value().Times.TotalMs;
  Out.CriticalNs = R.value().Timing.CriticalPathNs;
  Out.FmaxMhz = R.value().Timing.FmaxMhz;
  Out.Luts = R.value().Util.Luts;
  Out.Dsps = R.value().Util.Dsps;
  Out.Ffs = R.value().Util.Ffs;
  return Out;
}

/// All of a figure's Reticle data points compiled as one batch: the
/// per-point results (from the sequential pass, so the figures stay
/// deterministic) plus the wall-clock of the same batch on one worker and
/// on the full pool.
struct BatchRun {
  std::vector<RunResult> Results;
  double SequentialMs = 0.0;
  double ParallelMs = 0.0;
  unsigned Jobs = 1;
};

inline RunResult toRunResult(const core::BatchItem &Item) {
  RunResult Out;
  if (!Item.ok()) {
    Out.Error = Item.Outcome ? Item.Outcome->error()
                             : std::string("not compiled");
    return Out;
  }
  const core::CompileResult &R = Item.Outcome->value();
  Out.Ok = true;
  Out.CompileMs = R.Times.TotalMs;
  Out.CriticalNs = R.Timing.CriticalPathNs;
  Out.FmaxMhz = R.Timing.FmaxMhz;
  Out.Luts = R.Util.Luts;
  Out.Dsps = R.Util.Dsps;
  Out.Ffs = R.Util.Ffs;
  return Out;
}

/// Compiles every (name, function) data point through core::compileBatch,
/// one CompileSession per point. The batch runs twice — once on a single
/// worker and once on the full pool — so the figure's series can record
/// the parallel speedup alongside the per-point numbers.
inline BatchRun
runReticleBatch(const std::vector<std::pair<std::string, ir::Function>> &Points,
                const device::Device &Dev) {
  std::vector<core::BatchInput> Inputs;
  Inputs.reserve(Points.size());
  for (const auto &[Name, Fn] : Points)
    Inputs.push_back({Name, Fn.str()});

  core::BatchOptions Options;
  Options.Options.Dev = Dev;
  using Clock = std::chrono::steady_clock;
  auto ElapsedMs = [](Clock::time_point Begin) {
    return std::chrono::duration<double, std::milli>(Clock::now() - Begin)
        .count();
  };

  BatchRun Out;
  Options.Jobs = 1;
  Clock::time_point SeqBegin = Clock::now();
  std::vector<core::BatchItem> SeqItems = core::compileBatch(Inputs, Options);
  Out.SequentialMs = ElapsedMs(SeqBegin);

  Options.Jobs = 0; // full pool
  Out.Jobs = core::batchJobCount(Options, Inputs.size());
  Clock::time_point ParBegin = Clock::now();
  std::vector<core::BatchItem> ParItems = core::compileBatch(Inputs, Options);
  Out.ParallelMs = ElapsedMs(ParBegin);
  (void)ParItems; // artifacts are byte-identical to the sequential run's

  Out.Results.reserve(SeqItems.size());
  for (const core::BatchItem &Item : SeqItems)
    Out.Results.push_back(toRunResult(Item));
  return Out;
}

inline RunResult runBaseline(const ir::Function &Fn, synth::Mode Mode,
                             const device::Device &Dev) {
  synth::SynthOptions Options;
  Options.SynthMode = Mode;
  Options.Dev = Dev;
  RunResult Out;
  Result<synth::SynthResult> R = synth::synthesize(Fn, Options);
  if (!R) {
    Out.Error = R.error();
    return Out;
  }
  Out.Ok = true;
  Out.CompileMs = R.value().TotalMs;
  Out.CriticalNs = R.value().Timing.CriticalPathNs;
  Out.FmaxMhz = R.value().Timing.FmaxMhz;
  Out.Luts = R.value().Luts;
  Out.Dsps = R.value().Dsps;
  Out.Ffs = R.value().Ffs;
  return Out;
}

/// Prints the standard four-panel comparison row for one size.
inline void printPanelHeader(const char *Bench) {
  std::printf("%-8s %14s %14s | %12s %12s | %8s %8s %8s | %6s %6s %6s\n",
              "size", "compspd(base)", "compspd(hint)", "runspd(base)",
              "runspd(hint)", "lut.base", "lut.hint", "lut.ret",
              "dsp.bas", "dsp.hnt", "dsp.ret");
  (void)Bench;
}

inline void printPanelRow(const std::string &Size, const RunResult &Base,
                          const RunResult &Hint, const RunResult &Ret) {
  std::printf(
      "%-8s %14.1f %14.1f | %12.2f %12.2f | %8u %8u %8u | %6u %6u %6u\n",
      Size.c_str(), Base.CompileMs / Ret.CompileMs,
      Hint.CompileMs / Ret.CompileMs, Base.CriticalNs / Ret.CriticalNs,
      Hint.CriticalNs / Ret.CriticalNs, Base.Luts, Hint.Luts, Ret.Luts,
      Base.Dsps, Hint.Dsps, Ret.Dsps);
}

/// Collects the series a figure binary prints and dumps it as
/// `BENCH_<figure>.json` ("reticle-bench-v1") in the working directory,
/// so plots regenerate from machine-readable data instead of scraped
/// stdout. EXPERIMENTS.md documents the schema alongside the figures.
class SeriesReport {
public:
  SeriesReport(std::string Figure, std::string Title)
      : Figure(std::move(Figure)), Title(std::move(Title)) {}

  void add(const std::string &Size, const std::string &Toolchain,
           const RunResult &R) {
    obs::Json Row = obs::Json::object();
    Row.set("size", Size);
    Row.set("toolchain", Toolchain);
    Row.set("ok", R.Ok);
    if (!R.Ok) {
      Row.set("error", R.Error);
    } else {
      Row.set("compile_ms", R.CompileMs);
      Row.set("critical_ns", R.CriticalNs);
      Row.set("fmax_mhz", R.FmaxMhz);
      Row.set("luts", R.Luts);
      Row.set("dsps", R.Dsps);
      Row.set("ffs", R.Ffs);
    }
    Rows.push(std::move(Row));
  }

  /// Convenience for ablation-style rows taken straight off a pipeline
  /// compile rather than a RunResult.
  void addCompile(const std::string &Size, const std::string &Toolchain,
                  const core::CompileResult &R) {
    RunResult Run;
    Run.Ok = true;
    Run.CompileMs = R.Times.TotalMs;
    Run.CriticalNs = R.Timing.CriticalPathNs;
    Run.FmaxMhz = R.Timing.FmaxMhz;
    Run.Luts = R.Util.Luts;
    Run.Dsps = R.Util.Dsps;
    Run.Ffs = R.Util.Ffs;
    add(Size, Toolchain, Run);
  }

  /// Records the batch harness timings (see runReticleBatch) so the
  /// series carries the parallel-vs-sequential comparison.
  void setBatch(const BatchRun &Batch) {
    obs::Json B = obs::Json::object();
    B.set("sequential_ms", Batch.SequentialMs);
    B.set("parallel_ms", Batch.ParallelMs);
    B.set("jobs", static_cast<uint64_t>(Batch.Jobs));
    BatchTiming = std::move(B);
    HasBatch = true;
  }

  /// Writes `BENCH_<figure>.json`; warns (without failing the figure's
  /// shape checks) when the file cannot be written.
  bool write() {
    obs::Json Doc = obs::Json::object();
    Doc.set("schema", "reticle-bench-v1");
    Doc.set("figure", Figure);
    Doc.set("title", Title);
    Doc.set("series", Rows);
    if (HasBatch)
      Doc.set("batch", BatchTiming);
    std::string Path = "BENCH_" + Figure + ".json";
    if (Status S = obs::writeJsonFile(Doc, Path); !S) {
      std::fprintf(stderr, "warning: %s\n", S.error().c_str());
      return false;
    }
    std::printf("\nwrote %s\n", Path.c_str());
    return true;
  }

private:
  std::string Figure, Title;
  obs::Json Rows = obs::Json::array();
  obs::Json BatchTiming = obs::Json::object();
  bool HasBatch = false;
};

/// Prints the raw per-toolchain detail line (compile time, fmax).
inline void printDetail(const std::string &Size, const char *Lang,
                        const RunResult &R) {
  if (!R.Ok) {
    std::printf("  %-8s %-8s FAILED: %s\n", Size.c_str(), Lang,
                R.Error.c_str());
    return;
  }
  std::printf("  %-8s %-8s compile %9.1f ms   critical %6.2f ns   "
              "fmax %7.1f MHz   luts %6u   dsps %4u   ffs %6u\n",
              Size.c_str(), Lang, R.CompileMs, R.CriticalNs, R.FmaxMhz,
              R.Luts, R.Dsps, R.Ffs);
}

} // namespace bench
} // namespace reticle

#endif // RETICLE_BENCH_BENCHUTIL_H
