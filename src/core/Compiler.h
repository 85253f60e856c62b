//===- core/Compiler.h - The Reticle compiler driver ------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Reticle compiler (Figure 7): intermediate program ->
/// instruction selection -> layout optimization (cascading) -> instruction
/// placement -> structural Verilog with layout annotations. Routing and
/// bitstream generation remain with vendor tools, exactly as in the paper.
///
/// Compilation runs as a core::Pipeline of named passes inside the
/// core::CompileSession its caller passes (see Pipeline.h, Session.h);
/// concurrent compiles each pass their own (see Batch.h).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CORE_COMPILER_H
#define RETICLE_CORE_COMPILER_H

#include "codegen/Codegen.h"
#include "device/Device.h"
#include "ir/Function.h"
#include "isel/Cascade.h"
#include "isel/Select.h"
#include "place/Place.h"
#include "rasm/Asm.h"
#include "support/Result.h"
#include "tdl/Target.h"
#include "timing/Timing.h"
#include "verilog/Ast.h"

#include <string>
#include <string_view>

namespace reticle {
namespace core {

class CompileSession;

/// Pipeline configuration.
struct CompileOptions {
  /// Target description; null selects the built-in UltraScale-like family.
  const tdl::Target *Target = nullptr;
  /// Device to place for; defaults to the paper's xczu3eg.
  device::Device Dev = device::Device::xczu3eg();
  /// Run the front-end passes of Section 8.2 (fold, dce, vectorize)
  /// before selection.
  bool Optimize = false;
  /// Run the cascade layout optimization (Section 5.2).
  bool Cascade = true;
  /// Run the placement shrinking passes (Section 5.3).
  bool Shrink = true;
  /// Unused; kept only so perfbench builds. Delete with its assignment there.
  unsigned SatMode = 0;
  /// Unused; kept only so perfbench builds. Delete with its assignment there.
  unsigned SatThreads = 4;
  /// Record a DRAT-style proof log of the placement SAT searches into
  /// CompileResult::SatProof (`--sat-proof=`).
  bool SatProof = false;
  /// Run static timing analysis on the placed result.
  bool Timing = true;
  /// Pass names forced off by the driver (`--disable-pass=`). Only
  /// optional stages may be disabled — validate against
  /// core::isPassDisableable() before populating; Pipeline::run simply
  /// skips any listed pass.
  std::vector<std::string> DisabledPasses;
  /// When nonempty, Pipeline::run prints the current program text to
  /// stderr immediately before this pass runs (`--print-before=`).
  std::string PrintBefore;

  bool isPassDisabled(std::string_view Name) const {
    for (const std::string &P : DisabledPasses)
      if (P == Name)
        return true;
    return false;
  }
};

/// Wall-clock spent in each pass, in milliseconds. One record per
/// compilation; a slot is zero when its pass did not run. This is the
/// single timing currency: `--stats-json` and the benchmarks both read it.
struct StageTimings {
  double ParseMs = 0.0;
  double OptMs = 0.0;
  double SelectMs = 0.0;
  double CascadeMs = 0.0;
  double PlaceMs = 0.0;
  double CodegenMs = 0.0;
  double TimingMs = 0.0;
  double TotalMs = 0.0;
};

/// What the front-end optimization pass did (all zero when it is off).
struct OptStats {
  unsigned Folded = 0;     ///< constants folded / identities applied
  unsigned Dead = 0;       ///< dead instructions removed
  unsigned Vectorized = 0; ///< vector instructions formed
};

/// Everything one compilation produces, including the per-stage statistics
/// the benchmarks report.
struct CompileResult {
  rasm::AsmProgram Asm;    ///< family-specific program (after cascading)
  rasm::AsmProgram Placed; ///< device-specific program
  verilog::Module Verilog;
  codegen::Utilization Util;
  timing::TimingReport Timing;

  isel::SelectionStats SelectStats;
  isel::CascadeStats CascadeStats;
  place::PlacementStats PlaceStats;
  OptStats Opt;

  /// DRAT-style proof text of the placement SAT searches (empty unless
  /// CompileOptions::SatProof): sections of DIMACS-notation learnt
  /// additions/deletions delimited by `c` comments per solve.
  std::string SatProof;

  StageTimings Times;
};

/// Compiles \p Fn through the whole pipeline in \p Session.
Result<CompileResult> compile(const ir::Function &Fn,
                              const CompileOptions &Options,
                              CompileSession &Session);

/// Parses, verifies, and compiles \p Source (named \p Name in spans,
/// snapshots, and diagnostics) in \p Session. This is the entry the
/// driver's batch mode uses: the parse and opt passes run inside the
/// pipeline, so their time, snapshots, and remarks are recorded like any
/// other stage's.
Result<CompileResult> compileSource(const std::string &Source,
                                    std::string_view Name,
                                    const CompileOptions &Options,
                                    CompileSession &Session);

} // namespace core
} // namespace reticle

#endif // RETICLE_CORE_COMPILER_H
