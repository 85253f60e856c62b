//===- core/Pipeline.h - The pass pipeline ----------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure-7 pipeline as an explicit sequence of named passes:
///
///   parse -> opt -> isel -> cascade -> place -> codegen -> timing
///
/// Each pass declares its stage name, trace-span name, whether the options
/// enable it, which StageTimings slot it fills, and what program text to
/// snapshot after it runs. Pipeline::run provides the one mechanism every
/// observability feature hangs off: it opens the span, times the pass,
/// records the snapshot, and files a session diagnostic on failure.
/// `--dump-after`, remarks, and traces all attach here rather than inside
/// the stages.
///
/// A snapshot is recorded even for a pass the options disable (the text is
/// simply unchanged), so a snapshot directory always lists the same stages
/// and stage-to-stage diffs line up.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CORE_PIPELINE_H
#define RETICLE_CORE_PIPELINE_H

#include "core/Compiler.h"
#include "core/Session.h"
#include "obs/Telemetry.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace reticle {
namespace core {

/// The program as it moves through the pipeline, plus the accumulating
/// result. Owned by one compile() call; never shared across threads.
struct CompileState {
  std::string Name;   ///< display name for spans and diagnostics
  std::string Source; ///< input text (only when compiling from source)
  /// The function under compilation; set by the parse pass, or at entry
  /// when compiling an already-built ir::Function.
  std::optional<ir::Function> Fn;
  /// Resolved target description (never null while the pipeline runs).
  const tdl::Target *Target = nullptr;
  CompileResult Result;
};

/// One named stage of the pipeline.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stage identifier: "parse", "opt", "isel", "cascade", "place",
  /// "codegen", "timing". Names snapshots and diagnostics.
  virtual const char *name() const = 0;
  /// Trace-span name; differs from name() only where history demands it
  /// (the isel stage's span has always been called "select").
  virtual const char *spanName() const { return name(); }
  /// Whether the options enable this pass. Disabled passes are skipped
  /// but still snapshot, so the stage list stays stable.
  virtual bool enabled(const CompileOptions &Options) const { return true; }
  /// Runs the stage. Reads and writes \p State; records counters,
  /// remarks, and nested spans against Session.context().
  virtual Status run(CompileState &State, CompileSession &Session,
                     const CompileOptions &Options) = 0;
  /// Snapshot format after this pass ("ir", "asm", "verilog"), or null
  /// for passes with no program text of their own (timing).
  virtual const char *snapshotFormat() const { return nullptr; }
  virtual std::string snapshotText(const CompileState &State) const {
    return {};
  }
  /// Attaches the pass's headline statistics to its (just-closed) span.
  virtual void spanArgs(obs::Span &Sp, const CompileState &State) const {}
  /// Which StageTimings field this pass fills, or null for none.
  virtual double StageTimings::*timingSlot() const { return nullptr; }
};

/// An ordered list of passes with uniform instrumentation.
class Pipeline {
public:
  Pipeline &add(std::unique_ptr<Pass> P) {
    Passes.push_back(std::move(P));
    return *this;
  }

  /// Runs every pass in order. Stops at the first failure, after filing
  /// it as a session diagnostic under the failing pass's name.
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) const;

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Builds the standard Figure-7 pipeline. With \p FromSource the pipeline
/// starts at the parse pass (and includes opt, enabled by
/// Options.Optimize); otherwise it starts at isel, with opt prepended
/// only when Options.Optimize asks for it — keeping the legacy
/// compile(Fn) stage list (isel, cascade, place, codegen) intact.
Pipeline buildPipeline(const CompileOptions &Options, bool FromSource);

} // namespace core
} // namespace reticle

#endif // RETICLE_CORE_PIPELINE_H
