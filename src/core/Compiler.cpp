//===- core/Compiler.cpp - The Reticle compiler driver --------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "core/Pipeline.h"
#include "core/Session.h"
#include "tdl/Ultrascale.h"

#include <chrono>

using namespace reticle;
using namespace reticle::core;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Runs \p State through the standard pipeline inside \p Session,
/// wrapping it in the "compile" span and the total timer.
Result<CompileResult> runStandardPipeline(CompileState &State,
                                          const CompileOptions &Options,
                                          CompileSession &Session,
                                          bool FromSource) {
  using ResultT = CompileResult;
  ++Session.telemetry().counter("core.compiles");
  obs::Span TotalSp(Session.context(), "compile");
  TotalSp.arg("fn", State.Name);
  auto Total = std::chrono::steady_clock::now();

  Pipeline P = buildPipeline(Options, FromSource);
  Status S = P.run(State, Session, Options);
  State.Result.Times.TotalMs = msSince(Total);
  if (!S)
    return fail<ResultT>(S.error());
  return std::move(State.Result);
}

} // namespace

Result<CompileResult> reticle::core::compile(const ir::Function &Fn,
                                             const CompileOptions &Options,
                                             CompileSession &Session) {
  CompileState State;
  State.Name = Fn.name();
  State.Fn = Fn;
  State.Target = Options.Target ? Options.Target : &tdl::ultrascale();
  return runStandardPipeline(State, Options, Session, /*FromSource=*/false);
}

Result<CompileResult> reticle::core::compileSource(
    const std::string &Source, std::string_view Name,
    const CompileOptions &Options, CompileSession &Session) {
  CompileState State;
  State.Name = std::string(Name);
  State.Source = Source;
  State.Target = Options.Target ? Options.Target : &tdl::ultrascale();
  return runStandardPipeline(State, Options, Session, /*FromSource=*/true);
}
