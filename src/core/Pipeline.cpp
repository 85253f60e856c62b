//===- core/Pipeline.cpp - The pass pipeline ------------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Transforms.h"
#include "sat/Solver.h"

#include <chrono>

using namespace reticle;
using namespace reticle::core;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// parse: text -> verified ir::Function. Only present when compiling from
/// source; compile(Fn) trusts its caller's function (isel re-verifies).
class ParsePass : public Pass {
public:
  const char *name() const override { return "parse"; }
  const char *snapshotFormat() const override { return "ir"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Fn ? State.Fn->str() : std::string();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::ParseMs;
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<ir::Function> Fn = ir::parseFunction(State.Source);
    if (!Fn)
      return Status::failure(Fn.error());
    if (Status S = ir::verify(Fn.value(), Session.context()); !S)
      return S;
    State.Fn = Fn.take();
    return Status::success();
  }
};

/// opt: the Section 8.2 front-end passes (fold, dce, vectorize).
class OptPass : public Pass {
public:
  const char *name() const override { return "opt"; }
  bool enabled(const CompileOptions &Options) const override {
    return Options.Optimize;
  }
  const char *snapshotFormat() const override { return "ir"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Fn ? State.Fn->str() : std::string();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::OptMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("folded", State.Result.Opt.Folded);
    Sp.arg("dead", State.Result.Opt.Dead);
    Sp.arg("vectorized", State.Result.Opt.Vectorized);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    OptStats &S = State.Result.Opt;
    S.Folded = opt::constantFold(*State.Fn, Session.context());
    S.Dead = opt::deadCodeElim(*State.Fn, Session.context());
    S.Vectorized = opt::vectorize(*State.Fn, 4, Session.context());
    return Status::success();
  }
};

/// isel: tree-covering instruction selection (Section 5.1).
class IselPass : public Pass {
public:
  const char *name() const override { return "isel"; }
  const char *spanName() const override { return "select"; }
  const char *snapshotFormat() const override { return "asm"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Asm.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::SelectMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("trees", State.Result.SelectStats.NumTrees);
    Sp.arg("asm_ops", State.Result.SelectStats.NumAsmOps);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<rasm::AsmProgram> Asm =
        isel::select(*State.Fn, *State.Target, &State.Result.SelectStats,
                     Session.context());
    if (!Asm)
      return Status::failure(Asm.error());
    State.Result.Asm = Asm.take();
    return Status::success();
  }
};

/// cascade: layout optimization (Section 5.2). Chains are bounded by the
/// DSP column height of the target device.
class CascadePass : public Pass {
public:
  const char *name() const override { return "cascade"; }
  bool enabled(const CompileOptions &Options) const override {
    return Options.Cascade;
  }
  const char *snapshotFormat() const override { return "asm"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Asm.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::CascadeMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("chains", State.Result.CascadeStats.Chains);
    Sp.arg("rewritten", State.Result.CascadeStats.Rewritten);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    unsigned MaxChain =
        std::max(2u, Options.Dev.maxHeight(ir::Resource::Dsp));
    return isel::cascadePass(State.Result.Asm, *State.Target, MaxChain,
                             &State.Result.CascadeStats, Session.context());
  }
};

/// place: SAT-based instruction placement (Section 5.3).
class PlacePass : public Pass {
public:
  const char *name() const override { return "place"; }
  const char *snapshotFormat() const override { return "asm"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Placed.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::PlaceMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("solves", State.Result.PlaceStats.Solves);
    Sp.arg("conflicts", State.Result.PlaceStats.Conflicts);
    Sp.arg("max_col", State.Result.PlaceStats.MaxColumn);
    Sp.arg("max_row", State.Result.PlaceStats.MaxRow);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    place::PlacementOptions PlaceOptions;
    PlaceOptions.Shrink = Options.Shrink;
    sat::ProofWriter Proof;
    if (Options.SatProof)
      PlaceOptions.Proof = &Proof;
    Result<rasm::AsmProgram> Placed =
        place::place(State.Result.Asm, Options.Dev, PlaceOptions,
                     &State.Result.PlaceStats, Session.context());
    if (Options.SatProof)
      State.Result.SatProof = Proof.take();
    if (!Placed)
      return Status::failure(Placed.error());
    State.Result.Placed = Placed.take();
    // Defense in depth: independently re-verify the solver's answer against
    // the constraint system of Section 5.3 before trusting it downstream.
    if (Status S = place::checkPlacement(State.Result.Asm,
                                         State.Result.Placed, Options.Dev);
        !S)
      return Status::failure("internal error: invalid placement accepted: " +
                             S.error());
    return Status::success();
  }
};

/// codegen: structural Verilog with layout annotations (Section 5.4).
class CodegenPass : public Pass {
public:
  const char *name() const override { return "codegen"; }
  const char *snapshotFormat() const override { return "verilog"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Verilog.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::CodegenMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("luts", State.Result.Util.Luts);
    Sp.arg("dsps", State.Result.Util.Dsps);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<verilog::Module> Mod =
        codegen::generate(State.Result.Placed, *State.Target, Options.Dev,
                          &State.Result.Util, Session.context());
    if (!Mod)
      return Status::failure(Mod.error());
    State.Result.Verilog = Mod.take();
    return Status::success();
  }
};

/// timing: static timing analysis of the placed result.
class TimingPass : public Pass {
public:
  const char *name() const override { return "timing"; }
  bool enabled(const CompileOptions &Options) const override {
    return Options.Timing;
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::TimingMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("critical_path_ns", State.Result.Timing.CriticalPathNs);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<timing::TimingReport> Report =
        timing::analyzeAsm(State.Result.Placed, *State.Target, Options.Dev,
                           timing::DelayModel(), Session.context());
    if (!Report)
      return Status::failure(Report.error());
    State.Result.Timing = Report.take();
    return Status::success();
  }
};

} // namespace

Status Pipeline::run(CompileState &State, CompileSession &Session,
                     const CompileOptions &Options) const {
  for (const std::unique_ptr<Pass> &P : Passes) {
    auto Start = std::chrono::steady_clock::now();
    Status Outcome = Status::success();
    if (P->enabled(Options)) {
      obs::Span Sp(Session.context(), P->spanName());
      Outcome = P->run(State, Session, Options);
      if (Outcome)
        P->spanArgs(Sp, State);
    }
    if (double StageTimings::*Slot = P->timingSlot())
      State.Result.Times.*Slot = msSince(Start);
    if (Outcome && Session.capturingSnapshots())
      if (const char *Format = P->snapshotFormat())
        Session.snapshots().add(P->name(), Format, P->snapshotText(State));
    if (!Outcome) {
      Session.diagnose(P->name(), Outcome.error());
      return Outcome;
    }
  }
  return Status::success();
}

Pipeline reticle::core::buildPipeline(const CompileOptions &Options,
                                      bool FromSource) {
  Pipeline P;
  if (FromSource)
    P.add(std::make_unique<ParsePass>());
  // When compiling an already-built function, the opt pass appears only
  // on request, keeping the legacy four-stage snapshot list for
  // compile(Fn) unchanged. From source it is always listed (though it
  // only runs under Options.Optimize), so dump directories are stable.
  if (FromSource || Options.Optimize)
    P.add(std::make_unique<OptPass>());
  P.add(std::make_unique<IselPass>());
  P.add(std::make_unique<CascadePass>());
  P.add(std::make_unique<PlacePass>());
  P.add(std::make_unique<CodegenPass>());
  P.add(std::make_unique<TimingPass>());
  return P;
}
