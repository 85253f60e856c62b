//===- obs/Context.h - Per-compile observability context --------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability context threaded through every pipeline stage: which
/// `Telemetry` instance receives counters/spans/instants, which
/// `RemarkStream` receives remarks, and which `Coverage` registry
/// receives coverage bins. A context is built from all three, so no stage
/// can be handed a partial one, and there is no process-wide default:
/// `obs::Sinks` owns one set for whoever needs it (`core::CompileSession`
/// holds one per compile; code that runs outside any compile owns one for
/// the call and drops it).
///
/// Stage entry points take `const obs::Context &Ctx` as their trailing
/// parameter; instrumentation sites write
///
///   obs::Span Sp(Ctx, "isel.select");
///   obs::Counter &Trees = Ctx.counter("isel.trees_covered");
///   if (Ctx.remarksEnabled())
///     obs::Remark(Ctx, "isel", "pattern")...;
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_OBS_CONTEXT_H
#define RETICLE_OBS_CONTEXT_H

#include "obs/Coverage.h"
#include "obs/Remarks.h"
#include "obs/Telemetry.h"

namespace reticle {
namespace obs {

/// A non-owning bundle of the telemetry, remark and coverage sinks one
/// compile records into. Cheap to copy; the referenced instances must
/// outlive every stage using the context.
struct Context {
  Context(Telemetry &Telem, RemarkStream &Rem, Coverage &Cov)
      : Telem(&Telem), Rem(&Rem), Cov(&Cov) {}

  Telemetry *Telem;
  RemarkStream *Rem;
  Coverage *Cov;

  Counter &counter(std::string_view Name) const { return Telem->counter(Name); }
  bool tracingEnabled() const { return Telem->tracingEnabled(); }
  bool remarksEnabled() const { return Rem->enabled(); }
  void instant(const char *Name) const { Telem->instant(Name); }
  Coverage &coverage() const { return *Cov; }
};

/// One telemetry registry, remark stream and coverage registry, owned
/// together, with the context over them. Tracing and remarks start off.
/// Neither copyable nor movable, so the context stays valid for the
/// object's lifetime.
class Sinks {
public:
  const Context &context() const { return Ctx; }

  Telemetry &telemetry() { return Telem; }
  const Telemetry &telemetry() const { return Telem; }
  RemarkStream &remarks() { return Rem; }
  const RemarkStream &remarks() const { return Rem; }
  Coverage &coverage() { return Cov; }
  const Coverage &coverage() const { return Cov; }

private:
  Telemetry Telem;
  RemarkStream Rem;
  Coverage Cov;
  Context Ctx{Telem, Rem, Cov};
};

} // namespace obs
} // namespace reticle

#endif // RETICLE_OBS_CONTEXT_H
