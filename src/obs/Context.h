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
/// receives coverage bins. All pointers are always non-null by
/// convention — `defaultContext()` wires them to the process-wide
/// singletons so legacy callers keep the global behavior, while
/// `core::CompileSession` owns a private set so concurrent compiles in
/// one process never share mutable observability state.
///
/// Stage entry points take `const obs::Context &Ctx = obs::defaultContext()`
/// as their trailing parameter; instrumentation sites write
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

/// A non-owning bundle of the telemetry and remark sinks one compile
/// records into. Cheap to copy; the referenced instances must outlive
/// every stage using the context.
struct Context {
  Telemetry *Telem = nullptr;
  RemarkStream *Rem = nullptr;
  Coverage *Cov = nullptr;

  Counter &counter(std::string_view Name) const { return Telem->counter(Name); }
  Gauge &gauge(std::string_view Name) const { return Telem->gauge(Name); }
  Histogram &histogram(std::string_view Name) const {
    return Telem->histogram(Name);
  }
  bool tracingEnabled() const { return Telem->tracingEnabled(); }
  bool remarksEnabled() const { return Rem->enabled(); }
  void instant(const char *Name) const { Telem->instant(Name); }
  Coverage &coverage() const { return *Cov; }
};

/// The context over the process-wide default telemetry, remark stream,
/// and coverage registry; the default for every stage entry point's
/// trailing Ctx parameter.
inline const Context &defaultContext() {
  static const Context C{&defaultTelemetry(), &defaultRemarks(),
                         &defaultCoverage()};
  return C;
}

} // namespace obs
} // namespace reticle

#endif // RETICLE_OBS_CONTEXT_H
