//===- core/Session.h - Per-compilation observability state -----*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CompileSession owns every piece of mutable state one run of the
/// Figure-7 pipeline produces or consumes: the telemetry registry
/// (counters and trace spans), the remark stream, the per-stage
/// program snapshots, and the diagnostics the pipeline raised. Stages
/// receive the session's obs::Context explicitly, so two sessions in one
/// process never touch each other's state — which is what makes
/// core::compileBatch safe to run on a worker pool. There is no
/// process-wide session: every compile names the one it records into.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CORE_SESSION_H
#define RETICLE_CORE_SESSION_H

#include "obs/Context.h"
#include "obs/Snapshots.h"

#include <string>
#include <vector>

namespace reticle {
namespace core {

/// Owns the observability state of one compilation (or one batch item).
/// A session may serve many compile() calls sequentially; distinct
/// sessions may compile concurrently. The telemetry and remark sinks are
/// internally synchronized, the snapshot sink and diagnostics list are
/// not — they assume one pipeline runs in the session at a time.
class CompileSession {
public:
  /// A fresh session with its own telemetry registry, remark stream and
  /// coverage registry, all initially disabled/empty.
  CompileSession() = default;
  ~CompileSession() = default;

  CompileSession(const CompileSession &) = delete;
  CompileSession &operator=(const CompileSession &) = delete;

  /// The context stages record against. Stable for the session's lifetime.
  const obs::Context &context() const { return Sinks.context(); }

  obs::Telemetry &telemetry() { return Sinks.telemetry(); }
  const obs::Telemetry &telemetry() const { return Sinks.telemetry(); }
  obs::RemarkStream &remarks() { return Sinks.remarks(); }
  const obs::RemarkStream &remarks() const { return Sinks.remarks(); }
  obs::Coverage &coverage() { return Sinks.coverage(); }
  const obs::Coverage &coverage() const { return Sinks.coverage(); }

  /// Per-stage program snapshots captured by the pipeline when
  /// captureSnapshots() is on.
  obs::SnapshotSink &snapshots() { return Snaps; }
  const obs::SnapshotSink &snapshots() const { return Snaps; }
  void captureSnapshots(bool On = true) { Capture = On; }
  bool capturingSnapshots() const { return Capture; }

  /// One pipeline failure: which stage refused the program and why.
  struct Diagnostic {
    std::string Stage;
    std::string Message;
  };
  void diagnose(std::string Stage, std::string Message) {
    Diags.push_back({std::move(Stage), std::move(Message)});
  }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

private:
  obs::Sinks Sinks;
  obs::SnapshotSink Snaps;
  bool Capture = false;
  std::vector<Diagnostic> Diags;
};

} // namespace core
} // namespace reticle

#endif // RETICLE_CORE_SESSION_H
