//===- obs/Snapshots.h - Pipeline stage snapshots ---------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage snapshots: the program text after each Figure-7 pipeline stage
/// (`parse`, `isel`, `cascade`, `place`, `codegen`), collected by
/// `core::compile` into a SnapshotSink and written by `writeSnapshots` as
/// one file per stage plus a `manifest.json` (`reticle-snapshots-v1`), so
/// stages can be diffed and re-parsed:
///
///   reticlec --dump-after-all=snap/ prog.ret
///   diff snap/01-isel.rasm snap/02-cascade.rasm
///
/// Snapshots are plain printer output over data the pipeline produces
/// anyway; collection costs nothing unless a sink is installed.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_OBS_SNAPSHOTS_H
#define RETICLE_OBS_SNAPSHOTS_H

#include "support/Result.h"

#include <string>
#include <string_view>
#include <vector>

namespace reticle {
namespace obs {

/// One stage's program text. \p Format names the language the text is in
/// ("ir", "asm", or "verilog"); it decides the dump file extension and
/// which parser can read the dump back.
struct StageSnapshot {
  std::string Stage;
  std::string Format;
  std::string Text;
};

/// Collects snapshots in pipeline order. Installed into
/// core::CompileOptions by callers that want dumps; stages append as they
/// finish.
class SnapshotSink {
public:
  void add(std::string Stage, std::string Format, std::string Text) {
    Stages.push_back(
        {std::move(Stage), std::move(Format), std::move(Text)});
  }

  const std::vector<StageSnapshot> &stages() const { return Stages; }
  const StageSnapshot *find(std::string_view Stage) const;

private:
  std::vector<StageSnapshot> Stages;
};

/// The dump file name for snapshot \p Index of the sink:
/// `<NN>-<stage>.<ext>` with `.ret` / `.rasm` / `.v` by format.
std::string snapshotFileName(const StageSnapshot &Snapshot, size_t Index);

/// Writes every snapshot of \p Sink into directory \p Dir (created if
/// missing) under its snapshotFileName, plus a `manifest.json`:
///
///   { "schema": "reticle-snapshots-v1", "program": <program>,
///     "stages": { "<stage>": { "index": N, "format": ...,
///                              "file": ..., "bytes": ... }, ... } }
Status writeSnapshots(const SnapshotSink &Sink, const std::string &Dir,
                      std::string_view Program);

} // namespace obs
} // namespace reticle

#endif // RETICLE_OBS_SNAPSHOTS_H
