//===- core/Batch.h - Parallel batch compilation ----------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles many independent functions concurrently, one CompileSession
/// per input, on a fixed-size worker pool. Because every piece of mutable
/// observability state lives in the item's own session (see Session.h),
/// and the built-in target and device descriptions are immutable after
/// construction, a concurrent batch produces byte-identical artifacts to
/// a sequential one.
///
/// batchStatsJson merges the per-item outcomes into one
/// "reticle-batch-v1" summary document:
///
/// \code
///   {"schema": "reticle-batch-v1", "inputs": N, "succeeded": n,
///    "failed": m, "jobs": J,
///    "programs": [{"program": ..., "status": "ok", "stats": {...}} |
///                 {"program": ..., "status": "error", "error": ...}],
///    "totals": {"total_ms": ..., "luts": ..., "dsps": ...},
///    "coverage": {"spaces": ..., "totals": ...}}
///
/// The coverage key is the union of every item's coverage registry (bins
/// summed), in the same shape as the per-stats `coverage` section and
/// the standalone `reticle-coverage-v1` doc.
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CORE_BATCH_H
#define RETICLE_CORE_BATCH_H

#include "core/Compiler.h"
#include "core/Session.h"
#include "obs/Json.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace reticle {
namespace core {

/// One program to compile: a display name (typically the source path) and
/// its text.
struct BatchInput {
  std::string Name;
  std::string Source;
};

struct BatchOptions {
  /// Per-compile configuration, shared by every input.
  CompileOptions Options;
  /// Worker threads; 0 picks the hardware concurrency. The pool never
  /// exceeds the number of inputs.
  unsigned Jobs = 0;
  /// Enable the corresponding sink on every item's session up front.
  bool CaptureSnapshots = false;
  bool EnableRemarks = false;
  bool EnableTracing = false;
};

/// Outcome of one batch input: the session that compiled it (with its
/// counters, remarks, trace, snapshots, and diagnostics) and the result.
struct BatchItem {
  std::string Name;
  std::unique_ptr<CompileSession> Session;
  /// Engaged once the item has been processed (always, on return from
  /// compileBatch).
  std::optional<Result<CompileResult>> Outcome;

  bool ok() const { return Outcome && *Outcome; }
};

/// Compiles every input, in order-stable fashion: Items[i] corresponds to
/// Inputs[i] regardless of scheduling. Workers pick up inputs in
/// estimated-cost order (largest first, see batchScheduleOrder) so a big
/// program submitted last cannot serialize the tail of the batch.
/// Individual failures do not stop the batch; inspect each item's Outcome.
std::vector<BatchItem> compileBatch(const std::vector<BatchInput> &Inputs,
                                    const BatchOptions &Options = {});

/// The order compileBatch hands inputs to workers: indices into \p Inputs
/// sorted by estimated compile cost, the statement count, descending, ties
/// broken by position so the schedule is deterministic. Scheduling only —
/// the Items[i] <-> Inputs[i] correspondence is unaffected.
std::vector<size_t> batchScheduleOrder(const std::vector<BatchInput> &Inputs);

/// The merged "reticle-batch-v1" summary over a finished batch. \p Jobs
/// records the pool size actually used (purely informational).
obs::Json batchStatsJson(const std::vector<BatchItem> &Items, unsigned Jobs);

/// The union of every item's coverage registry (bins summed; failed
/// items contribute what they recorded before the pipeline refused
/// them). This is the snapshot behind the summary's "coverage" key and
/// the driver's batch-mode --coverage doc.
obs::CoverageSnapshot batchCoverage(const std::vector<BatchItem> &Items);

/// The worker-pool size compileBatch would use for \p Options over
/// \p InputCount inputs (exposed so drivers can report it).
unsigned batchJobCount(const BatchOptions &Options, size_t InputCount);

} // namespace core
} // namespace reticle

#endif // RETICLE_CORE_BATCH_H
