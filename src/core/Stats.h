//===- core/Stats.h - Unified compilation stats document --------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the machine-readable stats document ("reticle-stats-v1") that
/// `reticlec --stats-json=` writes and `--stats` renders as a table. One
/// JSON object unifies every per-stage statistic the pipeline produces:
/// selection, cascading, placement (with the aggregated SAT solver effort),
/// utilization, timing, the StageTimings wall-clock breakdown, and the
/// counter registry of the session the compilation ran in. See
/// docs/OBSERVABILITY.md for the schema.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CORE_STATS_H
#define RETICLE_CORE_STATS_H

#include "core/Compiler.h"
#include "obs/Context.h"
#include "obs/Json.h"

#include <string_view>

namespace reticle {
namespace core {

/// Assembles the "reticle-stats-v1" document for one compilation of
/// \p Program (a display name: source path or function name). Counters
/// and coverage come from \p Ctx, the context of the session the
/// compilation ran in; building the document registers no counter.
obs::Json statsJson(const CompileResult &Result, std::string_view Program,
                    const obs::Context &Ctx);

} // namespace core
} // namespace reticle

#endif // RETICLE_CORE_STATS_H
