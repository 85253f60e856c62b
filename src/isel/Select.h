//===- isel/Select.h - Instruction selection --------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction selection (Section 5.1): lowers a verified intermediate
/// program to a family-specific assembly program by covering each
/// dataflow tree with target-description tiles, using the classic
/// dynamic-programming, linear-time tree-covering scheme of Aho &
/// Ganapathi as used in software code generators.
///
/// Resource annotations are hard constraints: a tile may cover an
/// instruction only when the instruction's annotation is the wildcard or
/// matches the tile's primitive; when no tile satisfies an annotation the
/// whole compilation is rejected rather than the hint being silently
/// dropped (Section 3).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_ISEL_SELECT_H
#define RETICLE_ISEL_SELECT_H

#include "ir/Function.h"
#include "obs/Context.h"
#include "rasm/Asm.h"
#include "support/Result.h"
#include "tdl/Target.h"

namespace reticle {
namespace isel {

/// Aggregate facts about one selection run, reported by benchmarks.
struct SelectionStats {
  unsigned NumTrees = 0;     ///< dataflow trees covered
  unsigned NumAsmOps = 0;    ///< selected assembly instructions
  unsigned NumWire = 0;      ///< retained wire instructions
  int64_t TotalArea = 0;     ///< summed tile area cost
  int64_t TotalLatency = 0;  ///< summed tile latency cost
};

/// Lowers \p Fn to assembly for \p Target. All selected instructions carry
/// wildcard locations; placement resolves them later. Counters, spans,
/// remarks, and the static IR and pattern coverage of \p Fn record into
/// \p Ctx.
Result<rasm::AsmProgram> select(const ir::Function &Fn,
                                const tdl::Target &Target,
                                SelectionStats *Stats,
                                const obs::Context &Ctx);

} // namespace isel
} // namespace reticle

#endif // RETICLE_ISEL_SELECT_H
