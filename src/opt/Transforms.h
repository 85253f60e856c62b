//===- opt/Transforms.h - Front-end optimization passes ---------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization opportunities Section 8.2 assigns to front-end tools
/// targeting Reticle, implemented as IR-to-IR passes:
///
///  - dead-code elimination: drop instructions whose results cannot reach
///    an output;
///  - constant folding: evaluate instructions with constant operands and
///    apply algebraic identities (x+0, x*1, x*0, mux on a constant);
///  - vectorization (Figure 16): combine groups of independent,
///    identically-typed scalar operations into vector instructions, which
///    is what lets instruction selection use DSP SIMD modes.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_OPT_TRANSFORMS_H
#define RETICLE_OPT_TRANSFORMS_H

#include "ir/Function.h"
#include "obs/Context.h"

namespace reticle {
namespace opt {

/// Removes instructions that cannot reach any output. Returns the number
/// of instructions removed.
unsigned deadCodeElim(ir::Function &Fn, const obs::Context &Ctx);

/// Folds constant subexpressions and algebraic identities in place.
/// Returns the number of instructions rewritten. Run deadCodeElim
/// afterwards to drop the now-unused operands.
unsigned constantFold(ir::Function &Fn, const obs::Context &Ctx);

/// Combines groups of \p Lanes independent scalar instructions with one
/// operation and type into a single vector instruction plus cat/slice
/// wiring (which is area-free). Handles the elementwise operations
/// add/sub/and/or/xor and registers sharing one enable and init value.
/// Returns the number of vector instructions created.
unsigned vectorize(ir::Function &Fn, unsigned Lanes,
                   const obs::Context &Ctx);

} // namespace opt
} // namespace reticle

#endif // RETICLE_OPT_TRANSFORMS_H
