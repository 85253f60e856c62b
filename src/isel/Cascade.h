//===- isel/Cascade.h - DSP cascade layout optimization ---------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout optimization of Section 5.2: chains of DSP multiply-add
/// instructions whose accumulator input is the previous instruction's
/// result are rewritten to cascade variants (`muladd_co` feeding
/// `muladd_cio`* feeding `muladd_ci`) and constrained to vertically
/// adjacent slots in one DSP column (`(x, y)`, `(x, y+1)`, ...), so code
/// generation can use the dedicated high-speed cascade routing between
/// neighbouring DSPs instead of the general fabric.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_ISEL_CASCADE_H
#define RETICLE_ISEL_CASCADE_H

#include "obs/Context.h"
#include "rasm/Asm.h"
#include "support/Result.h"
#include "tdl/Target.h"

namespace reticle {
namespace isel {

/// Facts about one cascade pass, reported by benchmarks.
struct CascadeStats {
  unsigned Chains = 0;     ///< chains rewritten
  unsigned Rewritten = 0;  ///< instructions converted to cascade variants
};

/// Rewrites cascade-able DSP chains in \p Prog in place.
///
/// Only instructions with fully wildcard locations participate; chains
/// longer than \p MaxChain (bounded by the device's DSP column height) are
/// split. Chains are rewritten only when the target defines the cascade
/// variants for the operation.
Status cascadePass(rasm::AsmProgram &Prog, const tdl::Target &Target,
                   unsigned MaxChain, CascadeStats *Stats,
                   const obs::Context &Ctx);

} // namespace isel
} // namespace reticle

#endif // RETICLE_ISEL_CASCADE_H
