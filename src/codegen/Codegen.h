//===- codegen/Codegen.h - Structural Verilog generation --------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code generation (Section 5.4): expands a placed assembly program into
/// structural Verilog with layout annotations (Figure 2c).
///
///  - DSP instructions become one DSP48E2-style primitive with the
///    configuration (USE_SIMD, multiplier/post-adder usage, pipeline
///    registers, cascade ports) the operation requires;
///  - LUT instructions expand to one LUT per output bit, with INIT values
///    computed from the operation's truth table, plus CARRY8 chains for
///    arithmetic and comparisons and FDRE flip-flops for registers;
///  - wire instructions become plain assigns and consume no primitives;
///  - every primitive carries `LOC` (and `BEL` for LUTs) attributes from
///    the placement result.
///
/// Multi-LUT instructions keep all their LUTs in the one slice placement
/// assigned to the instruction (a slice hosts eight LUTs on UltraScale+);
/// the BEL letters cycle A..H.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CODEGEN_CODEGEN_H
#define RETICLE_CODEGEN_CODEGEN_H

#include "device/Device.h"
#include "obs/Context.h"
#include "rasm/Asm.h"
#include "support/Result.h"
#include "tdl/Target.h"
#include "verilog/Ast.h"

namespace reticle {
namespace codegen {

/// Primitive counts of a generated design, the quantities Figure 4 and
/// Figure 13 plot.
struct Utilization {
  unsigned Luts = 0;
  unsigned Dsps = 0;
  unsigned Carries = 0;
  unsigned Ffs = 0;
};

/// Generates structural Verilog for \p Placed. Every location must be
/// literal (run placement first). \p Target supplies each operation's
/// semantics; \p Dev supplies slice geometry for BEL annotations.
Result<verilog::Module> generate(const rasm::AsmProgram &Placed,
                                 const tdl::Target &Target,
                                 const device::Device &Dev,
                                 Utilization *Util,
                                 const obs::Context &Ctx);

} // namespace codegen
} // namespace reticle

#endif // RETICLE_CODEGEN_CODEGEN_H
