//===- codegen/Testbench.h - Self-checking testbench emission ---*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a self-checking behavioral Verilog testbench for a generated
/// module from an input trace and its expected outputs (produced by the
/// interpreter). The compiled design hands off to vendor tools for
/// routing and bitstream generation (Figure 1); this testbench lets a
/// standard Verilog simulator check the generated netlist in that flow —
/// the same oracle vm-netlist applies in-tree.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_CODEGEN_TESTBENCH_H
#define RETICLE_CODEGEN_TESTBENCH_H

#include "interp/Trace.h"
#include "support/Result.h"
#include "verilog/Ast.h"

#include <string>

namespace reticle {
namespace codegen {

/// Renders a testbench module driving \p Module with \p Input and
/// asserting \p Expected at every cycle. Both traces must have one value
/// per (non-clock) port per cycle and equal lengths.
Result<std::string> emitTestbench(const verilog::Module &Module,
                                  const interp::Trace &Input,
                                  const interp::Trace &Expected);

} // namespace codegen
} // namespace reticle

#endif // RETICLE_CODEGEN_TESTBENCH_H
