//===- perfbench/src/Oracle.h - Output checks for every operation -*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks that decide whether a benchmark operation produced the right
/// output. The reference is independent of the code under measurement
/// where it can be: the interpreter (the paper's Algorithm 1) gives the
/// expected output traces, and `place::checkPlacement` re-derives the
/// Section 5.3 constraints. A set-up compile that passes both checks
/// becomes the reference every timed compile's Verilog must equal. Every
/// check returns a diagnostic instead of aborting, so a failure counts as
/// one failed operation and the run goes on.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "core/Compiler.h"
#include "interp/Trace.h"
#include "ir/Function.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Counts attempted and failed operations and keeps the first few
/// failure messages.
class OpLedger {
public:
  void record(const reticle::Status &S, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &messages() const { return Messages; }

private:
  static constexpr size_t MaxMessages = 8;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;
};

/// Compares \p Got against the interpreter's \p Want on every output port
/// of \p Fn, cycle for cycle, through the flattened bit representation.
/// A missing cycle or port is a mismatch.
reticle::Status checkTrace(const reticle::ir::Function &Fn,
                           const reticle::interp::Trace &Got,
                           const reticle::interp::Trace &Want);

/// Checks a timed compile's Verilog text against the checked reference.
reticle::Status checkVerilog(const std::string &Got, const std::string &Want);

/// The set-up checks of one compiled program: the placement satisfies the
/// Section 5.3 constraints on \p Options' device, and the generated
/// Verilog run through vm-netlist on \p Inputs matches \p Expected, the
/// interpreter's output on the program's IR.
reticle::Status checkCompiled(const reticle::ir::Function &Fn,
                              const reticle::core::CompileResult &R,
                              const reticle::core::CompileOptions &Options,
                              const reticle::interp::Trace &Inputs,
                              const reticle::interp::Trace &Expected);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
