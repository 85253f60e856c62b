//===- perfbench/src/Oracle.cpp - Output checks for every operation -------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "interp/Wave.h"
#include "place/Place.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

using namespace reticle;

namespace perfbench {

void OpLedger::record(const Status &S, const std::string &What) {
  ++Attempted;
  if (S)
    return;
  ++Failed;
  if (Messages.size() < MaxMessages)
    Messages.push_back(What + ": " + S.error());
}

Status checkTrace(const ir::Function &Fn, const interp::Trace &Got,
                  const interp::Trace &Want) {
  if (Got.size() != Want.size())
    return Status::failure("trace has " + std::to_string(Got.size()) +
                           " cycle(s), reference " +
                           std::to_string(Want.size()));
  for (size_t Cycle = 0; Cycle < Want.size(); ++Cycle)
    for (const ir::Port &P : Fn.outputs()) {
      const interp::Value *G = Got.get(Cycle, P.Name);
      const interp::Value *W = Want.get(Cycle, P.Name);
      if (!G || !W || G->toBits() != W->toBits())
        return Status::failure(
            "output '" + P.Name + "' differs at cycle " +
            std::to_string(Cycle) + ": got " +
            (G ? sim::bitsToString(G->toBits()) : "<missing>") +
            ", reference " +
            (W ? sim::bitsToString(W->toBits()) : "<missing>"));
    }
  return Status::success();
}

Status checkVerilog(const std::string &Got, const std::string &Want) {
  if (Got == Want)
    return Status::success();
  size_t At = 0;
  while (At < Got.size() && At < Want.size() && Got[At] == Want[At])
    ++At;
  return Status::failure("Verilog differs from the checked reference at "
                         "byte " +
                         std::to_string(At));
}

Status checkCompiled(const ir::Function &Fn, const core::CompileResult &R,
                     const core::CompileOptions &Options,
                     const interp::Trace &Inputs,
                     const interp::Trace &Expected) {
  if (Status S = place::checkPlacement(R.Asm, R.Placed, Options.Dev); !S)
    return Status::failure("placement check: " + S.error());
  Result<sim::Program> Net = sim::compile(R.Verilog);
  if (!Net)
    return Status::failure("vm-netlist lowering: " + Net.error());
  Result<interp::Trace> Out = sim::execute(Net.value(), Inputs);
  if (!Out)
    return Status::failure("vm-netlist run: " + Out.error());
  if (Status S = checkTrace(Fn, Out.value(), Expected); !S)
    return Status::failure("vm-netlist vs interpreter: " + S.error());
  return Status::success();
}

} // namespace perfbench
