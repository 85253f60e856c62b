//===- rasm/ToIr.cpp - Assembly-to-IR expansion --------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "rasm/ToIr.h"

#include <map>

using namespace reticle;
using namespace reticle::rasm;

Result<ir::Function> reticle::rasm::toIr(const AsmProgram &Prog,
                                         const tdl::Target &Target) {
  using FnT = ir::Function;

  // Argument types for overload resolution come from the program's
  // def-use analysis rather than a locally rebuilt name map. Expansion
  // runs outside any compile, so the analysis records into sinks owned
  // for the call.
  obs::Sinks Unobserved;
  const ir::DefUse &DU = Prog.defUse(Unobserved.context());

  ir::Function Fn(Prog.name());
  Fn.inputs() = Prog.inputs();
  Fn.outputs() = Prog.outputs();

  unsigned FreshCounter = 0;
  for (size_t BI = 0; BI < Prog.body().size(); ++BI) {
    const AsmInstr &I = Prog.body()[BI];
    if (I.isWire()) {
      Fn.addInstr(ir::Instr::makeWire(I.dst(), I.type(), I.wireOp(),
                                      I.attrs(), I.args()));
      continue;
    }
    std::vector<ir::Type> ArgTypes;
    for (size_t K = 0; K < I.args().size(); ++K) {
      ir::ValueId Arg = DU.argIdsOf(BI)[K];
      if (Arg == ir::InvalidValueId)
        return fail<FnT>("in '" + I.str() + "': undefined variable '" +
                         I.args()[K] + "'");
      ArgTypes.push_back(DU.typeOfId(Arg));
    }
    const tdl::TargetDef *Def =
        Target.resolve(I.opName(), I.loc().Prim, ArgTypes, I.type());
    if (!Def)
      return fail<FnT>("in '" + I.str() + "': no definition of '" +
                       I.opName() + "' on " +
                       ir::resourceName(I.loc().Prim) + " for target '" +
                       Target.name() + "'");
    if (I.attrs().size() != Def->numHoles())
      return fail<FnT>("in '" + I.str() + "': expected " +
                       std::to_string(Def->numHoles()) +
                       " attribute(s) for '" + I.opName() + "', got " +
                       std::to_string(I.attrs().size()));

    // Inline the definition body with hole attributes substituted and
    // local names rewritten: inputs map to the instruction arguments, the
    // output maps to the destination, and temporaries get fresh names.
    ir::Function Body = Def->toFunction(I.attrs());
    std::map<std::string, std::string> Rename;
    for (size_t K = 0; K < Def->Inputs.size(); ++K)
      Rename[Def->Inputs[K].Name] = I.args()[K];
    Rename[Def->Output.Name] = I.dst();
    std::string Prefix = I.dst() + "$" + std::to_string(FreshCounter++);
    auto Mapped = [&](const std::string &Name) -> std::string {
      auto It = Rename.find(Name);
      if (It != Rename.end())
        return It->second;
      return Prefix + "$" + Name;
    };
    for (const ir::Instr &B : Body.body()) {
      std::vector<std::string> Args;
      Args.reserve(B.args().size());
      for (const std::string &Arg : B.args())
        Args.push_back(Mapped(Arg));
      if (B.isWire())
        Fn.addInstr(ir::Instr::makeWire(Mapped(B.dst()), B.type(),
                                        B.wireOp(), B.attrs(),
                                        std::move(Args)));
      else
        Fn.addInstr(ir::Instr::makeComp(Mapped(B.dst()), B.type(),
                                        B.compOp(), std::move(Args),
                                        B.attrs(), I.loc().Prim));
    }
  }
  return Fn;
}
