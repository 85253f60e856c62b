//===- tdl/Target.cpp - Target descriptions -----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "tdl/Target.h"

#include "ir/Verifier.h"

#include <map>
#include <set>

using namespace reticle;
using namespace reticle::tdl;

unsigned TargetDef::numHoles() const {
  unsigned Count = 0;
  for (const std::vector<bool> &InstrHoles : Holes)
    for (bool IsHole : InstrHoles)
      if (IsHole)
        ++Count;
  return Count;
}

bool TargetDef::isCascadeVariant() const {
  auto EndsWith = [&](const char *Suffix) {
    std::string S(Suffix);
    return Name.size() >= S.size() &&
           Name.compare(Name.size() - S.size(), S.size(), S) == 0;
  };
  return EndsWith("_co") || EndsWith("_ci") || EndsWith("_cio");
}

ir::Function TargetDef::toFunction(
    const std::vector<int64_t> &HoleValues) const {
  assert(HoleValues.size() == numHoles() && "hole value count mismatch");
  ir::Function Fn(Name);
  Fn.inputs() = Inputs;
  Fn.addOutput(Output.Name, Output.Ty);
  size_t NextHole = 0;
  for (size_t I = 0; I < Body.size(); ++I) {
    ir::Instr Instr = Body[I];
    if (I < Holes.size() && !Holes[I].empty()) {
      std::vector<int64_t> Attrs = Instr.attrs();
      for (size_t K = 0; K < Attrs.size(); ++K)
        if (K < Holes[I].size() && Holes[I][K])
          Attrs[K] = HoleValues[NextHole++];
      Instr = Instr.isWire()
                  ? ir::Instr::makeWire(Instr.dst(), Instr.type(),
                                        Instr.wireOp(), std::move(Attrs),
                                        Instr.args())
                  : ir::Instr::makeComp(Instr.dst(), Instr.type(),
                                        Instr.compOp(), Instr.args(),
                                        std::move(Attrs), Instr.resource());
    }
    Fn.addInstr(std::move(Instr));
  }
  return Fn;
}

std::string TargetDef::str() const {
  std::string Out = Name + "[" + ir::resourceName(Prim) + ", " +
                    std::to_string(Area) + ", " + std::to_string(Latency) +
                    "](";
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Inputs[I].Name + ":" + Inputs[I].Ty.str();
  }
  Out += ") -> (" + Output.Name + ":" + Output.Ty.str() + ") {\n";
  size_t NextHole = 0;
  (void)NextHole;
  for (size_t I = 0; I < Body.size(); ++I) {
    // Render holes back as '_' by patching the printed attribute list.
    const ir::Instr &Instr = Body[I];
    std::string Line = "  " + Instr.dst() + ":" + Instr.type().str() + " = " +
                       Instr.opName();
    if (!Instr.attrs().empty()) {
      Line += "[";
      for (size_t K = 0; K < Instr.attrs().size(); ++K) {
        if (K)
          Line += ", ";
        bool IsHole = I < Holes.size() && K < Holes[I].size() && Holes[I][K];
        Line += IsHole ? std::string("_") : std::to_string(Instr.attrs()[K]);
      }
      Line += "]";
    }
    if (!Instr.args().empty()) {
      Line += "(";
      for (size_t K = 0; K < Instr.args().size(); ++K) {
        if (K)
          Line += ", ";
        Line += Instr.args()[K];
      }
      Line += ")";
    }
    Out += Line + ";\n";
  }
  Out += "}\n";
  return Out;
}

Status Target::addDef(TargetDef Def) {
  if (Def.Prim == ir::Resource::Any)
    return Status::failure("definition '" + Def.Name +
                           "': primitive must be lut or dsp");
  if (Def.Area < 0 || Def.Latency < 0)
    return Status::failure("definition '" + Def.Name +
                           "': costs must be non-negative");
  if (Def.Body.empty())
    return Status::failure("definition '" + Def.Name + "': empty body");

  // The body must be a well-formed function over the declared ports.
  // Building a target is not a compile: the check records into sinks
  // owned for the call.
  std::vector<int64_t> ZeroHoles(Def.numHoles(), 0);
  ir::Function Fn = Def.toFunction(ZeroHoles);
  obs::Sinks Unobserved;
  if (Status S = ir::verify(Fn, Unobserved.context()); !S)
    return Status::failure("definition '" + Def.Name + "': " + S.error());

  // The paper requires definition bodies to be DAGs outright: even cycles
  // through registers are disallowed. The verified function's analysis
  // supplies the def edges (Fn's body indices equal Def.Body's).
  const ir::DefUse &DU = Fn.defUse(Unobserved.context());
  std::vector<unsigned> State(Def.Body.size(), 0);
  // Iterative DFS cycle check over all def-use edges.
  for (size_t Start = 0; Start < Def.Body.size(); ++Start) {
    if (State[Start] != 0)
      continue;
    std::vector<std::pair<size_t, size_t>> Stack = {{Start, 0}};
    State[Start] = 1;
    while (!Stack.empty()) {
      auto &[Node, ArgIndex] = Stack.back();
      const std::vector<ir::ValueId> &Args = DU.argIdsOf(Node);
      if (ArgIndex >= Args.size()) {
        State[Node] = 2;
        Stack.pop_back();
        continue;
      }
      ir::ValueId Arg = Args[ArgIndex++];
      uint32_t Next = Arg == ir::InvalidValueId ? ir::DefUse::NoDef
                                                : DU.defIndexOf(Arg);
      if (Next == ir::DefUse::NoDef)
        continue;
      if (State[Next] == 1)
        return Status::failure("definition '" + Def.Name +
                               "': body must be acyclic");
      if (State[Next] == 0) {
        State[Next] = 1;
        Stack.push_back({Next, 0});
      }
    }
  }

  // Every declared input must be used so that selection can bind it
  // (usersOf lists argument reads only, not output-port reads).
  for (const ir::Port &P : Def.Inputs)
    if (DU.usersOf(DU.idOf(P.Name)).empty())
      return Status::failure("definition '" + Def.Name + "': input '" +
                             P.Name + "' is never used");

  // No duplicate signature.
  std::vector<ir::Type> ArgTypes;
  for (const ir::Port &P : Def.Inputs)
    ArgTypes.push_back(P.Ty);
  if (resolve(Def.Name, Def.Prim, ArgTypes, Def.Output.Ty))
    return Status::failure("definition '" + Def.Name +
                           "': duplicate signature");

  Defs.push_back(std::move(Def));
  return Status::success();
}

const TargetDef *Target::resolve(const std::string &DefName,
                                 ir::Resource Prim,
                                 const std::vector<ir::Type> &ArgTypes,
                                 ir::Type OutType) const {
  for (const TargetDef &Def : Defs) {
    if (Def.Name != DefName || Def.Prim != Prim)
      continue;
    if (Def.Inputs.size() != ArgTypes.size())
      continue;
    if (!(Def.Output.Ty == OutType))
      continue;
    bool Match = true;
    for (size_t I = 0; I < ArgTypes.size(); ++I)
      if (!(Def.Inputs[I].Ty == ArgTypes[I])) {
        Match = false;
        break;
      }
    if (Match)
      return &Def;
  }
  return nullptr;
}

std::string Target::str() const {
  std::string Out;
  for (const TargetDef &Def : Defs)
    Out += Def.str() + "\n";
  return Out;
}
