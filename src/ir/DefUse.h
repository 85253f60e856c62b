//===- ir/DefUse.h - Interned value ids and shared def-use analysis -*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense value handles for the ANF IR. Every pipeline stage used to rebuild
/// its own `std::map<std::string, ...>` over the same function; instead, a
/// per-function `NameInterner` assigns each value name a dense `ValueId`
/// (inputs first, then body destinations, in program order) and a single
/// cached `DefUse` analysis records, per id: the defining body index, the
/// use list and use count (argument occurrences plus output-port reads),
/// the type, and whether the value is a live output. The analysis also
/// carries the register-aware topological order of the body and the first
/// duplicate-name event, so the verifier needs no maps of its own.
///
/// `DefUse` is immutable once built. `ir::Function` and `rasm::AsmProgram`
/// cache one behind a shared_ptr; any code that mutates a function body,
/// ports, or instruction names must call `invalidateDefUse()` before the
/// next analysis consumer runs. Builds, cache hits, and invalidations are
/// counted under `ir.defuse.*` / `ir.interner.*`.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_IR_DEFUSE_H
#define RETICLE_IR_DEFUSE_H

#include "ir/Type.h"
#include "obs/Context.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace reticle {
namespace ir {

/// Dense handle for a named value inside one function: inputs occupy
/// ids [0, numInputs()), body destinations follow in body order.
using ValueId = uint32_t;

/// Sentinel for "no such value" (unknown name, undefined argument).
inline constexpr ValueId InvalidValueId = ~ValueId(0);

/// Maps value names to dense ids. Strings live in a deque so views handed
/// out (and the map's own keys) stay valid as the table grows.
class NameInterner {
public:
  /// Returns the id for \p Name, interning it on first sight.
  ValueId intern(std::string_view Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    Storage.emplace_back(Name);
    ValueId Id = static_cast<ValueId>(Storage.size() - 1);
    Index.emplace(std::string_view(Storage.back()), Id);
    return Id;
  }

  /// Returns the id for \p Name, or InvalidValueId when never interned.
  ValueId lookup(std::string_view Name) const {
    auto It = Index.find(Name);
    return It == Index.end() ? InvalidValueId : It->second;
  }

  const std::string &name(ValueId Id) const { return Storage[Id]; }
  size_t size() const { return Storage.size(); }

private:
  std::deque<std::string> Storage;
  std::unordered_map<std::string_view, ValueId> Index;
};

/// One function's def-use facts, indexed by ValueId. Built once per
/// function (template works for both ir::Function and rasm::AsmProgram,
/// which share the name/inputs/outputs/body shape) and cached on the
/// program object; see the file comment for the invalidation contract.
class DefUse {
public:
  /// Sentinel body index for values with no defining instruction
  /// (function inputs, or names only read).
  static constexpr uint32_t NoDef = ~uint32_t(0);

  /// Which namespace the first duplicate definition was found in.
  enum class Dup : uint8_t { None, Input, Body };

  template <typename ProgramT>
  static std::shared_ptr<const DefUse>
  build(const ProgramT &P, const obs::Context &Ctx);

  // --- Interner access -------------------------------------------------
  const NameInterner &names() const { return Names; }
  ValueId idOf(std::string_view Name) const { return Names.lookup(Name); }
  const std::string &nameOf(ValueId Id) const { return Names.name(Id); }
  size_t numValues() const { return Names.size(); }
  uint32_t numInputs() const { return NumInputs; }
  bool isInputId(ValueId Id) const { return Id < NumInputs; }

  // --- Def side --------------------------------------------------------
  /// Body index of the (first) instruction defining \p Id, or NoDef.
  uint32_t defIndexOf(ValueId Id) const { return DefIndexOfId[Id]; }
  /// Destination id of body instruction \p BodyIdx.
  ValueId dstIdOf(size_t BodyIdx) const { return DstIdOfBody[BodyIdx]; }

  // --- Use side --------------------------------------------------------
  /// Argument occurrences across the body plus output-port reads.
  uint32_t useCount(ValueId Id) const { return UseCounts[Id]; }
  /// Body indices reading \p Id, one entry per argument occurrence, in
  /// body-scan order.
  const std::vector<uint32_t> &usersOf(ValueId Id) const {
    return Users[Id];
  }
  /// Interned argument ids of body instruction \p BodyIdx, parallel to
  /// its args(); InvalidValueId marks an undefined name.
  const std::vector<ValueId> &argIdsOf(size_t BodyIdx) const {
    return ArgIds[BodyIdx];
  }
  /// Id of output port \p OutIdx's value, or InvalidValueId when the
  /// output names nothing defined.
  ValueId outputIdOf(size_t OutIdx) const { return OutputIds[OutIdx]; }
  /// True when \p Id's name appears among the output ports.
  bool isLiveOut(ValueId Id) const { return LiveOut[Id] != 0; }

  // --- Types -----------------------------------------------------------
  /// Declared type of \p Id (input port type, else defining instruction's
  /// result type; inputs win on shadowing, matching Function::typeOf).
  const Type &typeOfId(ValueId Id) const { return TypeOfId[Id]; }

  // --- Topological order (ir::Function only) ---------------------------
  /// Register-aware topological order over non-register body indices.
  /// Empty (with topoOk() true) for programs whose instructions carry no
  /// register notion (rasm).
  const std::vector<size_t> &topoOrder() const { return Topo; }
  /// False when the register-free subgraph has a combinational cycle.
  bool topoOk() const { return TopoComplete; }

  // --- Duplicate tracking ----------------------------------------------
  Dup duplicateKind() const { return DupKind; }
  const std::string &duplicateName() const { return DupName; }

private:
  NameInterner Names;
  uint32_t NumInputs = 0;
  std::vector<uint32_t> DefIndexOfId;
  std::vector<ValueId> DstIdOfBody;
  std::vector<uint32_t> UseCounts;
  std::vector<std::vector<uint32_t>> Users;
  std::vector<std::vector<ValueId>> ArgIds;
  std::vector<ValueId> OutputIds;
  std::vector<uint8_t> LiveOut;
  std::vector<Type> TypeOfId;
  std::vector<size_t> Topo;
  bool TopoComplete = true;
  Dup DupKind = Dup::None;
  std::string DupName;
};

template <typename ProgramT>
std::shared_ptr<const DefUse> DefUse::build(const ProgramT &P,
                                            const obs::Context &Ctx) {
  auto DU = std::make_shared<DefUse>();
  const auto &Body = P.body();

  // Inputs first: ids [0, NumInputs).
  for (const auto &Port : P.inputs()) {
    size_t Before = DU->Names.size();
    ValueId Id = DU->Names.intern(Port.Name);
    if (DU->Names.size() == Before) {
      if (DU->DupKind == Dup::None) {
        DU->DupKind = Dup::Input;
        DU->DupName = Port.Name;
      }
      continue;
    }
    (void)Id;
    DU->DefIndexOfId.push_back(NoDef);
    DU->TypeOfId.push_back(Port.Ty);
  }
  DU->NumInputs = static_cast<uint32_t>(DU->Names.size());

  // Body destinations next, in body order. First definition wins on a
  // duplicate (matching linear-scan findDef); the verifier rejects the
  // program before anything downstream can observe the difference.
  DU->DstIdOfBody.reserve(Body.size());
  for (size_t I = 0; I < Body.size(); ++I) {
    size_t Before = DU->Names.size();
    ValueId Id = DU->Names.intern(Body[I].dst());
    DU->DstIdOfBody.push_back(Id);
    if (DU->Names.size() == Before) {
      if (DU->DupKind == Dup::None) {
        DU->DupKind = Dup::Body;
        DU->DupName = Body[I].dst();
      }
      continue;
    }
    DU->DefIndexOfId.push_back(static_cast<uint32_t>(I));
    DU->TypeOfId.push_back(Body[I].type());
  }

  size_t N = DU->Names.size();
  DU->UseCounts.assign(N, 0);
  DU->Users.resize(N);
  DU->LiveOut.assign(N, 0);

  // Argument resolution: defs may lexically follow uses, so this runs
  // only after every destination is interned. Unknown names stay
  // InvalidValueId rather than growing the id space.
  DU->ArgIds.resize(Body.size());
  for (size_t I = 0; I < Body.size(); ++I) {
    const auto &Args = Body[I].args();
    auto &Ids = DU->ArgIds[I];
    Ids.reserve(Args.size());
    for (const std::string &Arg : Args) {
      ValueId Id = DU->Names.lookup(Arg);
      Ids.push_back(Id);
      if (Id != InvalidValueId) {
        ++DU->UseCounts[Id];
        DU->Users[Id].push_back(static_cast<uint32_t>(I));
      }
    }
  }

  // Output ports read their named value once each.
  const auto &Outputs = P.outputs();
  DU->OutputIds.reserve(Outputs.size());
  for (const auto &Port : Outputs) {
    ValueId Id = DU->Names.lookup(Port.Name);
    DU->OutputIds.push_back(Id);
    if (Id != InvalidValueId) {
      ++DU->UseCounts[Id];
      DU->LiveOut[Id] = 1;
    }
  }

  // Register-aware topological order (Kahn), only for instruction types
  // with a register notion (ir::Instr). Registers break combinational
  // edges, so only non-register defs feed in-degrees; the last
  // non-register definition wins, matching the historical map fill.
  if constexpr (requires(const typename std::decay_t<decltype(Body)>::
                             value_type &I) { I.isReg(); }) {
    std::vector<uint32_t> NonRegDef(N, NoDef);
    for (size_t I = 0; I < Body.size(); ++I)
      if (!Body[I].isReg())
        NonRegDef[DU->DstIdOfBody[I]] = static_cast<uint32_t>(I);

    std::vector<unsigned> InDegree(Body.size(), 0);
    std::vector<std::vector<size_t>> TopoUsers(Body.size());
    size_t NodeCount = 0;
    for (size_t I = 0; I < Body.size(); ++I) {
      if (Body[I].isReg())
        continue;
      ++NodeCount;
      for (ValueId Arg : DU->ArgIds[I]) {
        if (Arg == InvalidValueId || NonRegDef[Arg] == NoDef)
          continue; // input or register result: no combinational edge
        TopoUsers[NonRegDef[Arg]].push_back(I);
        ++InDegree[I];
      }
    }
    std::vector<size_t> Ready;
    for (size_t I = 0; I < Body.size(); ++I)
      if (!Body[I].isReg() && InDegree[I] == 0)
        Ready.push_back(I);
    while (!Ready.empty()) {
      size_t I = Ready.back();
      Ready.pop_back();
      DU->Topo.push_back(I);
      for (size_t U : TopoUsers[I])
        if (--InDegree[U] == 0)
          Ready.push_back(U);
    }
    DU->TopoComplete = DU->Topo.size() == NodeCount;
  }

  ++Ctx.counter("ir.defuse.builds");
  Ctx.counter("ir.interner.names") += N;
  return DU;
}

} // namespace ir
} // namespace reticle

#endif // RETICLE_IR_DEFUSE_H
