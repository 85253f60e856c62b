//===- isel/Dfg.h - Dataflow graph and tree partitioning --------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow graph used by instruction selection (Section 5.1). Nodes
/// are function inputs and instructions; edges follow def-use relations.
/// The graph is partitioned into trees by cutting at *root* nodes:
///
///  - compute nodes whose result is a function output,
///  - compute nodes with fanout other than one,
///  - register nodes (their out-edges always cut, which breaks every legal
///    cycle, cf. Section 6.1),
///  - compute nodes feeding a wire instruction (wire instructions are
///    copied through to assembly and reference results by name).
///
/// Every root anchors one pattern-matching tree; instruction selection
/// covers each tree with target-description tiles.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_ISEL_DFG_H
#define RETICLE_ISEL_DFG_H

#include "ir/Function.h"
#include "obs/Context.h"
#include "support/Result.h"

#include <memory>
#include <string>
#include <vector>

namespace reticle {
namespace isel {

/// One dataflow node: a function input or a body instruction.
struct DfgNode {
  enum class Kind : uint8_t { Input, Instr };
  Kind NodeKind = Kind::Input;
  std::string Name;             ///< input name or instruction destination
  size_t BodyIndex = 0;         ///< index into the function body (Instr)
  std::vector<size_t> Operands; ///< node ids of the instruction arguments
  std::vector<size_t> Users;    ///< node ids that consume this node
  bool IsRoot = false;          ///< tree root per the partitioning rules
};

/// The dataflow graph of one function.
class Dfg {
public:
  /// Builds the graph and classifies roots. The function must be verified.
  static Result<Dfg> build(const ir::Function &Fn, const obs::Context &Ctx);

  const ir::Function &function() const { return *Fn; }
  const std::vector<DfgNode> &nodes() const { return Nodes; }
  const DfgNode &node(size_t Id) const { return Nodes[Id]; }

  /// Node id for a variable name. Node ids coincide with interned
  /// ValueIds: inputs first, then body destinations, in program order.
  size_t nodeOf(const std::string &Name) const { return DU->idOf(Name); }

  /// The def-use analysis the graph was built from (shared with the
  /// function's cache).
  const ir::DefUse &defUse() const { return *DU; }

  /// The instruction of an Instr node.
  const ir::Instr &instrOf(size_t Id) const {
    assert(Nodes[Id].NodeKind == DfgNode::Kind::Instr && "not an instr node");
    return Fn->body()[Nodes[Id].BodyIndex];
  }

  bool isInstr(size_t Id) const {
    return Nodes[Id].NodeKind == DfgNode::Kind::Instr;
  }
  bool isWire(size_t Id) const {
    return isInstr(Id) && instrOf(Id).isWire();
  }
  bool isComp(size_t Id) const {
    return isInstr(Id) && instrOf(Id).isComp();
  }

  /// Root node ids in body order.
  const std::vector<size_t> &roots() const { return Roots; }

  /// True when selection may descend into \p Id while matching a pattern:
  /// instruction nodes that are not roots. Wire nodes are always
  /// descendable (re-implementing wiring inside a tile is free).
  bool isDescendable(size_t Id) const {
    if (!isInstr(Id))
      return false;
    return isWire(Id) || !Nodes[Id].IsRoot;
  }

private:
  const ir::Function *Fn = nullptr;
  std::shared_ptr<const ir::DefUse> DU;
  std::vector<DfgNode> Nodes;
  std::vector<size_t> Roots;
};

} // namespace isel
} // namespace reticle

#endif // RETICLE_ISEL_DFG_H
