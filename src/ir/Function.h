//===- ir/Function.h - Intermediate-language functions ----------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Reticle program is a function: a name, typed input and output ports,
/// and a flat instruction body (Figure 5a). Instructions describe a circuit,
/// so their textual order carries no meaning; definitions may lexically
/// follow their uses (Figure 12b).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_IR_FUNCTION_H
#define RETICLE_IR_FUNCTION_H

#include "ir/DefUse.h"
#include "ir/Instr.h"

#include <memory>
#include <string>
#include <vector>

namespace reticle {
namespace ir {

/// A typed function port.
struct Port {
  std::string Name;
  Type Ty;
};

/// An intermediate-language function.
class Function {
public:
  Function() = default;
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  std::vector<Port> &inputs() { return Inputs; }
  const std::vector<Port> &inputs() const { return Inputs; }
  std::vector<Port> &outputs() { return Outputs; }
  const std::vector<Port> &outputs() const { return Outputs; }
  std::vector<Instr> &body() { return Body; }
  const std::vector<Instr> &body() const { return Body; }

  /// The builders drop the cached analysis uncounted; only explicit
  /// invalidateDefUse() calls count as `ir.defuse.invalidations`.
  void addInput(std::string PortName, Type Ty) {
    Inputs.push_back(Port{std::move(PortName), Ty});
    DU.reset();
  }
  void addOutput(std::string PortName, Type Ty) {
    Outputs.push_back(Port{std::move(PortName), Ty});
    DU.reset();
  }
  void addInstr(Instr I) {
    Body.push_back(std::move(I));
    DU.reset();
  }

  /// The cached def-use analysis, built on first request. Anything that
  /// mutates the body or ports through the non-const accessors must call
  /// invalidateDefUse() before the next consumer reads the analysis.
  const DefUse &defUse(const obs::Context &Ctx) const {
    if (DU) {
      ++Ctx.counter("ir.defuse.cache_hits");
      return *DU;
    }
    DU = DefUse::build(*this, Ctx);
    return *DU;
  }

  /// Shares ownership of the cached analysis, so holders survive a later
  /// invalidation on the function (the analysis itself is immutable).
  std::shared_ptr<const DefUse> defUseShared(const obs::Context &Ctx) const {
    (void)defUse(Ctx);
    return DU;
  }

  /// Drops the cached analysis; counted only when a cache existed.
  void invalidateDefUse(const obs::Context &Ctx) const {
    if (DU) {
      DU.reset();
      ++Ctx.counter("ir.defuse.invalidations");
    }
  }

  /// Returns the instruction defining \p Var, or null when \p Var is an
  /// input or undefined.
  const Instr *findDef(const std::string &Var) const;

  /// Returns the type of \p Var when it is an input or an instruction
  /// result.
  Result<Type> typeOf(const std::string &Var) const;

  /// True when \p Var is a function input.
  bool isInput(const std::string &Var) const;

  /// Renders the function in surface syntax.
  std::string str() const;

private:
  std::string Name;
  std::vector<Port> Inputs;
  std::vector<Port> Outputs;
  std::vector<Instr> Body;
  /// Lazily built, dropped on mutation. Copies of a Function share the
  /// analysis until either side invalidates its own pointer; DefUse is
  /// immutable, so sharing is safe.
  mutable std::shared_ptr<const DefUse> DU;
};

} // namespace ir
} // namespace reticle

#endif // RETICLE_IR_FUNCTION_H
