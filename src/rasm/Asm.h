//===- rasm/Asm.h - The Reticle assembly language ---------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assembly language of Figure 5b. Assembly retains the IR's wire
/// instructions but replaces compute instructions with target-specific
/// operations that carry location semantics: a primitive kind plus x/y
/// coordinate expressions. Coordinates may be wildcards (the compiler
/// places them), literals (pinned), or `var + offset` expressions that
/// relate the placement of several instructions (Section 5.2's cascading
/// uses `(x, y)` / `(x, y+1)` pairs).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_RASM_ASM_H
#define RETICLE_RASM_ASM_H

#include "ir/Function.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace reticle {
namespace rasm {

/// A coordinate expression, normalized to one of: wildcard, literal, or
/// `var + offset`. The paper's grammar allows arbitrary sums e+e; constant
/// folding reduces every practical program to this form, and the parser
/// rejects expressions over two distinct variables.
class Coord {
public:
  enum class Kind : uint8_t { Wild, Lit, Var };

  Coord() = default;

  static Coord wild() { return Coord(); }
  static Coord lit(int64_t Value) {
    Coord C;
    C.CoordKind = Kind::Lit;
    C.Offset = Value;
    return C;
  }
  static Coord var(std::string Name, int64_t Offset = 0) {
    Coord C;
    C.CoordKind = Kind::Var;
    C.Name = std::move(Name);
    C.Offset = Offset;
    return C;
  }

  Kind kind() const { return CoordKind; }
  bool isWild() const { return CoordKind == Kind::Wild; }
  bool isLit() const { return CoordKind == Kind::Lit; }
  bool isVar() const { return CoordKind == Kind::Var; }

  /// Literal value or variable offset.
  int64_t offset() const { return Offset; }
  const std::string &name() const {
    assert(isVar() && "coordinate has no variable");
    return Name;
  }

  std::string str() const;

  bool operator==(const Coord &Other) const = default;

private:
  Kind CoordKind = Kind::Wild;
  std::string Name;
  int64_t Offset = 0;
};

/// A location: primitive kind plus coordinates, e.g. `dsp(x, y+1)`.
struct Loc {
  ir::Resource Prim = ir::Resource::Lut; ///< Lut or Dsp, never Any
  Coord X;
  Coord Y;

  std::string str() const;
  bool operator==(const Loc &Other) const = default;
};

/// One assembly instruction: a retained wire instruction or a
/// target-specific operation with a location.
class AsmInstr {
public:
  static AsmInstr makeWire(std::string Dst, ir::Type Ty, ir::WireOp Op,
                           std::vector<int64_t> Attrs = {},
                           std::vector<std::string> Args = {}) {
    AsmInstr I;
    I.IsWireInstr = true;
    I.Dst = std::move(Dst);
    I.Ty = Ty;
    I.Wire = Op;
    I.Attrs = std::move(Attrs);
    I.Args = std::move(Args);
    return I;
  }

  static AsmInstr makeOp(std::string Dst, ir::Type Ty, std::string OpName,
                         std::vector<std::string> Args, Loc Location,
                         std::vector<int64_t> Attrs = {}) {
    AsmInstr I;
    I.IsWireInstr = false;
    I.Dst = std::move(Dst);
    I.Ty = Ty;
    I.Name = std::move(OpName);
    I.Args = std::move(Args);
    I.Location = std::move(Location);
    I.Attrs = std::move(Attrs);
    return I;
  }

  bool isWire() const { return IsWireInstr; }
  ir::WireOp wireOp() const {
    assert(IsWireInstr && "not a wire instruction");
    return Wire;
  }

  /// Target-specific operation name (assembly instructions only).
  const std::string &opName() const {
    assert(!IsWireInstr && "wire instructions have no target op");
    return Name;
  }

  const std::string &dst() const { return Dst; }
  ir::Type type() const { return Ty; }
  const std::vector<int64_t> &attrs() const { return Attrs; }
  const std::vector<std::string> &args() const { return Args; }

  const Loc &loc() const {
    assert(!IsWireInstr && "wire instructions have no location");
    return Location;
  }
  Loc &loc() {
    assert(!IsWireInstr && "wire instructions have no location");
    return Location;
  }

  std::string str() const;

private:
  bool IsWireInstr = true;
  std::string Dst;
  ir::Type Ty;
  ir::WireOp Wire = ir::WireOp::Id;
  std::string Name;
  std::vector<int64_t> Attrs;
  std::vector<std::string> Args;
  Loc Location;
};

/// An assembly program: same shape as an IR function, with assembly
/// instructions in the body.
class AsmProgram {
public:
  AsmProgram() = default;
  explicit AsmProgram(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  std::vector<ir::Port> &inputs() { return Inputs; }
  const std::vector<ir::Port> &inputs() const { return Inputs; }
  std::vector<ir::Port> &outputs() { return Outputs; }
  const std::vector<ir::Port> &outputs() const { return Outputs; }
  std::vector<AsmInstr> &body() { return Body; }
  const std::vector<AsmInstr> &body() const { return Body; }

  /// Drops the cached analysis uncounted, like the ir::Function builders.
  void addInstr(AsmInstr I) {
    Body.push_back(std::move(I));
    DU.reset();
  }

  /// The cached def-use analysis over this program (same structure the IR
  /// caches; locations play no part in it). Mutating the body or ports
  /// through the non-const accessors requires invalidateDefUse() before
  /// the next analysis consumer — except location-only edits (placement,
  /// cascade coordinate rewrites), which leave names, args, and types
  /// untouched and therefore keep the analysis valid.
  const ir::DefUse &defUse(const obs::Context &Ctx) const {
    if (DU) {
      ++Ctx.counter("ir.defuse.cache_hits");
      return *DU;
    }
    DU = ir::DefUse::build(*this, Ctx);
    return *DU;
  }

  /// Shares ownership of the cached analysis.
  std::shared_ptr<const ir::DefUse>
  defUseShared(const obs::Context &Ctx) const {
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

  /// True when every location coordinate is a literal (device-specific
  /// program, ready for code generation).
  bool isPlaced() const;

  std::string str() const;

private:
  std::string Name;
  std::vector<ir::Port> Inputs;
  std::vector<ir::Port> Outputs;
  std::vector<AsmInstr> Body;
  mutable std::shared_ptr<const ir::DefUse> DU;
};

} // namespace rasm
} // namespace reticle

#endif // RETICLE_RASM_ASM_H
