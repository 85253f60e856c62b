//===- verilog/Ast.h - Verilog abstract syntax ------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Verilog AST and pretty printer, the counterpart of the separate
/// Verilog AST library the paper's implementation uses for code
/// generation (Section 6). It covers the structural subset Reticle emits
/// (primitive instances with parameters and attributes, wires, assigns)
/// plus the small behavioral subset the baseline generators need
/// (always @(posedge) blocks with guarded non-blocking assigns).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_VERILOG_AST_H
#define RETICLE_VERILOG_AST_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace reticle {
namespace verilog {

/// A Verilog expression tree.
class Expr {
public:
  enum class Kind : uint8_t {
    Ref,     ///< identifier
    IntLit,  ///< sized literal, e.g. 8'h2a
    Str,     ///< string literal (parameter values)
    Index,   ///< a[i]
    Range,   ///< a[hi:lo]
    Concat,  ///< {a, b, ...} (operands most-significant first)
    Repeat,  ///< {n{a}}
    Unary,   ///< op a
    Binary,  ///< a op b
    Ternary, ///< c ? a : b
  };

  static Expr ref(std::string Name);
  static Expr intLit(unsigned Width, uint64_t Value);
  static Expr str(std::string Value);
  static Expr index(Expr Base, unsigned Index);
  static Expr range(Expr Base, unsigned Hi, unsigned Lo);
  static Expr concat(std::vector<Expr> Parts);
  static Expr repeat(unsigned Count, Expr Part);
  static Expr unary(std::string Op, Expr A);
  static Expr binary(std::string Op, Expr A, Expr B);
  static Expr ternary(Expr C, Expr A, Expr B);

  Kind kind() const { return ExprKind; }

  /// Structural accessors (used by the netlist lowering).
  const std::string &name() const { return Name; }
  unsigned width() const { return Width; } ///< IntLit width / Index pos /
                                           ///< Range hi / Repeat count
  unsigned lo() const { return Lo; }       ///< Range lo
  uint64_t value() const { return Value; } ///< IntLit payload
  const std::vector<Expr> &operands() const { return Operands; }

  /// Renders the expression.
  std::string str() const;

private:
  Kind ExprKind = Kind::Ref;
  std::string Name;     // Ref identifier, operator, or string payload
  unsigned Width = 0;   // IntLit width, Index position, Range hi, Repeat n
  unsigned Lo = 0;      // Range lo
  uint64_t Value = 0;   // IntLit value
  std::vector<Expr> Operands;
};

/// Port direction.
enum class Dir : uint8_t { Input, Output };

/// A module port; Width 0 denotes a scalar (1-bit, no range).
struct Port {
  Dir Direction = Dir::Input;
  std::string Name;
  unsigned Width = 0;
};

/// A `(* name = "value" *)` attribute.
struct Attribute {
  std::string Name;
  std::string Value;
};

/// One statement inside an always block: `if (Guard) Lhs <= Rhs;` with an
/// optional guard.
struct NonBlocking {
  std::string GuardName; ///< empty = unconditional
  Expr Lhs = Expr::ref("");
  Expr Rhs = Expr::ref("");
};

/// A module item.
struct Item {
  enum class Kind : uint8_t {
    Wire,     ///< wire [w-1:0] name;
    Reg,      ///< reg [w-1:0] name;  (behavioral subset)
    Assign,   ///< assign lhs = rhs;
    Instance, ///< primitive/module instantiation
    AlwaysFF, ///< always @(posedge clock) begin ... end
    Comment,  ///< // text
  };

  Kind ItemKind = Kind::Comment;
  // Wire / Reg.
  std::string Name;
  unsigned Width = 0;
  // Assign.
  Expr Lhs = Expr::ref("");
  Expr Rhs = Expr::ref("");
  // Instance.
  std::string ModuleName;
  std::string InstName;
  std::vector<Attribute> Attributes;
  std::vector<std::pair<std::string, Expr>> Params;
  std::vector<std::pair<std::string, Expr>> Connections;
  // AlwaysFF.
  std::string Clock;
  std::vector<NonBlocking> Body;
  // Comment.
  std::string Text;
};

/// A Verilog module.
class Module {
public:
  Module() = default;
  explicit Module(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  void addPort(Dir Direction, std::string PortName, unsigned Width = 0) {
    Ports.push_back(Port{Direction, std::move(PortName), Width});
  }
  void addWire(std::string WireName, unsigned Width = 0);
  void addReg(std::string RegName, unsigned Width = 0);
  void addAssign(Expr Lhs, Expr Rhs);
  void addComment(std::string Text);

  /// Appends a fully built item. Prefer this over mutating the reference
  /// returned by addInstance/addAlwaysFF when other items are added in
  /// between (the reference would dangle).
  void addItem(Item I) { Items.push_back(std::move(I)); }

  /// Creates a blank instance item. Callers fill params/connections and
  /// pass it to addItem().
  static Item makeInstance(std::string ModuleName, std::string InstName);

  Item &addInstance(std::string ModuleName, std::string InstName);
  Item &addAlwaysFF(std::string Clock);

  const std::vector<Port> &ports() const { return Ports; }
  const std::vector<Item> &items() const { return Items; }

  /// Counts instances of primitives whose module name starts with
  /// \p Prefix (e.g. "LUT", "DSP48E2", "FDRE"); used by utilization
  /// reporting.
  unsigned countInstances(const std::string &Prefix) const;

  /// Renders the module.
  std::string str() const;

private:
  std::string Name;
  std::vector<Port> Ports;
  std::vector<Item> Items;
};

} // namespace verilog
} // namespace reticle

#endif // RETICLE_VERILOG_AST_H
