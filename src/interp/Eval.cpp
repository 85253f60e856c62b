//===- interp/Eval.cpp - Single-instruction evaluation ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Eval.h"

using namespace reticle;
using namespace reticle::interp;
using ir::CompOp;
using ir::Instr;
using ir::Type;
using ir::WireOp;

namespace {

/// Applies a per-lane binary function, canonicalizing the result lanes.
template <typename Fn>
Value mapLanes2(Type Ty, const Value &A, const Value &B, Fn F) {
  std::vector<int64_t> Out;
  Out.reserve(Ty.lanes());
  for (unsigned L = 0; L < Ty.lanes(); ++L)
    Out.push_back(F(A.lane(L), B.lane(L)));
  return Value::fromLanes(Ty, std::move(Out));
}

template <typename Fn> Value mapLanes1(Type Ty, const Value &A, Fn F) {
  std::vector<int64_t> Out;
  Out.reserve(Ty.lanes());
  for (unsigned L = 0; L < Ty.lanes(); ++L)
    Out.push_back(F(A.lane(L)));
  return Value::fromLanes(Ty, std::move(Out));
}

/// The low Width bits of a canonical lane, as an unsigned payload.
uint64_t unsignedLane(int64_t Lane, unsigned Width) {
  if (Width == 64)
    return static_cast<uint64_t>(Lane);
  return static_cast<uint64_t>(Lane) & ((uint64_t(1) << Width) - 1);
}

Result<Value> evalWire(const Instr &I, const std::vector<Value> &Args) {
  Type Ty = I.type();
  switch (I.wireOp()) {
  case WireOp::Sll: {
    unsigned Amount = static_cast<unsigned>(I.attrs()[0]);
    return mapLanes1(Ty, Args[0], [&](int64_t A) {
      return static_cast<int64_t>(unsignedLane(A, Ty.width()) << Amount);
    });
  }
  case WireOp::Srl: {
    unsigned Amount = static_cast<unsigned>(I.attrs()[0]);
    return mapLanes1(Ty, Args[0], [&](int64_t A) {
      return static_cast<int64_t>(unsignedLane(A, Ty.width()) >> Amount);
    });
  }
  case WireOp::Sra: {
    unsigned Amount = static_cast<unsigned>(I.attrs()[0]);
    // Lanes are sign-extended, so the native shift is arithmetic.
    return mapLanes1(Ty, Args[0], [&](int64_t A) { return A >> Amount; });
  }
  case WireOp::Slice: {
    std::vector<bool> Bits = Args[0].toBits();
    size_t Offset = static_cast<size_t>(I.attrs()[0]);
    std::vector<bool> Out(Bits.begin() + Offset,
                          Bits.begin() + Offset + Ty.totalBits());
    return Value::fromBits(Ty, Out);
  }
  case WireOp::Cat: {
    std::vector<bool> Bits = Args[0].toBits();
    std::vector<bool> High = Args[1].toBits();
    Bits.insert(Bits.end(), High.begin(), High.end());
    return Value::fromBits(Ty, Bits);
  }
  case WireOp::Id:
    return Args[0];
  case WireOp::Const: {
    if (I.attrs().size() == 1)
      return Value::splat(Ty, I.attrs()[0]);
    return Value::fromLanes(Ty, I.attrs());
  }
  }
  return fail<Value>("unhandled wire operation");
}

Result<Value> evalComp(const Instr &I, const std::vector<Value> &Args) {
  Type Ty = I.type();
  switch (I.compOp()) {
  case CompOp::Add:
    return mapLanes2(Ty, Args[0], Args[1], [](int64_t A, int64_t B) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) +
                                  static_cast<uint64_t>(B));
    });
  case CompOp::Sub:
    return mapLanes2(Ty, Args[0], Args[1], [](int64_t A, int64_t B) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) -
                                  static_cast<uint64_t>(B));
    });
  case CompOp::Mul:
    return mapLanes2(Ty, Args[0], Args[1], [](int64_t A, int64_t B) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                  static_cast<uint64_t>(B));
    });
  case CompOp::Not:
    // A bool lane is 0 or 1, so its negation flips bit 0 only.
    if (Ty.isBool())
      return mapLanes1(Ty, Args[0], [](int64_t A) { return A ^ 1; });
    return mapLanes1(Ty, Args[0], [](int64_t A) { return ~A; });
  case CompOp::And:
    return mapLanes2(Ty, Args[0], Args[1],
                     [](int64_t A, int64_t B) { return A & B; });
  case CompOp::Or:
    return mapLanes2(Ty, Args[0], Args[1],
                     [](int64_t A, int64_t B) { return A | B; });
  case CompOp::Xor:
    return mapLanes2(Ty, Args[0], Args[1],
                     [](int64_t A, int64_t B) { return A ^ B; });
  case CompOp::Eq:
    return Value::makeBool(Args[0].scalar() == Args[1].scalar());
  case CompOp::Neq:
    return Value::makeBool(Args[0].scalar() != Args[1].scalar());
  case CompOp::Lt:
    return Value::makeBool(Args[0].scalar() < Args[1].scalar());
  case CompOp::Gt:
    return Value::makeBool(Args[0].scalar() > Args[1].scalar());
  case CompOp::Le:
    return Value::makeBool(Args[0].scalar() <= Args[1].scalar());
  case CompOp::Ge:
    return Value::makeBool(Args[0].scalar() >= Args[1].scalar());
  case CompOp::Mux:
    return Args[0].toBool() ? Args[1] : Args[2];
  case CompOp::Reg:
    return fail<Value>("register instructions are stateful; evaluate them "
                       "through the interpreter loop");
  }
  return fail<Value>("unhandled compute operation");
}

} // namespace

Result<Value> reticle::interp::evalPure(const Instr &I,
                                        const std::vector<Value> &Args) {
  assert(Args.size() == I.args().size() && "argument count mismatch");
  return I.isWire() ? evalWire(I, Args) : evalComp(I, Args);
}

Value reticle::interp::evalRegNext(const Value &Current, const Value &Data,
                                   const Value &Enable) {
  return Enable.toBool() ? Data : Current;
}

Value reticle::interp::regInitValue(const ir::Instr &I) {
  assert(I.isReg() && "not a register instruction");
  return Value::splat(I.type(), I.attrs()[0]);
}
