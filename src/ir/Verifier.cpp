//===- ir/Verifier.cpp - Typing and well-formedness -------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/DefUse.h"
#include "obs/Context.h"

using namespace reticle;
using namespace reticle::ir;

namespace {

Status err(const Instr &I, const std::string &Message) {
  return Status::failure("in '" + I.str() + "': " + Message);
}

Status checkArgCount(const Instr &I, size_t Expected) {
  if (I.args().size() == Expected)
    return Status::success();
  return err(I, "expected " + std::to_string(Expected) + " argument(s), got " +
                    std::to_string(I.args().size()));
}

Status checkAttrCount(const Instr &I, size_t Expected) {
  if (I.attrs().size() == Expected)
    return Status::success();
  return err(I, "expected " + std::to_string(Expected) +
                    " attribute(s), got " + std::to_string(I.attrs().size()));
}

Result<Type> argType(const Function &Fn, const Instr &I, size_t Index) {
  Result<Type> Ty = Fn.typeOf(I.args()[Index]);
  if (!Ty)
    return fail<Type>("in '" + I.str() + "': " + Ty.error());
  return Ty;
}

Status checkWire(const Function &Fn, const Instr &I) {
  Type DstTy = I.type();
  switch (I.wireOp()) {
  case WireOp::Sll:
  case WireOp::Srl:
  case WireOp::Sra: {
    if (Status S = checkArgCount(I, 1); !S)
      return S;
    if (Status S = checkAttrCount(I, 1); !S)
      return S;
    Result<Type> A = argType(Fn, I, 0);
    if (!A)
      return Status::failure(A.error());
    if (!(A.value() == DstTy))
      return err(I, "shift argument type must equal result type");
    if (!DstTy.isInt())
      return err(I, "shifts require an integer type");
    int64_t Amount = I.attrs()[0];
    if (Amount < 0 || Amount >= static_cast<int64_t>(DstTy.width()))
      return err(I, "shift amount out of range for " + DstTy.str());
    return Status::success();
  }
  case WireOp::Slice: {
    if (Status S = checkArgCount(I, 1); !S)
      return S;
    if (Status S = checkAttrCount(I, 1); !S)
      return S;
    Result<Type> A = argType(Fn, I, 0);
    if (!A)
      return Status::failure(A.error());
    int64_t Offset = I.attrs()[0];
    if (Offset < 0 ||
        Offset + DstTy.totalBits() > A.value().totalBits())
      return err(I, "slice range exceeds argument bits");
    return Status::success();
  }
  case WireOp::Cat: {
    if (Status S = checkArgCount(I, 2); !S)
      return S;
    Result<Type> A = argType(Fn, I, 0);
    Result<Type> B = argType(Fn, I, 1);
    if (!A)
      return Status::failure(A.error());
    if (!B)
      return Status::failure(B.error());
    if (A.value().totalBits() + B.value().totalBits() != DstTy.totalBits())
      return err(I, "cat argument bits must sum to result bits");
    return Status::success();
  }
  case WireOp::Id: {
    if (Status S = checkArgCount(I, 1); !S)
      return S;
    Result<Type> A = argType(Fn, I, 0);
    if (!A)
      return Status::failure(A.error());
    if (!(A.value() == DstTy))
      return err(I, "id argument type must equal result type");
    return Status::success();
  }
  case WireOp::Const: {
    if (Status S = checkArgCount(I, 0); !S)
      return S;
    size_t N = I.attrs().size();
    if (N != 1 && N != DstTy.lanes())
      return err(I, "const needs one value (splat) or one per lane");
    return Status::success();
  }
  }
  return Status::success();
}

Status checkComp(const Function &Fn, const Instr &I) {
  Type DstTy = I.type();
  switch (I.compOp()) {
  case CompOp::Add:
  case CompOp::Sub:
  case CompOp::Mul: {
    if (Status S = checkArgCount(I, 2); !S)
      return S;
    if (!DstTy.isInt())
      return err(I, "arithmetic requires an integer type");
    for (size_t K = 0; K < 2; ++K) {
      Result<Type> A = argType(Fn, I, K);
      if (!A)
        return Status::failure(A.error());
      if (!(A.value() == DstTy))
        return err(I, "argument type must equal result type");
    }
    return Status::success();
  }
  case CompOp::And:
  case CompOp::Or:
  case CompOp::Xor: {
    if (Status S = checkArgCount(I, 2); !S)
      return S;
    for (size_t K = 0; K < 2; ++K) {
      Result<Type> A = argType(Fn, I, K);
      if (!A)
        return Status::failure(A.error());
      if (!(A.value() == DstTy))
        return err(I, "argument type must equal result type");
    }
    return Status::success();
  }
  case CompOp::Not: {
    if (Status S = checkArgCount(I, 1); !S)
      return S;
    Result<Type> A = argType(Fn, I, 0);
    if (!A)
      return Status::failure(A.error());
    if (!(A.value() == DstTy))
      return err(I, "argument type must equal result type");
    return Status::success();
  }
  case CompOp::Eq:
  case CompOp::Neq:
  case CompOp::Lt:
  case CompOp::Gt:
  case CompOp::Le:
  case CompOp::Ge: {
    if (Status S = checkArgCount(I, 2); !S)
      return S;
    if (!DstTy.isBool())
      return err(I, "comparison result must be bool");
    Result<Type> A = argType(Fn, I, 0);
    Result<Type> B = argType(Fn, I, 1);
    if (!A)
      return Status::failure(A.error());
    if (!B)
      return Status::failure(B.error());
    if (!(A.value() == B.value()))
      return err(I, "comparison arguments must share one type");
    if (A.value().isVector())
      return err(I, "comparisons are defined on scalars only");
    return Status::success();
  }
  case CompOp::Mux: {
    if (Status S = checkArgCount(I, 3); !S)
      return S;
    Result<Type> C = argType(Fn, I, 0);
    if (!C)
      return Status::failure(C.error());
    if (!C.value().isBool())
      return err(I, "mux condition must be bool");
    for (size_t K = 1; K < 3; ++K) {
      Result<Type> A = argType(Fn, I, K);
      if (!A)
        return Status::failure(A.error());
      if (!(A.value() == DstTy))
        return err(I, "mux branch type must equal result type");
    }
    return Status::success();
  }
  case CompOp::Reg: {
    if (Status S = checkArgCount(I, 2); !S)
      return S;
    if (Status S = checkAttrCount(I, 1); !S)
      return S;
    Result<Type> A = argType(Fn, I, 0);
    Result<Type> En = argType(Fn, I, 1);
    if (!A)
      return Status::failure(A.error());
    if (!En)
      return Status::failure(En.error());
    if (!(A.value() == DstTy))
      return err(I, "register data type must equal result type");
    if (!En.value().isBool())
      return err(I, "register enable must be bool");
    return Status::success();
  }
  }
  return Status::success();
}

} // namespace

Status reticle::ir::checkInstr(const Function &Fn, const Instr &I) {
  return I.isWire() ? checkWire(Fn, I) : checkComp(Fn, I);
}

Result<std::vector<size_t>> reticle::ir::topoOrder(const Function &Fn,
                                                   const obs::Context &Ctx) {
  using OrderT = std::vector<size_t>;
  const DefUse &DU = Fn.defUse(Ctx);
  if (!DU.topoOk())
    return fail<OrderT>("function '" + Fn.name() +
                        "' has a combinational cycle (register-free loop)");
  return DU.topoOrder();
}

Status reticle::ir::verify(const Function &Fn, const obs::Context &Ctx) {
  // Unique port and destination names. The analysis records the first
  // duplicate in scan order (inputs before body), matching the order the
  // old set-insertion loop reported them in.
  const DefUse &DU = Fn.defUse(Ctx);
  if (DU.duplicateKind() == DefUse::Dup::Input)
    return Status::failure("duplicate input '" + DU.duplicateName() + "'");
  if (DU.duplicateKind() == DefUse::Dup::Body)
    return Status::failure("multiple definitions of '" + DU.duplicateName() +
                           "'");

  // All arguments must resolve, and instructions must type-check.
  // checkInstr's type lookups hit the cached analysis through
  // Function::typeOf.
  const std::vector<Instr> &Body = Fn.body();
  for (size_t I = 0; I < Body.size(); ++I) {
    const std::vector<ValueId> &Ids = DU.argIdsOf(I);
    for (size_t K = 0; K < Ids.size(); ++K)
      if (Ids[K] == InvalidValueId)
        return Status::failure("in '" + Body[I].str() +
                               "': undefined variable '" +
                               Body[I].args()[K] + "'");
    if (Status S = checkInstr(Fn, Body[I]); !S)
      return S;
  }

  // Outputs must name defined values with matching types.
  const std::vector<Port> &Outputs = Fn.outputs();
  for (size_t K = 0; K < Outputs.size(); ++K) {
    const Port &P = Outputs[K];
    ValueId Id = DU.outputIdOf(K);
    if (Id == InvalidValueId)
      return Status::failure("output '" + P.Name + "' is never defined");
    if (!(DU.typeOfId(Id) == P.Ty))
      return Status::failure("output '" + P.Name + "' declared " +
                             P.Ty.str() + " but defined as " +
                             DU.typeOfId(Id).str());
  }

  // No combinational cycles.
  if (!DU.topoOk())
    return Status::failure("function '" + Fn.name() +
                           "' has a combinational cycle (register-free loop)");

  return Status::success();
}
