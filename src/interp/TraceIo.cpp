//===- interp/TraceIo.cpp - Input-trace parsing ---------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/TraceIo.h"

#include "obs/Json.h"

#include <map>

using namespace reticle;
using namespace reticle::interp;

namespace {

/// True for a JSON integer literal. Fractions, exponents and integers
/// beyond int64 parse as doubles; reading those with asInt() would
/// truncate or overflow, so trace values must be exact integers.
bool isInteger(const obs::Json &J) { return J.kind() == obs::Json::Kind::Int; }

/// Converts one JSON value to a typed interpreter value, or explains why
/// it cannot be.
Result<Value> convertValue(const obs::Json &J, const ir::Type &Ty,
                           const std::string &Where) {
  if (Ty.isBool()) {
    if (J.isBool())
      return Value::makeBool(J.asBool());
    if (isInteger(J) && (J.asInt() == 0 || J.asInt() == 1))
      return Value::makeBool(J.asInt() != 0);
    return fail<Value>(Where + ": expected a boolean");
  }
  if (Ty.lanes() == 1) {
    if (!J.isNumber())
      return fail<Value>(Where + ": expected an integer");
    if (!isInteger(J))
      return fail<Value>(Where + ": expected an integer, got " + J.str());
    return Value::splat(Ty, J.asInt());
  }
  if (!J.isArray())
    return fail<Value>(Where + ": expected an array of " +
                       std::to_string(Ty.lanes()) + " integers");
  if (J.size() != Ty.lanes())
    return fail<Value>(Where + ": expected " + std::to_string(Ty.lanes()) +
                       " lanes, got " + std::to_string(J.size()));
  std::vector<int64_t> Lanes;
  Lanes.reserve(J.size());
  for (const obs::Json &Lane : J.items()) {
    if (!Lane.isNumber())
      return fail<Value>(Where + ": expected an array of integers");
    if (!isInteger(Lane))
      return fail<Value>(Where + ": expected an array of integers, lane " +
                         std::to_string(Lanes.size()) + " is " + Lane.str());
    Lanes.push_back(Lane.asInt());
  }
  return Value::fromLanes(Ty, std::move(Lanes));
}

} // namespace

Result<Trace> sim::parseInputTrace(const std::string &Text,
                                   const ir::Function &Fn) {
  Result<obs::Json> Doc = obs::Json::parse(Text);
  if (!Doc.ok())
    return fail<Trace>("input trace: " + Doc.error());
  const obs::Json &Root = Doc.value();
  if (!Root.isObject())
    return fail<Trace>("input trace: expected a JSON object");
  const obs::Json *Schema = Root.find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->asString() != "reticle-input-trace-v1")
    return fail<Trace>("input trace: expected schema 'reticle-input-trace-v1'");
  const obs::Json *Cycles = Root.find("cycles");
  if (!Cycles || !Cycles->isArray())
    return fail<Trace>("input trace: expected a 'cycles' array");

  std::map<std::string, const ir::Port *> PortOf;
  for (const ir::Port &P : Fn.inputs())
    PortOf[P.Name] = &P;
  // "cycle" is a reserved self-check key: when present it must equal the
  // record's index, catching reordered or dropped records in generated
  // traces. A function whose input port is literally named "cycle" keeps
  // the key for itself.
  const bool CycleKeyReserved = !PortOf.count("cycle");

  Trace Out;
  size_t CycleNo = 0;
  for (const obs::Json &CycleObj : Cycles->items()) {
    std::string Where = "input trace cycle " + std::to_string(CycleNo);
    if (!CycleObj.isObject())
      return fail<Trace>(Where + ": expected an object");
    Step &S = Out.appendStep();
    for (const auto &[Name, Val] : CycleObj.members()) {
      if (CycleKeyReserved && Name == "cycle") {
        if (Val.isNumber() && !isInteger(Val))
          return fail<Trace>(Where + ": reserved key 'cycle' is " +
                             Val.str() + ", expected the integer " +
                             std::to_string(CycleNo));
        if (!Val.isNumber() ||
            Val.asInt() != static_cast<int64_t>(CycleNo))
          return fail<Trace>(
              Where + ": non-monotone cycle record: 'cycle' is " +
              (Val.isNumber() ? std::to_string(Val.asInt())
                              : std::string("not a number")) +
              ", expected " + std::to_string(CycleNo));
        continue;
      }
      auto It = PortOf.find(Name);
      if (It == PortOf.end())
        return fail<Trace>(Where + ": unknown input '" + Name + "'");
      Result<Value> V = convertValue(Val, It->second->Ty,
                                     Where + ", input '" + Name + "'");
      if (!V.ok())
        return fail<Trace>(V.error());
      S[Name] = V.take();
    }
    for (const ir::Port &P : Fn.inputs())
      if (!S.count(P.Name))
        return fail<Trace>(Where + ": input '" + P.Name + "' missing");
    ++CycleNo;
  }
  return std::move(Out);
}
