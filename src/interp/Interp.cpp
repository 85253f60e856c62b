//===- interp/Interp.cpp - The Reticle interpreter ---------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Cycle.h"
#include "interp/Eval.h"
#include "ir/Verifier.h"

using namespace reticle;
using namespace reticle::interp;
using ir::Function;
using ir::Instr;

Result<Trace> reticle::interp::interpret(const Function &Fn,
                                         const Trace &Input) {
  return interpret(Fn, Input, nullptr, obs::Sinks().context());
}

Result<Trace> reticle::interp::interpret(const Function &Fn,
                                         const Trace &Input,
                                         sim::WaveSink *Wave,
                                         const obs::Context &Ctx) {
  obs::Span Sp(Ctx, "interp.execute");
  // WellFormedCheck (Algorithm 1, line 2): verify and split the body into a
  // topologically ordered pure queue P and a register queue R, seeding the
  // environment with register initial values.
  if (Status S = ir::verify(Fn, Ctx); !S)
    return fail<Trace>(S.error());
  Result<std::vector<size_t>> OrderOr = ir::topoOrder(Fn, Ctx);
  if (!OrderOr)
    return fail<Trace>(OrderOr.error());
  const std::vector<size_t> &PureOrder = OrderOr.value();

  // The environment is a flat vector indexed by the function's ValueIds
  // (the verify call above warmed the cached analysis).
  const ir::DefUse &DU = Fn.defUse(Ctx);
  std::vector<Value> Env(DU.numValues());

  std::vector<size_t> RegIndices;
  const std::vector<Instr> &Body = Fn.body();
  for (size_t I = 0; I < Body.size(); ++I) {
    if (!Body[I].isReg())
      continue;
    RegIndices.push_back(I);
    Env[DU.dstIdOf(I)] = regInitValue(Body[I]);
  }

  // Port names resolve to ids once per run, not once per cycle; the
  // shared binder/prototype do the per-cycle merge walk and cloning.
  sim::InputBinder Binder;
  std::vector<const ir::Port *> InputPorts(DU.numInputs());
  for (const ir::Port &P : Fn.inputs()) {
    ir::ValueId Id = DU.idOf(P.Name);
    Binder.add(P.Name, Id);
    InputPorts[Id] = &P;
  }
  Binder.seal();

  sim::OutputProto Proto;
  for (const ir::Port &P : Fn.outputs())
    Proto.add(P.Name, DU.idOf(P.Name));
  Proto.seal();

  obs::Counter &Evals = Ctx.counter("interp.evals");

  sim::EngineFrame Frame(Wave, Ctx, "interp.cycles");
  if (Frame.waveActive()) {
    std::vector<sim::WaveSignal> Signals;
    Signals.reserve(DU.numValues());
    for (ir::ValueId Id = 0; Id < DU.numValues(); ++Id) {
      sim::WaveSignal::Kind K = DU.isInputId(Id)
                                    ? sim::WaveSignal::Kind::Input
                                    : (DU.isLiveOut(Id)
                                           ? sim::WaveSignal::Kind::Output
                                           : sim::WaveSignal::Kind::Internal);
      Signals.emplace_back(DU.nameOf(Id), DU.typeOfId(Id).totalBits(), K);
    }
    if (Status S = Frame.recorder().begin(std::move(Signals)); !S)
      return fail<Trace>(S.error());
  }

  Trace Output;
  for (size_t Cycle = 0; Cycle < Input.size(); ++Cycle) {
    Frame.beginCycle();

    // Update(env, step_in, inputs): bind every declared input.
    Status Bound = Binder.bind(
        Input.step(Cycle), Cycle, [&](unsigned Slot, const Value &V) {
          const ir::Port &P = *InputPorts[Slot];
          if (!(V.type() == P.Ty))
            return Status::failure("cycle " + std::to_string(Cycle) +
                                   ": input '" + P.Name + "' has type " +
                                   V.type().str() + ", expected " +
                                   P.Ty.str());
          Env[Slot] = V;
          return Status::success();
        });
    if (!Bound)
      return fail<Trace>(Frame.abort(Bound.error()));

    // Eval(env, P): pure instructions in dependency order.
    for (size_t Index : PureOrder) {
      const Instr &I = Body[Index];
      std::vector<Value> Args;
      Args.reserve(I.args().size());
      for (ir::ValueId Arg : DU.argIdsOf(Index))
        Args.push_back(Env[Arg]);
      Result<Value> V = evalPure(I, Args);
      if (!V)
        return fail<Trace>(Frame.abort(V.error()));
      Env[DU.dstIdOf(Index)] = V.take();
    }
    Evals += PureOrder.size();

    // Step(env, outputs): snapshot declared outputs into a clone of the
    // prototype step, filling values by map position.
    Proto.emit(Output, [&](unsigned Slot) { return Env[Slot]; });

    // The waveform observes post-eval, pre-register-update state: inputs
    // as bound, combinational values as computed, registers showing the
    // value they held during the cycle (matching FDRE Q).
    if (Frame.waveActive()) {
      Frame.recorder().cycle(Cycle);
      for (ir::ValueId Id = 0; Id < DU.numValues(); ++Id)
        Frame.recorder().recordBits(Id, Env[Id].toBits());
    }

    // Eval(env, R): all registers update simultaneously on the clock edge,
    // reading pre-update state.
    std::vector<Value> NextStates;
    NextStates.reserve(RegIndices.size());
    for (size_t Index : RegIndices) {
      const std::vector<ir::ValueId> &ArgIds = DU.argIdsOf(Index);
      NextStates.push_back(evalRegNext(Env[DU.dstIdOf(Index)],
                                       Env[ArgIds[0]], Env[ArgIds[1]]));
    }
    for (size_t K2 = 0; K2 < RegIndices.size(); ++K2)
      Env[DU.dstIdOf(RegIndices[K2])] = std::move(NextStates[K2]);
  }
  if (Status S = Frame.finish(); !S)
    return fail<Trace>(S.error());
  return Output;
}
