//===- interp/Cycle.cpp - Shared simulation cycle-loop skeleton -------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Cycle.h"

#include <algorithm>

using namespace reticle;
using namespace reticle::sim;

void InputBinder::add(std::string Name, unsigned Slot) {
  Entries.push_back({std::move(Name), Slot});
}

void InputBinder::seal() {
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.Name < B.Name; });
}

void OutputProto::add(std::string Name, unsigned Slot) {
  Entries.push_back({std::move(Name), Slot});
}

void OutputProto::seal() {
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.Name < B.Name; });
}

EngineFrame::EngineFrame(WaveSink *Wave, const obs::Context &Ctx,
                         const char *OwnCounter)
    : SimCycles(&Ctx.counter("sim.cycles")),
      OwnCycles(&Ctx.counter(OwnCounter)), Rec(Wave, Ctx) {}

EngineFrame::~EngineFrame() {
  if (Pending == 0)
    return;
  *SimCycles += Pending;
  *OwnCycles += Pending;
}

std::string EngineFrame::abort(std::string Msg) {
  Rec.finish(/*Aborted=*/true);
  return Msg;
}

Status EngineFrame::finish() { return Rec.finish(/*Aborted=*/false); }
