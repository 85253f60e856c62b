//===- obs/Remarks.cpp - Optimization remarks engine ---------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "obs/Remarks.h"

#include "obs/Context.h"

#include <atomic>
#include <mutex>
#include <vector>

using namespace reticle;
using namespace reticle::obs;

/// Per-instance remark state. Records are committed fully formed under the
/// lock; readers snapshot under the same lock.
struct RemarkStream::Impl {
  mutable std::mutex Mu;
  std::vector<Json> Records;
  std::atomic<bool> Enabled{false};
};

RemarkStream::RemarkStream() : I(std::make_unique<Impl>()) {}
RemarkStream::~RemarkStream() = default;

bool RemarkStream::enabled() const {
  return I->Enabled.load(std::memory_order_relaxed);
}

void RemarkStream::enable(bool On) {
  I->Enabled.store(On, std::memory_order_relaxed);
}

size_t RemarkStream::count() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Records.size();
}

void RemarkStream::commit(Json Record) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Records.push_back(std::move(Record));
}

std::string RemarkStream::text() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  std::string Out;
  for (const Json &R : I->Records) {
    const Json *Stage = R.find("stage");
    const Json *Kind = R.find("kind");
    const Json *Instr = R.find("instr");
    const Json *Message = R.find("message");
    Out += Stage->asString();
    Out.push_back(':');
    Out += Kind->asString();
    Out += ": ";
    if (Instr) {
      Out.push_back('\'');
      Out += Instr->asString();
      Out += "': ";
    }
    Out += Message->asString();
    if (const Json *Args = R.find("args"); Args && Args->size()) {
      Out += "  {";
      bool First = true;
      for (const auto &[Key, Value] : Args->members()) {
        if (!First)
          Out += ", ";
        First = false;
        Out += Key;
        Out.push_back('=');
        Out += Value.isString() ? Value.asString() : Value.str();
      }
      Out.push_back('}');
    }
    Out.push_back('\n');
  }
  return Out;
}

std::string RemarkStream::jsonl(std::string_view Program) const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  Json Header = Json::object();
  Header.set("schema", "reticle-remarks-v1");
  Header.set("program", std::string(Program));
  Header.set("remarks", static_cast<uint64_t>(I->Records.size()));
  std::string Out = Header.str();
  Out.push_back('\n');
  for (const Json &R : I->Records) {
    Out += R.str();
    Out.push_back('\n');
  }
  return Out;
}

Remark::Remark(RemarkStream &Stream, const char *Stage, const char *Kind)
    : Stream(&Stream), Active(Stream.enabled()), Stage(Stage), Kind(Kind) {
  if (Active)
    Args = Json::object();
}

Remark::Remark(const Context &Ctx, const char *Stage, const char *Kind)
    : Remark(*Ctx.Rem, Stage, Kind) {}

Remark::~Remark() {
  if (!Active)
    return;
  Json Record = Json::object();
  Record.set("stage", Stage);
  Record.set("kind", Kind);
  if (!Instr.empty())
    Record.set("instr", Instr);
  Record.set("message", std::move(Message));
  if (Args.size())
    Record.set("args", std::move(Args));
  Stream->commit(std::move(Record));
}

Remark &Remark::instr(std::string_view Name) {
  if (Active)
    Instr = std::string(Name);
  return *this;
}

Remark &Remark::message(std::string Text) {
  if (Active)
    Message = std::move(Text);
  return *this;
}

Remark &Remark::arg(const char *Key, int64_t Value) {
  if (Active)
    Args.set(Key, Value);
  return *this;
}

Remark &Remark::arg(const char *Key, uint64_t Value) {
  if (Active)
    Args.set(Key, Value);
  return *this;
}

Remark &Remark::arg(const char *Key, double Value) {
  if (Active)
    Args.set(Key, Value);
  return *this;
}

Remark &Remark::arg(const char *Key, const char *Value) {
  if (Active)
    Args.set(Key, Value);
  return *this;
}

Remark &Remark::arg(const char *Key, std::string Value) {
  if (Active)
    Args.set(Key, std::move(Value));
  return *this;
}
