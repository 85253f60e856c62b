//===- obs/Telemetry.cpp - Tracing spans and counters registry -----------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "obs/Context.h"
#include "obs/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

using namespace reticle;
using namespace reticle::obs;

namespace {

struct TraceEvent {
  const char *Name;
  char Phase; // 'X' complete, 'i' instant
  double TsUs;
  double DurUs;
  uint32_t Tid;
  std::string ArgsJson; // rendered "k":v,... body, may be empty
};

struct CounterEntry {
  std::string Name;
  Counter Value;
  explicit CounterEntry(std::string Name) : Name(std::move(Name)) {}
};

/// Trace tids are process-wide so events from several Telemetry instances
/// viewed side by side still distinguish the recording threads.
uint32_t threadId() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

} // namespace

/// Per-instance telemetry state. Entries live in deques so references
/// handed out by counter() stay valid for the instance lifetime.
struct Telemetry::Impl {
  mutable std::mutex Mu;
  std::deque<CounterEntry> Counters;
  std::map<std::string, Counter *, std::less<>> CounterIndex;
  std::vector<TraceEvent> Events;
  std::atomic<bool> Tracing{false};
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

Telemetry::Telemetry() : I(std::make_unique<Impl>()) {}
Telemetry::~Telemetry() = default;

double Telemetry::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - I->Epoch)
      .count();
}

void Telemetry::record(const char *Name, char Phase, double TsUs, double DurUs,
                       std::string ArgsJson) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Events.push_back({Name, Phase, TsUs, DurUs, threadId(), std::move(ArgsJson)});
}

Counter &Telemetry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->CounterIndex.find(Name);
  if (It != I->CounterIndex.end())
    return *It->second;
  I->Counters.emplace_back(std::string(Name));
  Counter *C = &I->Counters.back().Value;
  I->CounterIndex.emplace(std::string(Name), C);
  return *C;
}

bool Telemetry::tracingEnabled() const {
  return I->Tracing.load(std::memory_order_relaxed);
}

void Telemetry::enableTracing(bool On) {
  I->Tracing.store(On, std::memory_order_relaxed);
}

void Telemetry::instant(const char *Name) {
  if (!tracingEnabled())
    return;
  record(Name, 'i', nowUs(), 0.0, std::string());
}

std::string Telemetry::traceJson() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  std::string Out = "{\"traceEvents\":[";
  char Buf[64];
  for (size_t Index = 0; Index < I->Events.size(); ++Index) {
    const TraceEvent &E = I->Events[Index];
    if (Index)
      Out.push_back(',');
    Out += "\n{\"name\":";
    Out += Json::quote(E.Name);
    Out += ",\"ph\":\"";
    Out.push_back(E.Phase);
    Out += "\",\"ts\":";
    std::snprintf(Buf, sizeof(Buf), "%.3f", E.TsUs);
    Out += Buf;
    if (E.Phase == 'X') {
      Out += ",\"dur\":";
      std::snprintf(Buf, sizeof(Buf), "%.3f", E.DurUs);
      Out += Buf;
    } else {
      Out += ",\"s\":\"t\""; // instant scope: thread
    }
    std::snprintf(Buf, sizeof(Buf), ",\"pid\":1,\"tid\":%u", E.Tid);
    Out += Buf;
    if (!E.ArgsJson.empty()) {
      Out += ",\"args\":{";
      Out += E.ArgsJson;
      Out.push_back('}');
    }
    Out.push_back('}');
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

std::string Telemetry::foldedStacks() const {
  std::vector<TraceEvent> Events;
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    for (const TraceEvent &E : I->Events)
      if (E.Phase == 'X')
        Events.push_back(E);
  }

  std::map<uint32_t, std::vector<const TraceEvent *>> ByTid;
  for (const TraceEvent &E : Events)
    ByTid[E.Tid].push_back(&E);

  // Spans record on destruction, i.e. in completion order; re-sorting by
  // start time (ties: longer span first, it is the encloser) restores the
  // call order, after which timestamp containment reconstructs nesting —
  // a span belongs to every still-open span that started before it and
  // ends after it. Self time is a span's duration minus its children's.
  std::map<std::string, double> SelfUs;
  for (auto &[Tid, Evs] : ByTid) {
    (void)Tid;
    std::stable_sort(Evs.begin(), Evs.end(),
                     [](const TraceEvent *A, const TraceEvent *B) {
                       if (A->TsUs != B->TsUs)
                         return A->TsUs < B->TsUs;
                       return A->DurUs > B->DurUs;
                     });
    struct Frame {
      std::string Stack;
      double EndUs;
      double SelfUs;
    };
    std::vector<Frame> Open;
    auto Close = [&](Frame &F) { SelfUs[F.Stack] += F.SelfUs; };
    for (const TraceEvent *E : Evs) {
      while (!Open.empty() && Open.back().EndUs <= E->TsUs) {
        Close(Open.back());
        Open.pop_back();
      }
      std::string Stack = Open.empty()
                              ? std::string(E->Name)
                              : Open.back().Stack + ";" + E->Name;
      if (!Open.empty())
        Open.back().SelfUs -= E->DurUs;
      Open.push_back({std::move(Stack), E->TsUs + E->DurUs, E->DurUs});
    }
    while (!Open.empty()) {
      Close(Open.back());
      Open.pop_back();
    }
  }

  std::string Out;
  for (const auto &[Stack, Us] : SelfUs) {
    long long N = std::llround(Us);
    if (N < 0)
      N = 0;
    Out += Stack;
    Out.push_back(' ');
    Out += std::to_string(N);
    Out.push_back('\n');
  }
  return Out;
}

Json Telemetry::countersJson() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  Json Counters = Json::object();
  for (const CounterEntry &E : I->Counters)
    Counters.set(E.Name, E.Value.load());
  return Counters;
}

Span::Span(Telemetry &Telem, const char *Name) : Telem(&Telem), Name(Name) {
  if (!Telem.tracingEnabled())
    return;
  Active = true;
  StartUs = Telem.nowUs();
}

Span::Span(const Context &Ctx, const char *Name) : Span(*Ctx.Telem, Name) {}

Span::~Span() {
  if (!Active)
    return;
  double EndUs = Telem->nowUs();
  Telem->record(Name, 'X', StartUs, EndUs - StartUs, std::move(ArgsJson));
}

void Span::append(const char *Key, std::string Rendered) {
  if (!Active)
    return;
  if (!ArgsJson.empty())
    ArgsJson.push_back(',');
  ArgsJson += Json::quote(Key);
  ArgsJson.push_back(':');
  ArgsJson += Rendered;
}

void Span::arg(const char *Key, int64_t Value) {
  if (Active)
    append(Key, std::to_string(Value));
}

void Span::arg(const char *Key, uint64_t Value) {
  if (Active)
    append(Key, std::to_string(Value));
}

void Span::arg(const char *Key, double Value) {
  if (!Active)
    return;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.12g", Value);
  append(Key, Buf);
}

void Span::arg(const char *Key, const char *Value) {
  if (Active)
    append(Key, Json::quote(Value));
}

void Span::arg(const char *Key, const std::string &Value) {
  if (Active)
    append(Key, Json::quote(Value));
}
