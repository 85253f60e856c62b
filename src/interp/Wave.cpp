//===- interp/Wave.cpp - Per-cycle waveform sinks -------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Wave.h"

#include "obs/Json.h"

#include <algorithm>
#include <bit>

using namespace reticle;
using namespace reticle::sim;

namespace {

/// The bits a signal of \p Width keeps in its top word.
uint64_t topMask(unsigned Width) {
  unsigned Rem = Width % 64;
  return Rem == 0 ? ~uint64_t(0) : (uint64_t(1) << Rem) - 1;
}

/// Word \p I of \p Words read as a normalized value of \p Width: words
/// past the span read as zero and the top word is masked to the width.
uint64_t wordAt(std::span<const uint64_t> Words, size_t I, unsigned Width) {
  uint64_t W = I < Words.size() ? Words[I] : 0;
  return I + 1 == waveWords(Width) ? W & topMask(Width) : W;
}

/// Appends the low \p Width bits of \p Words to \p Out, MSB first.
void appendBits(std::string &Out, std::span<const uint64_t> Words,
                unsigned Width) {
  size_t At = Out.size();
  Out.resize(At + Width);
  char *P = Out.data() + At;
  for (size_t I = waveWords(Width); I-- > 0;) {
    uint64_t W = I < Words.size() ? Words[I] : 0;
    for (unsigned B = std::min(64u, Width - static_cast<unsigned>(I) * 64);
         B-- > 0;)
      *P++ = static_cast<char>('0' + ((W >> B) & 1));
  }
}

} // namespace

void sim::packBits(const std::vector<bool> &Bits, unsigned Width,
                   std::vector<uint64_t> &Out) {
  Out.assign(waveWords(Width), 0);
  size_t N = std::min<size_t>(Bits.size(), Width);
  for (size_t B = 0; B < N; ++B)
    if (Bits[B])
      Out[B / 64] |= uint64_t(1) << (B % 64);
}

std::string sim::bitsToString(const std::vector<bool> &Bits) {
  std::string S;
  S.reserve(Bits.size());
  for (size_t I = Bits.size(); I-- > 0;)
    S += Bits[I] ? '1' : '0';
  return S;
}

//===----------------------------------------------------------------------===//
// WaveRecorder
//===----------------------------------------------------------------------===//

WaveRecorder::WaveRecorder(WaveSink *Sink, const obs::Context &Ctx)
    : Sink(Sink) {
  if (Sink) {
    Events = &Ctx.counter("sim.events");
    Toggles = &Ctx.counter("sim.toggles");
    SignalsCount = &Ctx.counter("sim.signals");
  }
}

Status WaveRecorder::begin(std::vector<WaveSignal> Sigs) {
  if (!Sink)
    return Status::success();
  Signals = std::move(Sigs);
  WordBase.clear();
  size_t Words = 0;
  for (const WaveSignal &S : Signals) {
    WordBase.push_back(Words);
    Words += waveWords(S.Width);
  }
  Last.assign(Words, 0);
  Seen.assign(Signals.size(), 0);
  *SignalsCount += Signals.size();
  return Sink->begin(Signals);
}

void WaveRecorder::cycle(uint64_t Cycle) {
  if (Sink)
    Sink->beginCycle(Cycle);
}

void WaveRecorder::record(unsigned Id, std::span<const uint64_t> Words) {
  if (!Sink || Id >= Signals.size())
    return;
  const unsigned Width = Signals[Id].Width;
  const size_t N = waveWords(Width);
  if (Words.size() != N || (Words[N - 1] & ~topMask(Width)) != 0) {
    Scratch.resize(N);
    for (size_t I = 0; I < N; ++I)
      Scratch[I] = wordAt(Words, I, Width);
    Words = {Scratch.data(), N};
  }
  uint64_t *Prev = Last.data() + WordBase[Id];
  bool Changed = true;
  if (!Seen[Id]) {
    // First sight: every bit counts as a toggle.
    Seen[Id] = 1;
    PendingToggles += Width;
  } else {
    uint64_t Flipped = 0;
    for (size_t I = 0; I < N; ++I)
      Flipped += std::popcount(Prev[I] ^ Words[I]);
    PendingToggles += Flipped;
    Changed = Flipped != 0;
  }
  ++PendingEvents;
  Sink->value(Id, Words, Changed);
  if (Changed)
    std::copy(Words.begin(), Words.end(), Prev);
}

void WaveRecorder::recordBits(unsigned Id, const std::vector<bool> &Bits) {
  if (!Sink || Id >= Signals.size())
    return;
  packBits(Bits, Signals[Id].Width, Scratch);
  // Packed words already have the normalized shape, so record() reads
  // Scratch without rewriting it.
  record(Id, Scratch);
}

void WaveRecorder::flushCounts() {
  if (!Sink)
    return;
  *Events += PendingEvents;
  *Toggles += PendingToggles;
  PendingEvents = 0;
  PendingToggles = 0;
}

Status WaveRecorder::finish(bool Aborted) {
  if (!Sink)
    return Status::success();
  flushCounts();
  return Sink->finish(Aborted);
}

//===----------------------------------------------------------------------===//
// WaveCapture
//===----------------------------------------------------------------------===//

Status WaveCapture::begin(const std::vector<WaveSignal> &Signals) {
  Sigs = Signals;
  LastOffset.assign(Sigs.size(), NoValue);
  return Status::success();
}

void WaveCapture::beginCycle(uint64_t Cycle) {
  size_t Had = ByCycle.size();
  ByCycle.resize(std::max<size_t>(Had, Cycle + 1));
  for (size_t C = Had; C < ByCycle.size(); ++C)
    ByCycle[C].reserve(Sigs.size());
}

void WaveCapture::value(unsigned Id, std::span<const uint64_t> Words,
                        bool Changed) {
  if (Id >= Sigs.size())
    return;
  if (ByCycle.empty())
    ByCycle.emplace_back();
  const unsigned Width = Sigs[Id].Width;
  const size_t N = waveWords(Width);
  size_t &Prev = LastOffset[Id];
  bool Same = Prev != NoValue;
  for (size_t I = 0; Same && I < N; ++I)
    Same = Arena[Prev + I] == wordAt(Words, I, Width);
  if (!Same) {
    Prev = Arena.size();
    for (size_t I = 0; I < N; ++I)
      Arena.push_back(wordAt(Words, I, Width));
  }
  ByCycle.back().push_back(Event{Id, Changed, Prev});
}

Status WaveCapture::finish(bool WasAborted) {
  Done = true;
  Aborted = WasAborted;
  return Status::success();
}

std::optional<std::span<const uint64_t>>
WaveCapture::valueAt(uint64_t Cycle, std::string_view Name) const {
  if (Cycle >= ByCycle.size())
    return std::nullopt;
  for (const Event &E : ByCycle[Cycle])
    if (Sigs[E.Id].Name == Name)
      return words(E);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

Status sim::replay(
    const std::vector<std::pair<const WaveCapture *, std::string>> &Sources,
    WaveSink &Out) {
  std::vector<WaveSignal> Merged;
  std::vector<unsigned> Offset;
  uint64_t Cycles = 0;
  bool Aborted = false;
  for (const auto &[Cap, Prefix] : Sources) {
    Offset.push_back(static_cast<unsigned>(Merged.size()));
    for (const WaveSignal &S : Cap->signals()) {
      std::string Name = Prefix.empty() ? S.Name : Prefix + "." + S.Name;
      Merged.emplace_back(std::move(Name), S.Width, S.SigKind);
    }
    Cycles = std::max(Cycles, Cap->cycles());
    Aborted = Aborted || Cap->aborted();
  }
  if (Status S = Out.begin(Merged); !S.ok())
    return S;
  for (uint64_t C = 0; C < Cycles; ++C) {
    Out.beginCycle(C);
    for (size_t I = 0; I < Sources.size(); ++I) {
      const WaveCapture &Cap = *Sources[I].first;
      if (C >= Cap.cycles())
        continue;
      for (const WaveCapture::Event &E : Cap.eventsByCycle()[C])
        Out.value(Offset[I] + E.Id, Cap.words(E), E.Changed);
    }
  }
  return Out.finish(Aborted);
}

//===----------------------------------------------------------------------===//
// ToggleCoverageSink
//===----------------------------------------------------------------------===//

Status ToggleCoverageSink::begin(const std::vector<WaveSignal> &Signals) {
  Sigs = Signals;
  WordBase.clear();
  BitBase.clear();
  size_t Words = 0, Bits = 0;
  for (const WaveSignal &S : Sigs) {
    WordBase.push_back(Words);
    BitBase.push_back(Bits);
    Words += waveWords(S.Width);
    Bits += S.Width;
  }
  Last.assign(Words, 0);
  Rises.assign(Bits, 0);
  Falls.assign(Bits, 0);
  Seen.assign(Sigs.size(), 0);
  return Status::success();
}

void ToggleCoverageSink::beginCycle(uint64_t) {}

void ToggleCoverageSink::value(unsigned Id, std::span<const uint64_t> Words,
                               bool Changed) {
  if (Id >= Sigs.size())
    return;
  const unsigned Width = Sigs[Id].Width;
  const size_t N = waveWords(Width);
  uint64_t *Prev = Last.data() + WordBase[Id];
  if (!Seen[Id]) {
    // Baseline: the first reported value is an x->v assignment, not a
    // toggle.
    Seen[Id] = 1;
    for (size_t I = 0; I < N; ++I)
      Prev[I] = wordAt(Words, I, Width);
    return;
  }
  if (!Changed)
    return;
  uint64_t *Rise = Rises.data() + BitBase[Id];
  uint64_t *Fall = Falls.data() + BitBase[Id];
  for (size_t I = 0; I < N; ++I) {
    uint64_t Old = Prev[I];
    uint64_t New = wordAt(Words, I, Width);
    uint64_t Flipped = Old ^ New;
    if (Flipped == 0)
      continue;
    for (uint64_t R = Flipped & New; R != 0; R &= R - 1)
      ++Rise[I * 64 + std::countr_zero(R)];
    for (uint64_t F = Flipped & Old; F != 0; F &= F - 1)
      ++Fall[I * 64 + std::countr_zero(F)];
    Prev[I] = New;
  }
}

Status ToggleCoverageSink::finish(bool) {
  // Bins appear only for edges seen, named after the flattened bit.
  for (size_t Id = 0; Id < Sigs.size(); ++Id) {
    for (unsigned B = 0; B < Sigs[Id].Width; ++B) {
      size_t At = BitBase[Id] + B;
      for (auto [Count, Edge] : {std::pair{Rises[At], "]:01"},
                                 std::pair{Falls[At], "]:10"}})
        if (Count != 0)
          Cov.hit("sim.toggle",
                  Sigs[Id].Name + "[" + std::to_string(B) + Edge, Count);
    }
  }
  // A second finish must not count the same edges twice.
  std::fill(Rises.begin(), Rises.end(), 0);
  std::fill(Falls.begin(), Falls.end(), 0);
  return Status::success();
}

//===----------------------------------------------------------------------===//
// VcdWriter
//===----------------------------------------------------------------------===//

VcdWriter::VcdWriter(std::string Top) : Top(std::move(Top)) {}

std::string VcdWriter::idCode(unsigned Id) {
  // Base-94 over the printable ASCII range 33..126, least significant
  // digit first; one character covers the first 94 signals.
  std::string Code;
  do {
    Code += static_cast<char>(33 + Id % 94);
    Id /= 94;
  } while (Id > 0);
  return Code;
}

Status VcdWriter::begin(const std::vector<WaveSignal> &Signals) {
  Sigs = Signals;
  Codes.clear();
  for (unsigned Id = 0; Id < Sigs.size(); ++Id)
    Codes.push_back(idCode(Id));
  Out += "$version reticle wave writer $end\n";
  Out += "$timescale 1ns $end\n";
  Out += "$scope module " + Top + " $end\n";

  // Group dotted names (`interp.y`) into sub-scopes on the first dot,
  // preserving first-appearance order; undotted names live in the top
  // scope and are emitted first.
  std::vector<std::string> ScopeOrder;
  auto ScopeOf = [](const std::string &Name) {
    size_t Dot = Name.find('.');
    return Dot == std::string::npos ? std::string() : Name.substr(0, Dot);
  };
  auto LeafOf = [](const std::string &Name) {
    size_t Dot = Name.find('.');
    return Dot == std::string::npos ? Name : Name.substr(Dot + 1);
  };
  for (const WaveSignal &S : Sigs) {
    std::string Scope = ScopeOf(S.Name);
    if (!Scope.empty() &&
        std::find(ScopeOrder.begin(), ScopeOrder.end(), Scope) ==
            ScopeOrder.end())
      ScopeOrder.push_back(Scope);
  }
  auto EmitVar = [&](unsigned Id) {
    const WaveSignal &S = Sigs[Id];
    std::string Leaf = LeafOf(S.Name);
    Out += "$var wire " + std::to_string(S.Width) + " " + Codes[Id] + " " +
           Leaf;
    if (S.Width > 1)
      Out += " [" + std::to_string(S.Width - 1) + ":0]";
    Out += " $end\n";
  };
  for (unsigned Id = 0; Id < Sigs.size(); ++Id)
    if (ScopeOf(Sigs[Id].Name).empty())
      EmitVar(Id);
  for (const std::string &Scope : ScopeOrder) {
    Out += "$scope module " + Scope + " $end\n";
    for (unsigned Id = 0; Id < Sigs.size(); ++Id)
      if (ScopeOf(Sigs[Id].Name) == Scope)
        EmitVar(Id);
    Out += "$upscope $end\n";
  }
  Out += "$upscope $end\n";
  Out += "$enddefinitions $end\n";

  // Everything is unknown until its first recorded value — registers show
  // as x before the first clock edge.
  Out += "$dumpvars\n";
  for (unsigned Id = 0; Id < Sigs.size(); ++Id) {
    Out += Sigs[Id].Width == 1 ? "x" : "bx ";
    Out += Codes[Id];
    Out += '\n';
  }
  Out += "$end\n";
  return Status::success();
}

void VcdWriter::beginCycle(uint64_t Cycle) {
  Out += '#';
  Out += std::to_string(Cycle);
  Out += '\n';
  LastCycle = Cycle;
  AnyCycle = true;
}

void VcdWriter::value(unsigned Id, std::span<const uint64_t> Words,
                      bool Changed) {
  if (!Changed || Id >= Sigs.size())
    return;
  if (Sigs[Id].Width == 1) {
    Out += !Words.empty() && (Words[0] & 1) ? '1' : '0';
  } else {
    Out += 'b';
    appendBits(Out, Words, Sigs[Id].Width);
    Out += ' ';
  }
  Out += Codes[Id];
  Out += '\n';
}

Status VcdWriter::finish(bool Aborted) {
  if (AnyCycle) {
    Out += '#';
    Out += std::to_string(LastCycle + 1);
    Out += '\n';
  }
  if (Aborted)
    Out += "$comment aborted $end\n";
  return Status::success();
}

//===----------------------------------------------------------------------===//
// WaveJsonWriter
//===----------------------------------------------------------------------===//

WaveJsonWriter::WaveJsonWriter(std::string Top, std::string Engine)
    : Top(std::move(Top)), Engine(std::move(Engine)),
      RecordHead("{\"cycle\":0,\"signal\":") {}

static const char *kindName(WaveSignal::Kind K) {
  switch (K) {
  case WaveSignal::Kind::Input:
    return "input";
  case WaveSignal::Kind::Output:
    return "output";
  case WaveSignal::Kind::Internal:
    return "internal";
  }
  return "internal";
}

Status WaveJsonWriter::begin(const std::vector<WaveSignal> &Signals) {
  Sigs = Signals;
  Quoted.clear();
  obs::Json Header = obs::Json::object();
  Header.set("schema", "reticle-wave-v1");
  Header.set("top", Top);
  Header.set("engine", Engine);
  obs::Json List = obs::Json::array();
  for (const WaveSignal &S : Sigs) {
    obs::Json Sig = obs::Json::object();
    Sig.set("name", S.Name);
    Sig.set("width", S.Width);
    Sig.set("kind", kindName(S.SigKind));
    List.push(std::move(Sig));
    Quoted.push_back(obs::Json::quote(S.Name));
  }
  Header.set("signals", std::move(List));
  Out += Header.str() + "\n";
  return Status::success();
}

void WaveJsonWriter::beginCycle(uint64_t C) {
  RecordHead = "{\"cycle\":" + std::to_string(C) + ",\"signal\":";
  Cycles = std::max(Cycles, C + 1);
}

void WaveJsonWriter::value(unsigned Id, std::span<const uint64_t> Words,
                           bool /*Changed*/) {
  if (Id >= Sigs.size())
    return;
  // Records are emitted for every signal every cycle (no suppression), so
  // consumers can join on {cycle, signal} without reconstructing state.
  Out += RecordHead;
  Out += Quoted[Id];
  Out += ",\"value\":\"";
  appendBits(Out, Words, Sigs[Id].Width);
  Out += "\"}\n";
}

Status WaveJsonWriter::finish(bool Aborted) {
  obs::Json Footer = obs::Json::object();
  Footer.set("cycles", Cycles);
  Footer.set("aborted", Aborted);
  Out += Footer.str() + "\n";
  return Status::success();
}
