//===- interp/Wave.cpp - Per-cycle waveform sinks -------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "interp/Wave.h"

#include "obs/Coverage.h"
#include "obs/Json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <map>
#include <numeric>

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

/// The eight binary digits of every byte value, MSB first. Char arrays,
/// not words, so the table reads the same on any endianness.
struct ByteDigits {
  char Of[256][8];
};

constexpr ByteDigits makeByteDigits() {
  ByteDigits T{};
  for (unsigned V = 0; V < 256; ++V)
    for (unsigned B = 0; B < 8; ++B)
      T.Of[V][B] = (V >> (7 - B)) & 1 ? '1' : '0';
  return T;
}

constexpr ByteDigits Digits = makeByteDigits();

/// Writes the low \p Width bits of \p Words at \p P, MSB first, eight
/// digits per byte; returns one past the last digit.
char *writeBits(char *P, std::span<const uint64_t> Words, unsigned Width) {
  for (size_t I = waveWords(Width); I-- > 0;) {
    uint64_t W = I < Words.size() ? Words[I] : 0;
    unsigned Bits = std::min(64u, Width - static_cast<unsigned>(I) * 64);
    // A partial top byte takes the tail of its table entry.
    if (unsigned Rem = Bits % 8) {
      uint64_t Top = (W >> (Bits - Rem)) & ((1u << Rem) - 1);
      std::memcpy(P, Digits.Of[Top] + (8 - Rem), Rem);
      P += Rem;
    }
    for (unsigned B = Bits / 8; B-- > 0; P += 8)
      std::memcpy(P, Digits.Of[(W >> (8 * B)) & 0xFF], 8);
  }
  return P;
}

/// Copies \p S to \p P; returns one past its end.
char *writeText(char *P, std::string_view S) {
  std::memcpy(P, S.data(), S.size());
  return P + S.size();
}

/// Grows \p Out by \p N characters and returns where they start: one
/// capacity check per record, which the caller then fills.
char *extend(std::string &Out, size_t N) {
  size_t At = Out.size();
  Out.resize(At + N);
  return Out.data() + At;
}

/// The bin suffix `<decimal>]` of bit \p B, written at \p P; returns one
/// past its end.
char *writeBitIndex(char *P, unsigned B) {
  P = std::to_chars(P, P + 10, B).ptr;
  *P++ = ']';
  return P;
}

/// Bits 0 .. \p Width - 1 in the order their `<decimal>]` suffixes sort,
/// which is the order their bins take in the registry.
std::vector<unsigned> binOrder(unsigned Width) {
  std::vector<unsigned> Order(Width);
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [](unsigned A, unsigned B) {
    char SA[12], SB[12];
    return std::string_view(SA, writeBitIndex(SA, A) - SA) <
           std::string_view(SB, writeBitIndex(SB, B) - SB);
  });
  return Order;
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

Status WaveRecorder::begin(std::vector<WaveSignal> Signals) {
  if (!Sink)
    return Status::success();
  Slots.clear();
  size_t Words = 0;
  for (const WaveSignal &S : Signals) {
    Slots.push_back({Words, S.Width, false});
    Words += waveWords(S.Width);
  }
  Last.assign(Words, 0);
  *SignalsCount += Signals.size();
  return Sink->begin(Signals);
}

void WaveRecorder::cycle(uint64_t Cycle) {
  if (Sink)
    Sink->beginCycle(Cycle);
}

std::span<const uint64_t>
WaveRecorder::normalize(unsigned Width, std::span<const uint64_t> Words) {
  Scratch.resize(waveWords(Width));
  for (size_t I = 0; I < Scratch.size(); ++I)
    Scratch[I] = wordAt(Words, I, Width);
  return Scratch;
}

void WaveRecorder::record(unsigned Id, std::span<const uint64_t> Words) {
  if (!Sink || Id >= Slots.size())
    return;
  Slot &S = Slots[Id];
  const size_t N = waveWords(S.Width);
  if (Words.size() != N || (Words[N - 1] & ~topMask(S.Width)) != 0)
    Words = normalize(S.Width, Words);
  // One pass counts the flipped bits and takes the new value as last.
  uint64_t *Prev = Last.data() + S.Word;
  uint64_t Flipped = 0;
  for (size_t I = 0; I < N; ++I) {
    Flipped += std::popcount(Prev[I] ^ Words[I]);
    Prev[I] = Words[I];
  }
  bool Changed = true;
  if (!S.Seen) {
    // First sight: every bit counts as a toggle.
    S.Seen = true;
    PendingToggles += S.Width;
  } else {
    PendingToggles += Flipped;
    Changed = Flipped != 0;
  }
  ++PendingEvents;
  Sink->value(Id, Words, Changed);
}

void WaveRecorder::recordBits(unsigned Id, const std::vector<bool> &Bits) {
  if (!Sink || Id >= Slots.size())
    return;
  packBits(Bits, Slots[Id].Width, Scratch);
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
  // The sink contract marks a value equal to the previous one unchanged,
  // so such an event shares the previous value's words.
  size_t &Prev = LastOffset[Id];
  if (Changed || Prev == NoValue) {
    const unsigned Width = Sigs[Id].Width;
    const size_t N = waveWords(Width);
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
  Slots.clear();
  size_t Words = 0, Bits = 0;
  for (const WaveSignal &S : Sigs) {
    Slots.push_back({Words, Bits, S.Width, false});
    Words += waveWords(S.Width);
    Bits += S.Width;
  }
  Last.assign(Words, 0);
  Base.assign(Words, 0);
  Counts.assign(Words * Planes, 0);
  Pending.assign(Words, 0);
  Totals.assign(Bits, 0);
  return Status::success();
}

void ToggleCoverageSink::beginCycle(uint64_t) {}

void ToggleCoverageSink::value(unsigned Id, std::span<const uint64_t> Words,
                               bool Changed) {
  if (Id >= Slots.size())
    return;
  Slot &S = Slots[Id];
  const size_t N = waveWords(S.Width);
  uint64_t *Prev = Last.data() + S.Word;
  if (!S.Seen) {
    // Baseline: the first reported value is an x->v assignment, not a
    // toggle.
    S.Seen = true;
    for (size_t I = 0; I < N; ++I)
      Prev[I] = Base[S.Word + I] = wordAt(Words, I, S.Width);
    return;
  }
  if (!Changed)
    return;
  for (size_t I = 0; I < N; ++I) {
    uint64_t New = wordAt(Words, I, S.Width);
    uint64_t Carry = Prev[I] ^ New;
    if (Carry == 0)
      continue;
    Prev[I] = New;
    // Add one to the count of every flipped bit: a ripple-carry through
    // all eight planes, with no data-dependent exit to mispredict. A word
    // spills at 255 changes, so no count outgrows the planes.
    uint64_t *Plane = Counts.data() + (S.Word + I) * Planes;
    for (unsigned K = 0; K < Planes; ++K) {
      uint64_t Out = Plane[K] & Carry;
      Plane[K] ^= Carry;
      Carry = Out;
    }
    if (++Pending[S.Word + I] == 255)
      spill(S.Word + I, S.Bit + I * 64);
  }
}

void ToggleCoverageSink::spill(size_t Word, size_t FirstBit) {
  uint64_t *Plane = Counts.data() + Word * Planes;
  for (unsigned K = 0; K < Planes; ++K) {
    for (uint64_t Set = Plane[K]; Set != 0; Set &= Set - 1)
      Totals[FirstBit + std::countr_zero(Set)] += uint64_t(1) << K;
    Plane[K] = 0;
  }
  Pending[Word] = 0;
}

Status ToggleCoverageSink::finish(bool) {
  for (const Slot &S : Slots)
    for (size_t I = 0; I < waveWords(S.Width); ++I)
      if (Pending[S.Word + I] != 0)
        spill(S.Word + I, S.Bit + I * 64);

  // Bins appear only for edges seen, named after the flattened bit, and
  // are built in the registry's order: signals by `name[`, bits by
  // `<decimal>]`, rises (":01") before falls (":10"). Two names where one
  // extends the other past a '[' can interleave; a bin out of order only
  // costs a normal map insert.
  std::vector<unsigned> ById(Sigs.size());
  std::iota(ById.begin(), ById.end(), 0u);
  std::vector<std::string> Heads;
  Heads.reserve(Sigs.size());
  for (const WaveSignal &S : Sigs)
    Heads.push_back(S.Name + "[");
  std::sort(ById.begin(), ById.end(),
            [&](unsigned A, unsigned B) { return Heads[A] < Heads[B]; });
  std::map<unsigned, std::vector<unsigned>> Orders; // by width
  obs::CoverageSnapshot::mapped_type Bins;
  std::string Name;
  for (unsigned Id : ById) {
    auto [Order, New] = Orders.try_emplace(Sigs[Id].Width);
    if (New)
      Order->second = binOrder(Sigs[Id].Width);
    const uint64_t *Total = Totals.data() + Slots[Id].Bit;
    const uint64_t *Was = Base.data() + Slots[Id].Word;
    Name.assign(Heads[Id]);
    const size_t Head = Name.size();
    for (unsigned B : Order->second) {
      uint64_t T = Total[B];
      if (T == 0)
        continue;
      // Edges alternate from the baseline: a bit that started at 0 rises
      // first, one that started at 1 falls first.
      uint64_t Rises = ((Was[B / 64] >> (B % 64)) & 1) ? T / 2 : T - T / 2;
      char Index[12];
      Name.resize(Head);
      Name.append(Index, writeBitIndex(Index, B));
      const size_t Stem = Name.size();
      for (auto [Count, Edge] : {std::pair{Rises, ":01"},
                                 std::pair{T - Rises, ":10"}}) {
        if (Count == 0)
          continue;
        Name.resize(Stem);
        Name += Edge;
        Bins.emplace_hint(Bins.end(), Name, 0)->second += Count;
      }
    }
  }
  // A second finish must not count the same edges again: the totals
  // restart from the current values.
  std::fill(Totals.begin(), Totals.end(), 0);
  Base = Last;
  if (Bins.empty())
    return Status::success();
  obs::CoverageSnapshot Space;
  Space.emplace("sim.toggle", std::move(Bins));
  Cov.merge(std::move(Space));
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
  const unsigned Width = Sigs[Id].Width;
  const std::string &Code = Codes[Id];
  char *P;
  if (Width == 1) {
    P = extend(Out, Code.size() + 2);
    *P++ = !Words.empty() && (Words[0] & 1) ? '1' : '0';
  } else {
    P = extend(Out, Width + Code.size() + 3);
    *P++ = 'b';
    P = writeBits(P, Words, Width);
    *P++ = ' ';
  }
  *writeText(P, Code) = '\n';
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
  static constexpr std::string_view ValueKey = ",\"value\":\"";
  static constexpr std::string_view Tail = "\"}\n";
  const unsigned Width = Sigs[Id].Width;
  char *P = extend(Out, RecordHead.size() + Quoted[Id].size() +
                            ValueKey.size() + Width + Tail.size());
  P = writeText(P, RecordHead);
  P = writeText(P, Quoted[Id]);
  P = writeText(P, ValueKey);
  P = writeBits(P, Words, Width);
  writeText(P, Tail);
}

Status WaveJsonWriter::finish(bool Aborted) {
  obs::Json Footer = obs::Json::object();
  Footer.set("cycles", Cycles);
  Footer.set("aborted", Aborted);
  Out += Footer.str() + "\n";
  return Status::success();
}
