//===- interp/Wave.h - Per-cycle waveform sinks ----------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution observability for the two simulation engines. The semantics of
/// a Reticle program are defined over per-cycle traces (Section 6.2); this
/// layer makes those traces *watchable*: both the reference interpreter and
/// the bytecode VM stream every port and named internal signal, cycle by
/// cycle, into a `sim::WaveSink`.
///
/// Values travel as packed 64-bit words: bit b of a signal sits in word
/// b/64 at position b%64 (the flattened LSB-first order `Value::toBits`
/// produces), a signal of width W spans `waveWords(W)` words, and bits at
/// or above W are zero. Change detection is a word compare, a toggle
/// count is the popcount of old XOR new.
///
/// The flow has three pieces:
///
///  - `WaveSink` — the engine-facing interface. An engine declares its
///    signal set once (`begin`), marks each cycle (`beginCycle`), and
///    reports every signal's packed value (`value`). `finish` flushes; an
///    aborted run (simulation error, cycle budget) still produces
///    well-formed, truncated-but-parseable output, mirroring the
///    remark-flush contract of failed compiles.
///  - `WaveRecorder` — the engine-side driver. It owns last-value change
///    detection (so writers can suppress no-change events), feeds the
///    `sim.signals` / `sim.events` / `sim.toggles` counters, and forwards
///    to an optional sink. With no sink attached every call is a no-op, so
///    engines carry one unconditionally.
///  - Writers — `VcdWriter` emits standard VCD (GTKWave / Surfer),
///    `WaveJsonWriter` emits the re-parseable `reticle-wave-v1` JSONL
///    stream that `json_check wave_diff` joins, and `WaveCapture` buffers
///    events in memory so the driver can replay one or several engine runs
///    (with per-engine name prefixes) into the file writers after the
///    fact.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_INTERP_WAVE_H
#define RETICLE_INTERP_WAVE_H

#include "obs/Context.h"
#include "support/Result.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reticle {
namespace sim {

/// One declared waveform signal: a name, a flattened bit width, and which
/// side of the design it lives on. The kind lets `wave_diff` restrict the
/// differential oracle to the port signals both engines share.
struct WaveSignal {
  enum class Kind : uint8_t { Input, Output, Internal };

  std::string Name;
  unsigned Width = 1;
  Kind SigKind = Kind::Internal;

  WaveSignal() = default;
  WaveSignal(std::string Name, unsigned Width, Kind K = Kind::Internal)
      : Name(std::move(Name)), Width(Width == 0 ? 1 : Width), SigKind(K) {}
};

/// Number of packed words a signal of \p Width bits occupies.
inline size_t waveWords(unsigned Width) { return (Width + 63) / 64; }

/// Packs flattened LSB-first bits into \p Out (resized to
/// `waveWords(Width)`); bits past \p Width are dropped, missing ones read
/// as zero.
void packBits(const std::vector<bool> &Bits, unsigned Width,
              std::vector<uint64_t> &Out);

/// Renders flattened bits (LSB first, as Value::toBits produces) as the
/// MSB-first binary string used by `reticle-wave-v1` records.
std::string bitsToString(const std::vector<bool> &Bits);

/// The engine-facing waveform interface. Calls arrive in strict order:
/// one `begin`, then for each cycle one `beginCycle` followed by `value`
/// calls (ids index the begin() signal list), then one `finish`.
class WaveSink {
public:
  virtual ~WaveSink() = default;

  /// Declares the full signal set. Must be called exactly once, first.
  virtual Status begin(const std::vector<WaveSignal> &Signals) = 0;

  /// Starts cycle \p Cycle (monotonically increasing from 0).
  virtual void beginCycle(uint64_t Cycle) = 0;

  /// Reports signal \p Id's value this cycle as packed words (see the
  /// file comment); the span is only valid for the call. \p Changed is
  /// false when the value equals the previous cycle's (writers may then
  /// suppress the event); the first report of a signal is always marked
  /// changed.
  virtual void value(unsigned Id, std::span<const uint64_t> Words,
                     bool Changed) = 0;

  /// Flushes. \p Aborted marks a run that stopped early (error or cycle
  /// budget); the output must still be well-formed.
  virtual Status finish(bool Aborted) = 0;
};

/// The engine-side recorder: change detection, counters, optional sink.
/// Engines construct one per run; with a null sink every call is a cheap
/// no-op, so the engine's per-cycle loop needs no branches beyond
/// `active()`. Event and toggle counts accumulate per run and land in
/// `sim.events` / `sim.toggles` at finish() or destruction, whichever
/// comes first.
class WaveRecorder {
public:
  WaveRecorder(WaveSink *Sink, const obs::Context &Ctx);
  ~WaveRecorder() { flushCounts(); }
  WaveRecorder(const WaveRecorder &) = delete;
  WaveRecorder &operator=(const WaveRecorder &) = delete;

  bool active() const { return Sink != nullptr; }

  /// Declares the signals; counts them under `sim.signals`.
  Status begin(std::vector<WaveSignal> Signals);

  void cycle(uint64_t Cycle);

  /// Records one value event: counts it, counts the bits that differ from
  /// the previous value (every bit on first sight) as toggles, normalizes
  /// the words to the declared width, and forwards with the change flag.
  void record(unsigned Id, std::span<const uint64_t> Words);

  /// Packs \p Bits once and records them; for engines that hold values as
  /// flattened bit vectors.
  void recordBits(unsigned Id, const std::vector<bool> &Bits);

  Status finish(bool Aborted);

private:
  void flushCounts();

  WaveSink *Sink = nullptr;
  obs::Counter *Events = nullptr;
  obs::Counter *Toggles = nullptr;
  obs::Counter *SignalsCount = nullptr;
  std::vector<WaveSignal> Signals;
  /// Signal Id's previous value starts at Last[WordBase[Id]].
  std::vector<size_t> WordBase;
  std::vector<uint64_t> Last;
  std::vector<uint64_t> Scratch;
  std::vector<uint8_t> Seen;
  uint64_t PendingEvents = 0;
  uint64_t PendingToggles = 0;
};

/// An in-memory sink: buffers every event so a run (complete or aborted)
/// can be inspected by tests or replayed into file writers afterwards.
/// Values live in one word arena; an event whose value equals its
/// signal's previous one shares that value's words.
class WaveCapture : public WaveSink {
public:
  struct Event {
    unsigned Id = 0;
    bool Changed = true;
    size_t Offset = 0; ///< first arena word of the value
  };

  Status begin(const std::vector<WaveSignal> &Signals) override;
  void beginCycle(uint64_t Cycle) override;
  void value(unsigned Id, std::span<const uint64_t> Words,
             bool Changed) override;
  Status finish(bool Aborted) override;

  const std::vector<WaveSignal> &signals() const { return Sigs; }
  uint64_t cycles() const { return ByCycle.size(); }
  bool finished() const { return Done; }
  bool aborted() const { return Aborted; }
  const std::vector<std::vector<Event>> &eventsByCycle() const {
    return ByCycle;
  }

  /// The packed value \p E carries (`waveWords` of its signal's width).
  std::span<const uint64_t> words(const Event &E) const {
    return {Arena.data() + E.Offset, waveWords(Sigs[E.Id].Width)};
  }

  /// The value signal \p Name reported at \p Cycle, or nullopt when
  /// absent.
  std::optional<std::span<const uint64_t>>
  valueAt(uint64_t Cycle, std::string_view Name) const;

private:
  static constexpr size_t NoValue = ~size_t(0);

  std::vector<WaveSignal> Sigs;
  std::vector<uint64_t> Arena;
  /// Arena offset of each signal's most recent value, or NoValue.
  std::vector<size_t> LastOffset;
  std::vector<std::vector<Event>> ByCycle;
  bool Done = false;
  bool Aborted = false;
};

/// Replays one or more captured runs into \p Out as a single stream.
/// Each source's signals are renamed `<prefix>.<name>` when its prefix is
/// nonempty (the driver uses `interp` / `vm-ir` / `vm-netlist` in
/// `--sim=both` runs).
/// Cycles are interleaved in time order; the replay finishes aborted when
/// any source run aborted.
Status replay(
    const std::vector<std::pair<const WaveCapture *, std::string>> &Sources,
    WaveSink &Out);

/// Dynamic toggle coverage: turns per-cycle waveform events into
/// per-signal-bit transition bins in the "sim.toggle" space of a
/// coverage registry — bit \p b of signal `name` hits `name[b]:01` on a
/// 0->1 transition and `name[b]:10` on 1->0 (bit indices are the
/// flattened LSB-first positions the engines report). The first reported
/// value of a signal sets its baseline and records no transition; there
/// is no x->v toggle. Edges are counted per bit in flat arrays while the
/// run streams (old XOR new, split into rises and falls) and land in the
/// registry once, at finish() — aborted runs included. Engine-agnostic:
/// reticlec replays the captured runs of every engine (with per-engine
/// name prefixes) into one sink.
class ToggleCoverageSink : public WaveSink {
public:
  explicit ToggleCoverageSink(obs::Coverage &Cov) : Cov(Cov) {}

  Status begin(const std::vector<WaveSignal> &Signals) override;
  void beginCycle(uint64_t Cycle) override;
  void value(unsigned Id, std::span<const uint64_t> Words,
             bool Changed) override;
  Status finish(bool Aborted) override;

private:
  obs::Coverage &Cov;
  std::vector<WaveSignal> Sigs;
  /// Signal Id's previous value is Last[WordBase[Id] ..], and its bit b
  /// counts edges at Rises / Falls[BitBase[Id] + b].
  std::vector<size_t> WordBase;
  std::vector<size_t> BitBase;
  std::vector<uint64_t> Last;
  std::vector<uint64_t> Rises;
  std::vector<uint64_t> Falls;
  std::vector<uint8_t> Seen;
};

/// Writes standard VCD into an in-memory buffer (the driver streams it to
/// a file or stdout after the run, so aborted runs still flush). Signal
/// names containing a '.' are split into `$scope module` groups on the
/// first dot; all signals dump as `x` before their first recorded value,
/// and unchanged values are suppressed.
class VcdWriter : public WaveSink {
public:
  explicit VcdWriter(std::string Top = "reticle");

  Status begin(const std::vector<WaveSignal> &Signals) override;
  void beginCycle(uint64_t Cycle) override;
  void value(unsigned Id, std::span<const uint64_t> Words,
             bool Changed) override;
  Status finish(bool Aborted) override;

  const std::string &text() const { return Out; }

  /// The short identifier code assigned to signal \p Id (base-94 over the
  /// printable ASCII range, multi-character past 94 signals).
  static std::string idCode(unsigned Id);

private:
  std::string Top;
  std::string Out;
  std::vector<WaveSignal> Sigs;
  /// idCode(Id) for every declared signal, computed once in begin().
  std::vector<std::string> Codes;
  uint64_t LastCycle = 0;
  bool AnyCycle = false;
};

/// Writes the `reticle-wave-v1` JSONL stream: one header line declaring
/// the signal set, one record per signal per cycle (no suppression, so
/// wave_diff joins without carrying state), and one footer line with the
/// cycle count and abort flag.
class WaveJsonWriter : public WaveSink {
public:
  WaveJsonWriter(std::string Top, std::string Engine);

  Status begin(const std::vector<WaveSignal> &Signals) override;
  void beginCycle(uint64_t Cycle) override;
  void value(unsigned Id, std::span<const uint64_t> Words,
             bool Changed) override;
  Status finish(bool Aborted) override;

  const std::string &text() const { return Out; }

private:
  std::string Top;
  std::string Engine;
  std::string Out;
  std::vector<WaveSignal> Sigs;
  /// Each signal's name as a JSON string literal, quoted once in begin().
  std::vector<std::string> Quoted;
  /// `{"cycle":<n>,"signal":` for the current cycle.
  std::string RecordHead;
  uint64_t Cycles = 0;
};

} // namespace sim
} // namespace reticle

#endif // RETICLE_INTERP_WAVE_H
