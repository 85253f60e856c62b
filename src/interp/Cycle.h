//===- interp/Cycle.h - Shared simulation cycle-loop skeleton ---*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-independent pieces of a per-cycle simulation run. Both
/// simulation engines — the reference interpreter and the bytecode VM —
/// step the same loop: bind the cycle's inputs from a name-ordered step
/// map, evaluate, snapshot declared outputs into a prototype-cloned step,
/// stream the settled state into a `WaveSink`, then commit register
/// state. This header extracts the engine-independent parts so the
/// engines share one skeleton instead of two hand-rolled copies:
///
///  - `InputBinder` — the name-sorted merge walk between a trace step's
///    ordered map and an engine's input slots, resolved once per run.
///  - `OutputProto` — the prototype output step whose map order is paired
///    with a parallel slot vector, cloned and filled by position each
///    cycle.
///  - `EngineFrame` — the per-run frame every engine owns: the shared
///    `sim.cycles` counter plus the engine's own cycle counter, the
///    `WaveRecorder`, and the abort path that flushes a partial waveform
///    before the error propagates.
///
/// Engines stay responsible for what is genuinely theirs: how a bound
/// value is stored (typed `Value`, table words), how a cycle is
/// evaluated, and which signals the waveform carries.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_INTERP_CYCLE_H
#define RETICLE_INTERP_CYCLE_H

#include "interp/Trace.h"
#include "interp/Wave.h"
#include "obs/Context.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace reticle {
namespace sim {

/// Binds a trace step's inputs to engine slots. Slots are added once per
/// run, sealed (name-sorted), and then every cycle binds with one merge
/// walk over the step's ordered map — no per-cycle hashing.
class InputBinder {
public:
  /// Registers input \p Name feeding engine slot \p Slot.
  void add(std::string Name, unsigned Slot);

  /// Sorts the slots by name; call once after the last add().
  void seal();

  size_t size() const { return Entries.size(); }

  /// Binds every registered input from \p In. \p Bind receives the slot
  /// and the step's value and returns failure to abort (type or width
  /// mismatch); a missing input fails with the shared message every
  /// engine uses.
  template <typename BindFn>
  Status bind(const interp::Step &In, size_t Cycle, BindFn &&Bind) const {
    auto It = In.begin();
    for (const Entry &E : Entries) {
      for (;; ++It) {
        if (It == In.end())
          return missing(E.Name, Cycle);
        int Cmp = It->first.compare(E.Name);
        if (Cmp == 0)
          break;
        if (Cmp > 0)
          return missing(E.Name, Cycle);
      }
      if (Status S = Bind(E.Slot, It->second); !S)
        return S;
    }
    return Status::success();
  }

private:
  struct Entry {
    std::string Name;
    unsigned Slot;
  };

  static Status missing(const std::string &Name, size_t Cycle) {
    return Status::failure("cycle " + std::to_string(Cycle) + ": input '" +
                           Name + "' missing from trace");
  }

  std::vector<Entry> Entries;
};

/// The prototype output step: declared outputs name-sorted into map order
/// paired with their slots, so the per-cycle snapshot builds each step
/// with hinted in-order insertion — one node per output, no intermediate
/// default values to construct and replace.
class OutputProto {
public:
  /// Registers output \p Name read from engine slot \p Slot.
  void add(std::string Name, unsigned Slot);

  /// Sorts the outputs into map (name) order; call once after the last
  /// add().
  void seal();

  size_t size() const { return Entries.size(); }

  /// Appends one output step to \p Out with each value read from its
  /// slot. Entries are name-sorted, so every emplace hint is exact and
  /// the resulting map is identical to inserting in any order.
  template <typename ReadFn> void emit(interp::Trace &Out, ReadFn &&Read) const {
    interp::Step &S = Out.appendStep();
    for (const Entry &E : Entries)
      S.emplace_hint(S.end(), E.Name, Read(E.Slot));
  }

private:
  struct Entry {
    std::string Name;
    unsigned Slot;
  };
  std::vector<Entry> Entries;
};

/// The per-run frame shared by every engine: cycle counters, the
/// waveform recorder, and the abort-flush path.
class EngineFrame {
public:
  /// \p OwnCounter is the engine's cycle counter name ("interp.cycles",
  /// "sim.vm.cycles"); `sim.cycles` is always counted alongside it.
  EngineFrame(WaveSink *Wave, const obs::Context &Ctx,
              const char *OwnCounter);

  /// Flushes the batched cycle count into `sim.cycles` and the engine
  /// counter (kept out of the hot loop: two atomic adds per run, not per
  /// cycle).
  ~EngineFrame();

  WaveRecorder &recorder() { return Rec; }
  bool waveActive() const { return Rec.active(); }

  /// Counts one cycle; the totals land in `sim.cycles` and the engine
  /// counter when the frame is destroyed.
  void beginCycle() { ++Pending; }

  /// Flushes a partial waveform and passes \p Msg back for the engine to
  /// wrap into its failing result.
  std::string abort(std::string Msg);

  /// Finishes a successful run's waveform.
  Status finish();

private:
  obs::Counter *SimCycles;
  obs::Counter *OwnCycles;
  uint64_t Pending = 0;
  WaveRecorder Rec;
};

} // namespace sim
} // namespace reticle

#endif // RETICLE_INTERP_CYCLE_H
