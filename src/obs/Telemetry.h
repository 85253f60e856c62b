//===- obs/Telemetry.h - Tracing spans and counters registry ----*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry layer behind the compiler's observability story (the
/// Section 7 evaluation is entirely about where compile time goes; this is
/// how we see it):
///
///  - **Tracing spans** (`obs::Span`): RAII, nestable, thread-safe.
///    Enabled with `Telemetry::enableTracing()`, serialized as Chrome
///    trace-event / Perfetto JSON by `Telemetry::traceJson()`. When
///    tracing is disabled a span costs one relaxed atomic load.
///  - **Counters** (`Ctx.counter("isel.trees_covered")`): registry-backed
///    monotone counters. The lookup
///    takes a lock, so hot paths hoist the reference out of their loops:
///      obs::Counter &C = Ctx.counter("sat.conflicts");
///    after which every increment is one relaxed atomic add.
///
/// Telemetry is **instance-based**: a `Telemetry` object owns one registry
/// of counters and one trace-event buffer with its own clock epoch,
/// so concurrent compiles record into disjoint instances without
/// contending. There is no process-wide instance: code reaches one
/// through the `obs::Context` (Context.h) its caller passes.
///
/// Naming convention: `<stage>.<noun>` in lowercase snake case, where the
/// stage matches the Figure-7 pipeline ("select", "cascade", "place",
/// "codegen") or a subsystem ("sat", "sim"). See docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_OBS_TELEMETRY_H
#define RETICLE_OBS_TELEMETRY_H


#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace reticle {
namespace obs {

class Json;
struct Context;

/// A monotonically increasing event count. Increments are relaxed atomic
/// adds; cross-thread visibility of the final totals is established by the
/// read side (traceJson / countersJson take the registry lock).
class Counter {
public:
  uint64_t operator++() { return V.fetch_add(1, std::memory_order_relaxed) + 1; }
  uint64_t operator++(int) { return V.fetch_add(1, std::memory_order_relaxed); }
  Counter &operator+=(uint64_t N) {
    V.fetch_add(N, std::memory_order_relaxed);
    return *this;
  }
  uint64_t load() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// One telemetry domain: a registry of named counters plus a trace-event
/// buffer with its own clock epoch and tracing switch. All operations are
/// thread-safe; references returned by counter() stay valid for the
/// lifetime of the Telemetry object.
class Telemetry {
public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// Finds or registers the counter named \p Name.
  /// Hot paths should hoist the returned reference out of their loops.
  Counter &counter(std::string_view Name);

  /// Trace switch. Spans and instants record only while enabled.
  bool tracingEnabled() const;
  void enableTracing(bool On = true);

  /// Records a zero-duration instant event (e.g. one CDCL restart).
  void instant(const char *Name);

  /// Serializes all recorded events as Chrome trace-event JSON
  /// (chrome://tracing and https://ui.perfetto.dev load it directly).
  std::string traceJson() const;

  /// Folds the recorded span tree into collapsed-stack format — one
  /// `frame;frame;leaf <self_us>` line per distinct stack, sorted by
  /// stack name, with integer-microsecond self time (the flamegraph
  /// input dialect of speedscope and flamegraph.pl). Nesting is
  /// reconstructed per thread from event timestamp containment, the same
  /// way trace viewers do it.
  std::string foldedStacks() const;

  /// A snapshot of every registered counter, as {name: value, ...} in
  /// registration order.
  Json countersJson() const;

private:
  friend class Span;
  double nowUs() const;
  void record(const char *Name, char Phase, double TsUs, double DurUs,
              std::string ArgsJson);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// An RAII tracing span. Construction samples the clock; destruction
/// records one Chrome trace-event "complete" ("X") event. Spans nest by
/// scope per thread, which is exactly how trace viewers reconstruct the
/// hierarchy. \p Name must outlive the span (string literals do).
class Span {
public:
  /// Records into \p Telem / the telemetry of \p Ctx, which must outlive
  /// the span.
  Span(Telemetry &Telem, const char *Name);
  Span(const Context &Ctx, const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a key/value argument shown by the trace viewer.
  void arg(const char *Key, int64_t Value);
  void arg(const char *Key, uint64_t Value);
  void arg(const char *Key, unsigned Value) {
    arg(Key, static_cast<uint64_t>(Value));
  }
  void arg(const char *Key, double Value);
  void arg(const char *Key, const char *Value);
  void arg(const char *Key, const std::string &Value);

private:
  void append(const char *Key, std::string Rendered);

  Telemetry *Telem = nullptr;
  const char *Name = nullptr;
  double StartUs = 0.0;
  bool Active = false;
  std::string ArgsJson;
};

} // namespace obs
} // namespace reticle

#endif // RETICLE_OBS_TELEMETRY_H
