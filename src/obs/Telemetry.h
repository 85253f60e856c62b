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
///    trace-event / Perfetto JSON by `Telemetry::writeTrace()`. When
///    tracing is disabled a span costs one relaxed atomic load.
///  - **Counters and gauges** (`Ctx.counter("isel.trees_covered")`):
///    registry-backed monotone counters and last-value gauges. The lookup
///    takes a lock, so hot paths hoist the reference out of their loops:
///      obs::Counter &C = Ctx.counter("sat.conflicts");
///    after which every increment is one relaxed atomic add.
///
/// Telemetry is **instance-based**: a `Telemetry` object owns one registry
/// of counters/gauges and one trace-event buffer with its own clock epoch,
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

#include "support/Result.h"

#include <atomic>
#include <cmath>
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
/// read side (writeTrace / countersJson take the registry lock).
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

/// A last-value-wins measurement (e.g. a high-water mark set by the code
/// that knows it).
class Gauge {
public:
  void set(double Value) { V.store(Value, std::memory_order_relaxed); }
  double load() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// A log-bucketed latency distribution: samples land in power-of-two
/// buckets spanning 2^-32 .. 2^32 (the recording unit is by convention
/// milliseconds), so percentile queries are a bucket walk with log-2
/// resolution. Recording is lock-free — one relaxed bucket add plus CAS
/// loops for the running sum and max — so distinct threads can record into
/// the same histogram; reads (count/percentile/max) are registry-export
/// paths and take relaxed snapshots.
class Histogram {
public:
  void record(double Value) {
    Buckets[bucketOf(Value)].fetch_add(1, std::memory_order_relaxed);
    N.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(Sum, Value);
    atomicMax(Mx, Value);
  }

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  double max() const { return Mx.load(std::memory_order_relaxed); }

  /// The \p Q-th percentile (0..100) estimated as the upper bound of the
  /// bucket holding the rank-Q sample, clamped to the observed max.
  double percentile(double Q) const {
    uint64_t Total = N.load(std::memory_order_relaxed);
    if (!Total)
      return 0.0;
    auto Rank = static_cast<uint64_t>(std::ceil(Q / 100.0 * Total));
    if (Rank < 1)
      Rank = 1;
    uint64_t Seen = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      Seen += Buckets[I].load(std::memory_order_relaxed);
      if (Seen >= Rank)
        return std::min(upperOf(I), max());
    }
    return max();
  }

private:
  static constexpr unsigned NumBuckets = 64;

  /// Bucket I holds values in [2^(I-33), 2^(I-32)); non-positive values
  /// land in bucket 0.
  static unsigned bucketOf(double V) {
    if (!(V > 0.0))
      return 0;
    int Exp = 0;
    std::frexp(V, &Exp); // V = m * 2^Exp, m in [0.5, 1)
    int Index = Exp + 32;
    if (Index < 0)
      return 0;
    if (Index >= static_cast<int>(NumBuckets))
      return NumBuckets - 1;
    return static_cast<unsigned>(Index);
  }
  static double upperOf(unsigned I) {
    return std::ldexp(1.0, static_cast<int>(I) - 32);
  }
  static void atomicAdd(std::atomic<double> &A, double V) {
    double Cur = A.load(std::memory_order_relaxed);
    while (!A.compare_exchange_weak(Cur, Cur + V, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<double> &A, double V) {
    double Cur = A.load(std::memory_order_relaxed);
    while (Cur < V &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> N{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Mx{0.0};
};

/// One telemetry domain: a registry of named counters/gauges plus a
/// trace-event buffer with its own clock epoch and tracing switch. All
/// operations are thread-safe; references returned by counter()/gauge()
/// stay valid for the lifetime of the Telemetry object.
class Telemetry {
public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// Finds or registers the counter / gauge / histogram named \p Name.
  /// Hot paths should hoist the returned reference out of their loops.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Trace switch. Spans and instants record only while enabled.
  bool tracingEnabled() const;
  void enableTracing(bool On = true);

  /// Records a zero-duration instant event (e.g. one CDCL restart).
  void instant(const char *Name);

  /// Serializes all recorded events as Chrome trace-event JSON
  /// (chrome://tracing and https://ui.perfetto.dev load it directly).
  std::string traceJson() const;
  Status writeTrace(const std::string &Path) const;

  /// Folds the recorded span tree into collapsed-stack format — one
  /// `frame;frame;leaf <self_us>` line per distinct stack, sorted by
  /// stack name, with integer-microsecond self time (the flamegraph
  /// input dialect of speedscope and flamegraph.pl). Nesting is
  /// reconstructed per thread from event timestamp containment, the same
  /// way trace viewers do it.
  std::string foldedStacks() const;

  /// A snapshot of every registered counter and gauge, as
  /// {"counters": {...}, "gauges": {...}}.
  Json countersJson() const;

  /// A snapshot of every registered histogram, as
  /// {name: {"count": N, "sum": S, "p50": ..., "p90": ..., "p99": ...,
  /// "max": ...}}. Empty (zero-sample) histograms are skipped.
  Json histogramsJson() const;

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
