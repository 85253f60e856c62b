//===- perfbench/src/Spans.h - In-memory spans of the traced run -*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span around each call the benchmark makes
/// into a layer's public functions: name, start, end, the enclosing span
/// and the id of the operation (one compile or one simulation) it belongs
/// to. Spans stay in memory while the run measures and are written out as
/// Chrome trace-event JSON when it ends. Single-threaded by design, like
/// the benchmark's closed loop.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRec {
  std::string Name;
  double StartUs = 0.0; ///< since the log was created
  double EndUs = 0.0;
  int Parent = -1; ///< index of the enclosing span, -1 for a root
  uint64_t Op = 0; ///< operation id shared by all spans of one operation
};

class SpanLog {
public:
  SpanLog();

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string Name, uint64_t Op);
  /// Closes span \p Id (which must be the innermost open span).
  void end(int Id);

  /// RAII helper; a null log records nothing.
  class Scope {
  public:
    Scope(SpanLog *Log, const char *Name, uint64_t Op)
        : Log(Log), Id(Log ? Log->begin(Name, Op) : -1) {}
    ~Scope() {
      if (Log)
        Log->end(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *Log;
    int Id;
  };

  const std::vector<SpanRec> &spans() const { return Spans; }

  /// Duration of span \p Id minus the time its direct children cover, ms.
  double selfMs(size_t Id) const;

  /// For every span name: one (operation id, ms) sample per operation, the
  /// operation's total self time in spans of that name.
  std::map<std::string, std::vector<std::pair<uint64_t, double>>>
  selfTimesByName() const;

  /// Chrome trace-event JSON ("X" events, microseconds, op id in args).
  std::string chromeJson() const;

private:
  std::chrono::steady_clock::time_point Origin;
  std::vector<SpanRec> Spans;
  std::vector<int> Open;
  std::vector<double> ChildUs; ///< per span: summed direct-child time
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
