//===- perfbench/src/Metrics.h - Sample statistics and metrics --*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sample statistics (median, the tail-percentile rule) and the metric
/// records the benchmark prints: every metric carries a name, a unit and
/// the direction in which it gets worse, and names and units follow one
/// grammar checked at emission.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of \p Samples (mean of the two middle values for even counts);
/// 0 for an empty list.
double median(std::vector<double> Samples);

/// The tail of a latency sample: the highest whole percentile that still
/// has at least `MinBeyond` samples ranked above it. Percentile P takes
/// the nearest-rank sample: rank ceil(P/100 * N), at least 1.
struct Tail {
  double Value = 0.0;
  unsigned Percentile = 0;
  size_t Samples = 0; ///< N
  size_t Beyond = 0;  ///< samples ranked above the reported one
};

/// Applies the tail rule; empty when fewer than MinBeyond + 1 samples.
std::optional<Tail> tailPercentile(std::vector<double> Samples,
                                   size_t MinBeyond = 10);

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
bool validMetricName(std::string_view Name);

/// Units: 1-16 letters, digits, '_', '/', '%', '.', '-'.
bool validUnit(std::string_view Unit);

enum class Better { Lower, Higher };

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  Better Dir = Better::Lower;
};

/// An ordered metric list that refuses malformed or duplicate names.
class MetricSet {
public:
  /// Adds a metric; returns false (and adds nothing) when the name or
  /// unit breaks the grammar or the name is already present.
  bool add(std::string Name, double Value, std::string Unit, Better Dir);
  const std::vector<Metric> &all() const { return Items; }
  const Metric *find(std::string_view Name) const;

private:
  std::vector<Metric> Items;
};

/// Shortest round-trip decimal form of \p V (JSON number syntax).
std::string formatNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
