//===- perfbench/src/Metrics.cpp - Sample statistics and metrics ----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2.0;
}

std::optional<Tail> tailPercentile(std::vector<double> Samples,
                                   size_t MinBeyond) {
  size_t N = Samples.size();
  if (N < MinBeyond + 1)
    return std::nullopt;
  std::sort(Samples.begin(), Samples.end());
  for (unsigned P = 99; P > 0; --P) {
    // Integer ceil(P * N / 100): the nearest rank, exact for any N.
    size_t Rank = (static_cast<size_t>(P) * N + 99) / 100;
    if (N - Rank >= MinBeyond)
      return Tail{Samples[Rank - 1], P, N, N - Rank};
  }
  return Tail{Samples[0], 0, N, N - 1};
}

namespace {

bool nameChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '-';
}

} // namespace

bool validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  char First = Name.front();
  if (!((First >= 'a' && First <= 'z') || (First >= 'A' && First <= 'Z') ||
        (First >= '0' && First <= '9')))
    return false;
  return std::all_of(Name.begin(), Name.end(), nameChar);
}

bool validUnit(std::string_view Unit) {
  if (Unit.empty() || Unit.size() > 16)
    return false;
  return std::all_of(Unit.begin(), Unit.end(), [](char C) {
    return nameChar(C) || C == '/' || C == '%';
  });
}

bool MetricSet::add(std::string Name, double Value, std::string Unit,
                    Better Dir) {
  if (!validMetricName(Name) || !validUnit(Unit) || find(Name))
    return false;
  Items.push_back({std::move(Name), Value, std::move(Unit), Dir});
  return true;
}

const Metric *MetricSet::find(std::string_view Name) const {
  for (const Metric &M : Items)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

std::string formatNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "null";
}

} // namespace perfbench
