//===- perfbench/src/Calibrate.cpp - Machine-speed calibration ------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

volatile uint64_t Sink = 0;

uint64_t xorshift(uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

double kernelMs() {
  static std::vector<uint64_t> Table(uint64_t(1) << 19); // 4 MiB
  uint64_t X = 0x9E3779B97F4A7C15ULL, Acc = 0;
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < 100000; ++I) {
    uint64_t &Slot = Table[xorshift(X) & (Table.size() - 1)];
    Acc += Slot;
    Slot = X;
  }
  std::unordered_map<uint64_t, uint64_t> Map;
  std::vector<uint64_t> Keys;
  for (int I = 0; I < 20000; ++I) {
    Map[xorshift(X) % 16384] += X;
    Keys.push_back(X);
  }
  std::sort(Keys.begin(), Keys.end());
  for (const auto &[K, V] : Map)
    Acc += K ^ V;
  Acc += Keys[Keys.size() / 2];
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  Sink = Sink + Acc;
  return Ms;
}

} // namespace

double calibrationMs() {
  double A = kernelMs(), B = kernelMs(), C = kernelMs();
  return std::max(std::min(A, B), std::min(std::max(A, B), C));
}

} // namespace perfbench
