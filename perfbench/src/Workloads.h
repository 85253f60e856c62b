//===- perfbench/src/Workloads.h - Seeded benchmark workloads ---*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's named workloads and the seeded draw that turns one into
/// concrete inputs. A workload is a list of program slots (a generator
/// family with a size range, or a fixed program text) plus how a run
/// divides its time between compiling and simulating. The seed picks each
/// slot's size and every input trace; the compiler and the simulators see
/// only the generated program text and traces.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "interp/Trace.h"
#include "ir/Function.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny generator whose output is fixed by the algorithm
/// (unlike the standard distributions), so one seed gives byte-identical
/// inputs on every platform and library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N), N > 0.
  unsigned below(unsigned N);

private:
  uint64_t State;
};

/// Where a slot's program comes from.
enum class Family { TensorAdd, TensorDot, Fsm, DspAdd, Mac, Dot3 };

/// One program of a workload. The seed draws an offset D in
/// [-Jitter, Jitter] and the size is Base + Step * D. A Mirror slot takes
/// the previous slot's offset negated instead, so a pair's summed size
/// (and the LUT and DSP counts, which are linear in it) is the same for
/// every seed while both programs change.
struct Slot {
  Family Kind;
  unsigned Base = 0;
  unsigned Step = 0;
  unsigned Jitter = 0;
  bool Mirror = false;
};

struct WorkloadDef {
  const char *Name;
  const char *Why;
  /// Share of the measured time spent in compile operations; the rest
  /// simulates the same programs.
  double CompileShare;
  /// Input-trace lengths per program: bare VM runs and observed runs
  /// (capture + replay, far slower).
  unsigned BareCycles;
  unsigned ObservedCycles;
  std::vector<Slot> Slots;
};

/// Every workload, in a fixed order.
const std::vector<WorkloadDef> &workloads();

/// The workload named \p Name, or null.
const WorkloadDef *findWorkload(const std::string &Name);

/// One drawn program: a display name and its source text.
struct ProgramText {
  std::string Name;
  std::string Text;
};

/// Draws the programs of \p W for \p Seed. Equal seeds give equal lists.
std::vector<ProgramText> drawPrograms(const WorkloadDef &W, uint64_t Seed);

/// A seeded input trace of \p Cycles steps for \p Fn: uniform values over
/// each input's lanes, uniform booleans.
reticle::interp::Trace makeInputTrace(const reticle::ir::Function &Fn,
                                      size_t Cycles, uint64_t Seed);

/// Derives an independent stream seed from a run seed and an index.
uint64_t subSeed(uint64_t Seed, uint64_t Index);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
