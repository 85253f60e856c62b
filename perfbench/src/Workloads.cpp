//===- perfbench/src/Workloads.cpp - Seeded benchmark workloads -----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "frontend/Benchmarks.h"
#include "interp/Value.h"

using namespace reticle;

namespace perfbench {

uint64_t Rng::next() {
  State += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

unsigned Rng::below(unsigned N) { return static_cast<unsigned>(next() % N); }

uint64_t subSeed(uint64_t Seed, uint64_t Index) {
  Rng R(Seed ^ (Index * 0xD1B54A32D192ED03ULL));
  return R.next();
}

namespace {

// The two hand-written examples the simulate workload always includes
// (the repository's examples/programs/{mac,dot3}.ret), kept here so the
// workload stays fixed when the examples change.
const char *MacText = R"(def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
  t0:i8 = mul(a, b) @??;
  t1:i8 = add(t0, c) @??;
  y:i8 = reg[0](t1, en) @??;
}
)";

const char *Dot3Text =
    R"(def dot3(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (t2:i8) {
  m0:i8 = mul(a0, b0) @??;
  t0:i8 = add(m0, in) @??;
  m1:i8 = mul(a1, b1) @??;
  t1:i8 = add(m1, t0) @??;
  m2:i8 = mul(a2, b2) @??;
  t2:i8 = add(m2, t1) @??;
}
)";

std::vector<WorkloadDef> makeWorkloads() {
  using F = Family;
  std::vector<WorkloadDef> W;
  // Fourteen programs from ~5 to ~140 ms, all below the sizes where the
  // shrink search needs a real SAT probe: every probe is settled by the
  // arithmetic precheck, so the per-compile fixed costs and the initial
  // placement encode/solve do the work. The largest program (fsm_35) is
  // fixed, so the compile tail does not follow the draw.
  W.push_back({"compile_small",
               "paper Fig 13 sizes below the SAT shrink threshold: fixed "
               "per-compile cost and initial placement, shrink bypassed",
               0.7, 256, 8,
               {{F::DspAdd, 64, 8, 1},
                {F::DspAdd, 248, 8, 1, true},
                {F::TensorAdd, 64, 4, 2},
                {F::TensorAdd, 192, 4, 2, true},
                {F::TensorAdd, 128, 8, 1},
                {F::TensorAdd, 440, 8, 1, true},
                {F::Fsm, 9, 1, 1},
                {F::Fsm, 17, 1, 1, true},
                {F::Fsm, 25},
                {F::Fsm, 35},
                {F::TensorDot, 9, 1, 1},
                {F::TensorDot, 33, 1, 1, true},
                {F::TensorDot, 17, 1, 1},
                {F::TensorDot, 39, 1, 1, true}}});
  // Sizes past the precheck threshold: each program's binary-search
  // shrink issues 2-6 real SAT probes on the LUT or DSP columns. Five
  // programs put the compile median inside the fsm 40-52 cluster rather
  // than between two programs, and the largest (fsm_60) is fixed, so the
  // compile tail does not follow the draw.
  W.push_back({"compile_shrink",
               "sizes where the placement shrink search makes 2-6 real SAT "
               "probes per program (persistent encoding, solver modes)",
               0.7, 256, 8,
               {{F::Fsm, 42, 2, 1},
                {F::Fsm, 50, 2, 1, true},
                {F::TensorAdd, 544, 32, 1},
                {F::DspAdd, 704, 32, 1, true},
                {F::Fsm, 60}}});
  // Small designs compiled in set-up and simulated on long traces by
  // both VM engines, bare and observed (capture, toggle coverage, VCD).
  // The largest program (fsm_14) is fixed, so the compile tail does not
  // follow the draw.
  W.push_back({"simulate",
               "VM engines bare and observed on seeded traces of small "
               "designs: execute, capture and replay sinks",
               0.2, 8192, 256,
               {{F::Mac},
                {F::Dot3},
                {F::Fsm, 6, 1, 1},
                {F::Fsm, 10, 1, 1, true},
                {F::Fsm, 14},
                {F::TensorDot, 4, 1, 1},
                {F::TensorDot, 6, 1, 1, true}}});
  return W;
}

} // namespace

const std::vector<WorkloadDef> &workloads() {
  static const std::vector<WorkloadDef> W = makeWorkloads();
  return W;
}

const WorkloadDef *findWorkload(const std::string &Name) {
  for (const WorkloadDef &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::vector<ProgramText> drawPrograms(const WorkloadDef &W, uint64_t Seed) {
  Rng R(subSeed(Seed, 0));
  std::vector<ProgramText> Out;
  int Offset = 0;
  for (const Slot &S : W.Slots) {
    if (S.Kind == Family::Mac) {
      Out.push_back({"mac", MacText});
      continue;
    }
    if (S.Kind == Family::Dot3) {
      Out.push_back({"dot3", Dot3Text});
      continue;
    }
    int Jitter = static_cast<int>(S.Jitter);
    Offset = S.Mirror ? -Offset
                      : static_cast<int>(R.below(2 * S.Jitter + 1)) - Jitter;
    unsigned N = static_cast<unsigned>(static_cast<int>(S.Base) +
                                       static_cast<int>(S.Step) * Offset);
    ir::Function Fn = S.Kind == Family::TensorAdd ? frontend::makeTensorAdd(N)
                      : S.Kind == Family::TensorDot
                          ? frontend::makeTensorDot(N)
                      : S.Kind == Family::Fsm ? frontend::makeFsm(N)
                                              : frontend::makeDspAdd(N);
    const char *Prefix = S.Kind == Family::TensorAdd   ? "tensoradd_"
                         : S.Kind == Family::TensorDot ? "tensordot_"
                         : S.Kind == Family::Fsm       ? "fsm_"
                                                       : "dsp_add_";
    Out.push_back({Prefix + std::to_string(N), Fn.str()});
  }
  return Out;
}

interp::Trace makeInputTrace(const ir::Function &Fn, size_t Cycles,
                             uint64_t Seed) {
  Rng R(Seed);
  interp::Trace T;
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    S.reserve(Fn.inputs().size());
    for (const ir::Port &P : Fn.inputs()) {
      if (P.Ty.isBool()) {
        S[P.Name] = interp::Value::makeBool(R.next() & 1);
        continue;
      }
      unsigned Width = P.Ty.width();
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L) {
        uint64_t Bits = R.next();
        if (Width < 64)
          Bits &= (uint64_t(1) << Width) - 1;
        Lanes.push_back(static_cast<int64_t>(Bits));
      }
      S[P.Name] = interp::Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  return T;
}

} // namespace perfbench
