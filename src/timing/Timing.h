//===- timing/Timing.h - Static timing analysis -----------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static timing analysis over placed designs. The paper reports
/// "run-time" as the critical path of the generated circuit, which sets
/// the maximum clock frequency (Section 7.2); with no physical FPGA
/// available, this analyzer plays the vendor timing engine's role.
///
/// The delay model follows published UltraScale+ characteristics in shape:
///  - DSP operations are fast and fixed-function; SIMD configurations are
///    slightly slower than scalar ones (Section 7.2 notes this);
///  - dedicated cascade routing between vertically adjacent DSPs is nearly
///    free, general fabric routing grows with Manhattan distance;
///  - LUT logic pays per level, carry chains pay per 8-bit block.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_TIMING_TIMING_H
#define RETICLE_TIMING_TIMING_H

#include "device/Device.h"
#include "obs/Context.h"
#include "rasm/Asm.h"
#include "support/Result.h"
#include "tdl/Target.h"

#include <string>
#include <vector>

namespace reticle {
namespace timing {

/// The delay model, in nanoseconds. Defaults approximate an UltraScale+
/// speed grade -1 in shape; they are knobs, not vendor data.
struct DelayModel {
  double ClockToQ = 0.10;
  double Setup = 0.05;
  double LutLogic = 0.15;       ///< one LUT level
  double CarryPerBlock = 0.35;  ///< one CARRY8 block
  double RouteBase = 0.35;      ///< any general-fabric hop
  double RoutePerUnit = 0.02;   ///< per slot of Manhattan distance
  double Cascade = 0.02;        ///< dedicated DSP cascade hop
  double DspAlu = 0.65;         ///< DSP add/sub, scalar
  double DspAluSimd = 0.80;     ///< DSP add/sub, vectorized
  double DspMul = 1.20;         ///< DSP multiply
  double DspMulAdd = 1.50;      ///< DSP multiply plus post-adder
};

/// One combinational element of the timing graph.
struct TimingNode {
  std::string Name;
  double Delay = 0.0;            ///< intrinsic combinational delay
  bool RegisteredOutput = false; ///< the element's result is registered
  bool HasPosition = false;
  int X = 0;
  int Y = 0;
  std::vector<size_t> Fanin;
  std::vector<bool> FaninCascade; ///< parallel to Fanin
};

/// Result of an analysis.
struct TimingReport {
  double CriticalPathNs = 0.0;
  double FmaxMhz = 0.0;
  std::vector<std::string> Path; ///< names along the critical path
};

/// A generic placed netlist for timing purposes. Both the Reticle pipeline
/// and the baseline toolchain lower their results into this form.
class TimingGraph {
public:
  explicit TimingGraph(DelayModel Model = DelayModel()) : Model(Model) {}

  size_t addNode(TimingNode Node) {
    Nodes.push_back(std::move(Node));
    return Nodes.size() - 1;
  }
  void addEdge(size_t From, size_t To, bool CascadeEdge = false) {
    Nodes[To].Fanin.push_back(From);
    Nodes[To].FaninCascade.push_back(CascadeEdge);
  }
  const std::vector<TimingNode> &nodes() const { return Nodes; }
  /// Mutable access, e.g. to set positions after placement.
  TimingNode &node(size_t Id) { return Nodes[Id]; }
  const DelayModel &model() const { return Model; }

  /// Longest register-to-register / input-to-output path. Fails on
  /// combinational cycles (which well-formed programs cannot produce).
  Result<TimingReport> analyze() const;

private:
  double edgeDelay(size_t From, size_t To, bool CascadeEdge) const;

  DelayModel Model;
  std::vector<TimingNode> Nodes;
};

/// Builds a timing graph for a placed Reticle assembly program and
/// analyzes it. Wire instructions contribute wiring only; operation
/// delays and registered outputs come from the target definition names.
/// When remarks are enabled on \p Ctx, emits one `timing:critical-path`
/// remark naming the instructions along the longest path, so `--remarks=-`
/// explains fmax rather than just reporting it.
Result<TimingReport> analyzeAsm(const rasm::AsmProgram &Placed,
                                const tdl::Target &Target,
                                const device::Device &Dev,
                                const DelayModel &Model,
                                const obs::Context &Ctx);

} // namespace timing
} // namespace reticle

#endif // RETICLE_TIMING_TIMING_H
