//===- place/Place.h - Instruction placement --------------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction placement (Section 5.3): resolves every assembly
/// instruction's coordinate holes against a concrete device by solving the
/// paper's constraint system with a SAT solver (the paper uses Z3; this
/// project uses its own CDCL solver, src/sat):
///
///  - a coordinate must address a column of the instruction's primitive
///    kind;
///  - a coordinate must lie within that column's extent;
///  - relative constraints between instructions sharing coordinate
///    variables (e.g. cascades at (x, y) and (x, y+1)) must hold;
///  - all instructions occupy distinct slots.
///
/// Instructions sharing coordinate variables form *clusters* placed as one
/// rigid shape; the encoding assigns each cluster exactly one base
/// position and forbids slot overlap. Optional shrinking compacts the
/// layout (Section 5.3's final paragraph): the first solve tries the
/// smallest area the arithmetic capacity precheck admits, and only when
/// that fails do binary-search passes re-solve reduced areas.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_PLACE_PLACE_H
#define RETICLE_PLACE_PLACE_H

#include "device/Device.h"
#include "obs/Context.h"
#include "rasm/Asm.h"
#include "support/Result.h"

#include <array>
#include <string>
#include <vector>

namespace reticle {
namespace sat {
class ProofWriter;
} // namespace sat

namespace place {

/// Tuning knobs for placement.
struct PlacementOptions {
  /// Minimise the placed area, columns first, then rows. The first solve
  /// then runs inside the smallest box the arithmetic capacity precheck
  /// admits (the smallest column bound with rows open, then the smallest
  /// row bound under it). No layout fits a smaller box, so when that solve
  /// holds its layout is the result and no probe follows. Otherwise the
  /// first solution comes from the whole device, as without shrinking,
  /// and binary-search passes shrink it, each starting at the precheck's
  /// bound for its axis. Every attempt is a fresh encoding: a first-solve
  /// attempt's per-cluster candidate cap grows until it is satisfiable,
  /// and a shrink probe encodes every candidate within its bounds under a
  /// conflict budget.
  bool Shrink = true;
  /// Unused; kept only so perfbench builds. Delete with its assignment there.
  unsigned Mode = 0;
  /// Unused; kept only so perfbench builds. Delete with its assignment there.
  unsigned PortfolioLanes = 4;
  /// When set, every SAT search of the run appends DRAT-style proof lines
  /// (learnt additions, deletions, assumption-core implications) here.
  sat::ProofWriter *Proof = nullptr;
};

/// One frame of the placement timeline: the initial solution or one probe
/// of the binary-search shrink. Each frame carries the layout accepted so
/// far (so failed probes still render the best-known floorplan) plus the
/// search effort the probe cost, letting `--floorplan-timeline` draw the
/// bounding box contracting probe by probe.
struct ShrinkProbe {
  enum class Axis : uint8_t { Initial, Column, Row };
  enum class Outcome : uint8_t { Sat, Unsat, Budget };
  Axis ProbeAxis = Axis::Initial;
  Outcome Result = Outcome::Sat;
  unsigned Bound = 0;     ///< tried bound on the probed axis (Initial: unused)
  uint64_t Conflicts = 0; ///< solver conflicts spent on this probe
  uint64_t Decisions = 0; ///< solver decisions spent on this probe
  unsigned MaxColumn = 0; ///< bounding box of the accepted layout so far
  unsigned MaxRow = 0;
  std::vector<device::Slot> Slots; ///< occupied slots of the accepted layout
};

/// One named constraint participating in an UNSAT explanation. Kind is one
/// of "capacity" (arithmetic precheck: demand exceeds slots), "range" (a
/// cluster has no in-bounds base position), "choose-one" (a cluster's
/// candidate-selection constraint) or "distinct" (a slot's at-most-one-user
/// constraint); Instr names the destination of a representative
/// instruction so the explanation points back into the program.
struct CoreConstraint {
  std::string Kind;
  std::string Instr;
  std::string Detail;
};

/// Facts about one placement run, reported by benchmarks and the unified
/// stats document (`reticlec --stats-json=`). The Sat block aggregates
/// sat::Solver::Statistics over every solve of the run, shrink probes
/// included, so a slow placement can be attributed to search effort
/// rather than guessed at.
struct PlacementStats {
  unsigned Solves = 0;           ///< SAT invocations (including shrinking)
  unsigned ShrinkIterations = 0; ///< binary-search probes over both axes
  unsigned Vars = 0;             ///< variables in the final encoding
  unsigned Clauses = 0;          ///< problem clauses in the final encoding
  uint64_t Conflicts = 0;        ///< summed solver conflicts
  uint64_t Decisions = 0;        ///< summed solver decisions
  uint64_t Propagations = 0;     ///< summed solver propagations
  uint64_t Restarts = 0;         ///< summed solver restarts
  uint64_t Learned = 0;          ///< summed learned clauses
  uint64_t BudgetExhausted = 0;  ///< solves that hit their conflict budget
  double SatMs = 0.0;            ///< wall-clock spent inside the SAT solver
  /// Learned-clause quality profile, summed over every solve (bucket
  /// layout documented on sat::Solver::Statistics).
  std::array<uint64_t, 8> LbdHistogram{};
  std::array<uint64_t, 8> LearnedSizeHistogram{};
  unsigned MaxColumn = 0; ///< highest column used
  unsigned MaxRow = 0;    ///< highest row used
  /// Wall-clock of the whole shrink phase, every probe's encoding
  /// included.
  double ShrinkMs = 0.0;
  uint64_t IncrementalProbes = 0; ///< probes answered by the SAT solver
  uint64_t PrecheckProbes = 0;    ///< probes settled arithmetically (no SAT)
  /// Always 0; kept only so perfbench builds. Delete with its use there.
  uint64_t IncrementalEncodes = 0;
  /// The initial solve plus every shrink probe, in order.
  std::vector<ShrinkProbe> Timeline;
  /// Named constraints explaining a failed placement (empty on success):
  /// the minimized SAT core mapped back through the clause-group tags, or
  /// the arithmetic precheck / empty-range verdicts when the encoding was
  /// never solved.
  std::vector<CoreConstraint> Core;
};

/// Resolves all locations of \p Prog on \p Dev. Returns the placed,
/// device-specific program (all coordinates literal). Fails when the
/// constraints are unsatisfiable ("If Z3 cannot find a valid placement for
/// every instruction, placement fails").
Result<rasm::AsmProgram> place(const rasm::AsmProgram &Prog,
                               const device::Device &Dev,
                               const PlacementOptions &Options,
                               PlacementStats *Stats,
                               const obs::Context &Ctx);

/// Independently validates that \p Placed realizes \p Original on \p Dev:
/// literal coordinates on valid distinct slots of the right kind, with
/// every literal pin and every relative variable constraint of the
/// original respected. Used by tests and as a post-placement assertion.
Status checkPlacement(const rasm::AsmProgram &Original,
                      const rasm::AsmProgram &Placed,
                      const device::Device &Dev);

} // namespace place
} // namespace reticle

#endif // RETICLE_PLACE_PLACE_H
