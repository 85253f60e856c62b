//===- obs/Coverage.h - Bin-based coverage registry -------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coverage layer behind the fuzzing/DSE roadmap items: a registry of
/// named **spaces** (e.g. "ir.op_type", "isel.pattern", "sim.toggle"),
/// each a set of **bins** with hit counts. Three collectors feed it:
///
///  - **Static IR coverage**: the verifier records one bin per op, per
///    op x result-type (the type string includes the vector width), per
///    lane count, and per resource annotation of every instruction it
///    accepts.
///  - **Isel pattern coverage**: the instruction selector *declares*
///    every selectable pattern up front (so never-fired patterns show up
///    as zero-count bins) and hits a bin each time a pattern wins a
///    tree, at the same site the `isel:pattern` remark is emitted.
///  - **Dynamic toggle coverage**: `sim::ToggleCoverageSink` (a
///    `sim::WaveSink`) replays per-cycle waveform events into
///    per-signal-bit 0->1 / 1->0 bins for both simulation engines.
///
/// Like `Telemetry`, coverage is **instance-based**: `core::CompileSession`
/// owns one registry per compile and threads it via `obs::Context`, with
/// a process-wide `defaultCoverage()` backing the global session.
///
/// Serialized form is the `reticle-coverage-v1` document; see
/// docs/OBSERVABILITY.md. Zero-count (declared-only) bins count toward a
/// space's `total` but not its `hit`, which is what makes coverage-hole
/// reports possible.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_OBS_COVERAGE_H
#define RETICLE_OBS_COVERAGE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace reticle {
namespace obs {

class Json;

/// An ordered snapshot of one coverage registry: space name -> bin name
/// -> hit count. std::map keeps serialization deterministic regardless
/// of recording order.
using CoverageSnapshot = std::map<std::string, std::map<std::string, uint64_t>>;

/// Builds the {"spaces": {...}, "totals": {...}} fragment shared by the
/// stats `coverage` section, the batch summary, and the standalone doc.
Json coverageJson(const CoverageSnapshot &Spaces);

/// Wraps \p Spaces as a standalone `reticle-coverage-v1` document for
/// \p Program.
Json coverageDoc(const std::string &Program, const CoverageSnapshot &Spaces);

/// One coverage domain: named spaces of named bins with hit counts. All
/// operations are thread-safe; concurrent compiles record into disjoint
/// instances (one per CompileSession) without contending.
class Coverage {
public:
  Coverage();
  ~Coverage();
  Coverage(const Coverage &) = delete;
  Coverage &operator=(const Coverage &) = delete;

  /// Registers the bin with count zero if it does not exist yet. This is
  /// how "never fired" becomes visible: declared-but-unhit bins appear
  /// in the snapshot with count 0.
  void declare(std::string_view Space, std::string_view Bin);

  /// Adds \p N hits to the bin, creating it on first hit.
  void hit(std::string_view Space, std::string_view Bin, uint64_t N = 1);

  /// True when no bin has been declared or hit.
  bool empty() const;

  /// Deep copy of the current state, sorted by space and bin name.
  CoverageSnapshot snapshot() const;

  /// Folds \p Other into this registry (union of bins, counts summed)
  /// under one lock. The snapshot is taken by value: a space with no bins
  /// here yet moves in whole, with no per-bin search or copy, so a caller
  /// that hands over a temporary (or std::move) pays for no copy.
  void merge(const Coverage &Other);
  void merge(CoverageSnapshot Other);

  /// Drops every space and bin.
  void reset();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The process-wide default instance, used by the global CompileSession.
Coverage &defaultCoverage();

} // namespace obs
} // namespace reticle

#endif // RETICLE_OBS_COVERAGE_H
