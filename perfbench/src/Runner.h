//===- perfbench/src/Runner.h - One measured run of a workload --*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for one seed: set-up (draw, reference compile, the
/// oracle checks, simulation programs and expected traces) repeated a few
/// times, then a single-threaded closed loop that alternates compile and
/// simulate passes for the requested time. An untraced run yields the
/// end-to-end metrics; a traced run repeats every pass through spanned
/// per-layer calls and yields the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNNER_H
#define PERFBENCH_RUNNER_H

#include "Metrics.h"
#include "Spans.h"
#include "Workloads.h"

#include "obs/Json.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

struct RunOutcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricSet Metrics;
  /// Per-program rows, the tail rule's percentile and sample count, set-up
  /// samples and the first failure messages.
  reticle::obs::Json Detail = reticle::obs::Json::object();
  SpanLog Spans;
};

/// Runs \p W under \p Config. Failed operations are counted, never fatal.
void runWorkload(const WorkloadDef &W, const RunConfig &Config,
                 RunOutcome &Out);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_H
