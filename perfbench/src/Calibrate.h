//===- perfbench/src/Calibrate.h - Machine-speed calibration ----*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared machine the speed available to one thread drifts by tens
/// of percent within seconds, and every timing moves with it. The
/// benchmark therefore times a fixed kernel of its own (random
/// read-modify-write over a 4 MiB table, hash-map inserts, a sort: the
/// allocation- and cache-bound mix compiler passes are made of) before
/// every set-up and every pass, and scales each time measured in a pass by
/// ReferenceMs / (the kernel times around that pass): milliseconds on a
/// machine where the kernel takes ReferenceMs. The kernel does not call the
/// code under measurement, so a change to the compiler or the simulators
/// moves the scaled times exactly as it moves the raw ones. Raw samples and
/// the kernel times are kept in the result file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

namespace perfbench {

/// Kernel time of the reference machine (milliseconds).
constexpr double ReferenceMs = 3.0;

/// Runs the calibration kernel three times and returns the median wall
/// time in ms.
double calibrationMs();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
