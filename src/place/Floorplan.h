//===- place/Floorplan.h - Placement floorplan rendering --------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a placed (device-specific) assembly program on the device's
/// column grid, so a placement can be *seen* instead of read as coordinate
/// lists: columns are drawn side by side and tinted by resource kind,
/// placed primitives appear as labeled cells at their (x, y) slots, and
/// cascade chains (Section 5.2) are drawn as links between vertically
/// adjacent DSPs. Row 0 is at the bottom, matching the device convention.
///
/// Two renderings over the same model: SVG for files/browsers
/// (`reticlec --floorplan=plan.svg`) and a plain-text grid for terminals
/// (`--floorplan=-`).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_PLACE_FLOORPLAN_H
#define RETICLE_PLACE_FLOORPLAN_H

#include "device/Device.h"
#include "rasm/Asm.h"

#include <string>

namespace reticle {
namespace place {

/// Renders \p Placed on \p Dev as a standalone SVG document. Instructions
/// with non-literal coordinates are ignored (the input should be the
/// placed program). Never fails: an empty program renders the bare grid.
std::string floorplanSvg(const rasm::AsmProgram &Placed,
                         const device::Device &Dev);

/// The terminal fallback: one character cell per slot ('.' free, '#'
/// placed, '|' cascade member), columns left to right, row 0 on the bottom
/// line, followed by a placement listing. Rows above the highest used slot
/// are elided on tall devices.
std::string floorplanAscii(const rasm::AsmProgram &Placed,
                           const device::Device &Dev);

} // namespace place
} // namespace reticle

#endif // RETICLE_PLACE_FLOORPLAN_H
