//===- obs/Remarks.h - Optimization remarks engine --------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured optimization remarks (LLVM `-Rpass`-style): every pipeline
/// stage records *what it decided* — which tile covered a tree, why a
/// cascade chain was (or was not) rewritten, how each placement shrink
/// probe resolved — as `Remark{stage, kind, instr, message, args}`
/// records. Telemetry (Telemetry.h) answers "where does the time go";
/// remarks answer "what did the compiler do and why".
///
/// Remarks are **instance-based**: a `RemarkStream` owns one record buffer
/// and its own enable switch, so concurrent compiles record into disjoint
/// streams. Usage at an instrumentation site (with the obs::Context the
/// stage was handed):
///
///   if (Ctx.remarksEnabled())
///     obs::Remark(Ctx, "isel", "pattern")
///         .instr(I.dst())
///         .message("covered with '" + Def->Name + "'")
///         .arg("area", Def->Area);
///
/// The builder commits to its stream when it goes out of scope. Recording
/// only happens while the stream is enabled (`RemarkStream::enable()`, or
/// `reticlec --remarks=... / --remarks-json=...`); sites guard string
/// construction behind `remarksEnabled()`, which is one relaxed atomic
/// load. There is no process-wide stream: a remark reaches the stream of
/// the `obs::Context` its stage was handed.
///
/// Rendering: `text()` produces one human-readable line per remark;
/// `jsonl()` produces the machine-readable `reticle-remarks-v1` stream
/// (one header line, then one JSON object per remark).
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_OBS_REMARKS_H
#define RETICLE_OBS_REMARKS_H

#include "obs/Json.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace reticle {
namespace obs {

struct Context;

/// One remark domain: a buffer of committed remark records plus its own
/// enable switch. Records are committed fully formed under the lock;
/// readers (text / jsonl) snapshot under the same lock.
class RemarkStream {
public:
  RemarkStream();
  ~RemarkStream();
  RemarkStream(const RemarkStream &) = delete;
  RemarkStream &operator=(const RemarkStream &) = delete;

  /// Recording switch; one relaxed atomic load, so sites can guard string
  /// construction behind it.
  bool enabled() const;
  void enable(bool On = true);

  /// Number of remarks recorded so far.
  size_t count() const;

  /// Human rendering: one `stage:kind: ['instr':] message {k=v, ...}`
  /// line per remark.
  std::string text() const;

  /// Machine rendering (`reticle-remarks-v1`): a header object line
  /// (`{"schema": "reticle-remarks-v1", "program": ...}`) followed by one
  /// compact JSON object per remark.
  std::string jsonl(std::string_view Program) const;

private:
  friend class Remark;
  void commit(Json Record);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// A builder for one remark. Construction samples the stream's switch;
/// destruction commits the record when recording is on. \p Stage names the
/// pipeline stage ("isel", "cascade", "place", "sat", "opt", "timing");
/// \p Kind is a short stage-specific verdict ("pattern", "chain",
/// "shrink-probe", ...). Both must outlive the builder (string literals
/// do).
class Remark {
public:
  /// Records into \p Stream / the stream of \p Ctx, which must outlive
  /// the builder.
  Remark(RemarkStream &Stream, const char *Stage, const char *Kind);
  Remark(const Context &Ctx, const char *Stage, const char *Kind);
  ~Remark();
  Remark(const Remark &) = delete;
  Remark &operator=(const Remark &) = delete;

  /// Names the instruction (result name) the remark is about.
  Remark &instr(std::string_view Name);
  /// The human-readable sentence of the remark.
  Remark &message(std::string Text);
  /// Structured arguments, preserved verbatim in the JSONL record.
  Remark &arg(const char *Key, int64_t Value);
  Remark &arg(const char *Key, uint64_t Value);
  Remark &arg(const char *Key, int Value) {
    return arg(Key, static_cast<int64_t>(Value));
  }
  Remark &arg(const char *Key, unsigned Value) {
    return arg(Key, static_cast<uint64_t>(Value));
  }
  Remark &arg(const char *Key, double Value);
  Remark &arg(const char *Key, const char *Value);
  Remark &arg(const char *Key, std::string Value);

private:
  RemarkStream *Stream = nullptr;
  bool Active = false;
  const char *Stage = nullptr;
  const char *Kind = nullptr;
  std::string Instr;
  std::string Message;
  Json Args;
};

} // namespace obs
} // namespace reticle

#endif // RETICLE_OBS_REMARKS_H
