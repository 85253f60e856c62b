//===- perfbench/src/Spans.cpp - In-memory spans of the traced run --------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "obs/Json.h"

using namespace reticle;

namespace perfbench {

namespace {

double usSince(std::chrono::steady_clock::time_point Origin) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

} // namespace

SpanLog::SpanLog() : Origin(std::chrono::steady_clock::now()) {}

int SpanLog::begin(std::string Name, uint64_t Op) {
  int Id = static_cast<int>(Spans.size());
  SpanRec R;
  R.Name = std::move(Name);
  R.Parent = Open.empty() ? -1 : Open.back();
  R.Op = Op;
  R.StartUs = usSince(Origin);
  Spans.push_back(std::move(R));
  ChildUs.push_back(0.0);
  Open.push_back(Id);
  return Id;
}

void SpanLog::end(int Id) {
  SpanRec &R = Spans[Id];
  R.EndUs = usSince(Origin);
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
  if (R.Parent >= 0)
    ChildUs[R.Parent] += R.EndUs - R.StartUs;
}

double SpanLog::selfMs(size_t Id) const {
  const SpanRec &R = Spans[Id];
  return (R.EndUs - R.StartUs - ChildUs[Id]) / 1000.0;
}

std::map<std::string, std::vector<std::pair<uint64_t, double>>>
SpanLog::selfTimesByName() const {
  // (name, op) -> summed self time, then one sample per op in op order.
  std::map<std::string, std::map<uint64_t, double>> ByOp;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByOp[Spans[I].Name][Spans[I].Op] += selfMs(I);
  std::map<std::string, std::vector<std::pair<uint64_t, double>>> Out;
  for (const auto &[Name, Ops] : ByOp)
    Out[Name].assign(Ops.begin(), Ops.end());
  return Out;
}

std::string SpanLog::chromeJson() const {
  obs::Json Events = obs::Json::array();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &R = Spans[I];
    obs::Json E = obs::Json::object();
    E.set("name", R.Name);
    E.set("ph", "X");
    E.set("ts", R.StartUs);
    E.set("dur", R.EndUs - R.StartUs);
    E.set("pid", 1);
    E.set("tid", 1);
    obs::Json Args = obs::Json::object();
    Args.set("op", R.Op);
    Args.set("id", static_cast<uint64_t>(I));
    Args.set("parent", R.Parent);
    Args.set("self_ms", selfMs(I));
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  obs::Json Doc = obs::Json::object();
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");
  return Doc.str() + "\n";
}

} // namespace perfbench
