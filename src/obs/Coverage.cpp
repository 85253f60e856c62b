//===- obs/Coverage.cpp - Bin-based coverage registry ---------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "obs/Coverage.h"

#include "obs/Json.h"

#include <mutex>

using namespace reticle;
using namespace reticle::obs;

Json obs::coverageJson(const CoverageSnapshot &Spaces) {
  Json SpacesJson = Json::object();
  uint64_t TotalBins = 0;
  uint64_t TotalHit = 0;
  for (const auto &[SpaceName, Bins] : Spaces) {
    Json BinsJson = Json::object();
    uint64_t Hit = 0;
    for (const auto &[BinName, Count] : Bins) {
      BinsJson.set(BinName, Count);
      if (Count > 0)
        ++Hit;
    }
    Json SpaceJson = Json::object();
    SpaceJson.set("bins", std::move(BinsJson));
    SpaceJson.set("hit", Hit);
    SpaceJson.set("total", static_cast<uint64_t>(Bins.size()));
    SpacesJson.set(SpaceName, std::move(SpaceJson));
    TotalBins += Bins.size();
    TotalHit += Hit;
  }
  Json Out = Json::object();
  Out.set("spaces", std::move(SpacesJson));
  Json Totals = Json::object();
  Totals.set("spaces", static_cast<uint64_t>(Spaces.size()));
  Totals.set("bins", TotalBins);
  Totals.set("hit", TotalHit);
  Out.set("totals", std::move(Totals));
  return Out;
}

Json obs::coverageDoc(const std::string &Program,
                      const CoverageSnapshot &Spaces) {
  Json Doc = Json::object();
  Doc.set("schema", "reticle-coverage-v1");
  Doc.set("program", Program);
  Json Body = coverageJson(Spaces);
  for (const auto &[Key, Value] : Body.members())
    Doc.set(Key, Value);
  return Doc;
}

struct Coverage::Impl {
  mutable std::mutex Mu;
  CoverageSnapshot Spaces;
};

Coverage::Coverage() : I(std::make_unique<Impl>()) {}
Coverage::~Coverage() = default;

void Coverage::declare(std::string_view Space, std::string_view Bin) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  // try_emplace leaves an existing count untouched.
  I->Spaces[std::string(Space)].try_emplace(std::string(Bin), 0);
}

void Coverage::hit(std::string_view Space, std::string_view Bin, uint64_t N) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Spaces[std::string(Space)][std::string(Bin)] += N;
}

bool Coverage::empty() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Spaces.empty();
}

CoverageSnapshot Coverage::snapshot() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Spaces;
}

void Coverage::merge(const Coverage &Other) { merge(Other.snapshot()); }

void Coverage::merge(CoverageSnapshot Other) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  for (auto &[SpaceName, Bins] : Other) {
    auto &Dst = I->Spaces[SpaceName];
    if (Dst.empty()) {
      Dst = std::move(Bins);
      continue;
    }
    for (const auto &[BinName, Count] : Bins)
      Dst[BinName] += Count;
  }
}

void Coverage::reset() {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Spaces.clear();
}

Coverage &obs::defaultCoverage() {
  static Coverage C;
  return C;
}
