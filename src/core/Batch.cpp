//===- core/Batch.cpp - Parallel batch compilation ------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Batch.h"

#include "core/Stats.h"
#include "tdl/Ultrascale.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace reticle;
using namespace reticle::core;

unsigned reticle::core::batchJobCount(const BatchOptions &Options,
                                      size_t InputCount) {
  unsigned Jobs =
      Options.Jobs ? Options.Jobs
                   : std::max(1u, std::thread::hardware_concurrency());
  if (InputCount < Jobs)
    Jobs = static_cast<unsigned>(InputCount);
  return std::max(1u, Jobs);
}

std::vector<size_t>
reticle::core::batchScheduleOrder(const std::vector<BatchInput> &Inputs) {
  // Statement terminators are a faithful proxy for instruction count, and
  // counting them costs nothing compared to a compile.
  std::vector<size_t> Cost(Inputs.size(), 0);
  for (size_t I = 0; I < Inputs.size(); ++I)
    Cost[I] = static_cast<size_t>(
        std::count(Inputs[I].Source.begin(), Inputs[I].Source.end(), ';'));
  std::vector<size_t> Order(Inputs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Cost[A] > Cost[B];
  });
  return Order;
}

std::vector<BatchItem>
reticle::core::compileBatch(const std::vector<BatchInput> &Inputs,
                            const BatchOptions &Options) {
  // Touch the lazily-built singleton targets before any worker does, so
  // the workers only ever read them.
  CompileOptions PerCompile = Options.Options;
  if (!PerCompile.Target)
    PerCompile.Target = &tdl::ultrascale();

  std::vector<BatchItem> Items;
  Items.reserve(Inputs.size());
  for (const BatchInput &In : Inputs) {
    BatchItem Item;
    Item.Name = In.Name;
    Item.Session = std::make_unique<CompileSession>();
    if (Options.CaptureSnapshots)
      Item.Session->captureSnapshots();
    if (Options.EnableRemarks)
      Item.Session->remarks().enable();
    if (Options.EnableTracing)
      Item.Session->telemetry().enableTracing();
    Items.push_back(std::move(Item));
  }

  // Workers pull from the cost-sorted schedule so the most expensive
  // compiles start first; results still land at their input's index.
  std::vector<size_t> Order = batchScheduleOrder(Inputs);
  std::atomic<size_t> NextSlot{0};
  auto Work = [&] {
    for (size_t Slot = NextSlot.fetch_add(1, std::memory_order_relaxed);
         Slot < Order.size();
         Slot = NextSlot.fetch_add(1, std::memory_order_relaxed)) {
      size_t I = Order[Slot];
      Items[I].Outcome.emplace(compileSource(
          Inputs[I].Source, Inputs[I].Name, PerCompile, *Items[I].Session));
    }
  };

  unsigned Jobs = batchJobCount(Options, Inputs.size());
  if (Jobs <= 1) {
    Work();
    return Items;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Jobs);
  for (unsigned T = 0; T < Jobs; ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  return Items;
}

obs::Json reticle::core::batchStatsJson(const std::vector<BatchItem> &Items,
                                        unsigned Jobs) {
  using obs::Json;
  Json Doc = Json::object();
  Doc.set("schema", "reticle-batch-v1");
  Doc.set("inputs", static_cast<uint64_t>(Items.size()));

  uint64_t Succeeded = 0, Failed = 0;
  double TotalMs = 0.0;
  uint64_t Luts = 0, Dsps = 0;
  Json Programs = Json::array();
  for (const BatchItem &Item : Items) {
    Json Entry = Json::object();
    Entry.set("program", Item.Name);
    if (Item.ok()) {
      ++Succeeded;
      const CompileResult &R = Item.Outcome->value();
      TotalMs += R.Times.TotalMs;
      Luts += R.Util.Luts;
      Dsps += R.Util.Dsps;
      Entry.set("status", "ok");
      Entry.set("stats",
                statsJson(R, Item.Name, Item.Session->context()));
    } else {
      ++Failed;
      Entry.set("status", "error");
      Entry.set("error",
                Item.Outcome ? Item.Outcome->error()
                             : std::string("not compiled"));
    }
    Programs.push(std::move(Entry));
  }
  Doc.set("succeeded", Succeeded);
  Doc.set("failed", Failed);
  Doc.set("jobs", static_cast<uint64_t>(Jobs));
  Doc.set("programs", std::move(Programs));

  Json Totals = Json::object();
  Totals.set("total_ms", TotalMs);
  Totals.set("luts", Luts);
  Totals.set("dsps", Dsps);
  Doc.set("totals", std::move(Totals));
  Doc.set("coverage", obs::coverageJson(batchCoverage(Items)));
  return Doc;
}

obs::CoverageSnapshot
reticle::core::batchCoverage(const std::vector<BatchItem> &Items) {
  obs::CoverageSnapshot Merged;
  for (const BatchItem &Item : Items)
    for (const auto &[Space, Bins] : Item.Session->coverage().snapshot()) {
      auto &Dst = Merged[Space];
      for (const auto &[Bin, Count] : Bins)
        Dst[Bin] += Count;
    }
  return Merged;
}
