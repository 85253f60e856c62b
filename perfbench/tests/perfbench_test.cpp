//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Checks the benchmark's rules rather than the compiler: the tail
/// percentile rule, the metric-name grammar, seed determinism of the
/// drawn programs and input traces, and that the oracle turns a corrupted
/// Verilog text or output trace into a counted failed operation. Exits
/// nonzero on the first failed check group.
///
//===----------------------------------------------------------------------===//

#include "Metrics.h"
#include "Oracle.h"
#include "Workloads.h"

#include "core/Compiler.h"
#include "core/Session.h"
#include "interp/Interp.h"
#include "ir/Parser.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace reticle;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I > 0; --I) // descending: the rule must sort
    V.push_back(static_cast<double>(I));
  return V;
}

void testTailRule() {
  check(!tailPercentile(iota(10)), "10 samples have no tail");
  std::optional<Tail> T = tailPercentile(iota(11));
  check(T && T->Percentile == 9 && T->Beyond == 10 && T->Value == 1.0,
        "11 samples: p9 is the only rank with 10 beyond");
  T = tailPercentile(iota(20));
  check(T && T->Percentile == 50 && T->Beyond == 10 && T->Value == 10.0,
        "20 samples: p50");
  T = tailPercentile(iota(100));
  check(T && T->Percentile == 90 && T->Beyond == 10 && T->Value == 90.0,
        "100 samples: p90");
  T = tailPercentile(iota(1000));
  check(T && T->Percentile == 99 && T->Beyond == 10 && T->Value == 990.0,
        "1000 samples: p99 with exactly 10 beyond");
  T = tailPercentile(iota(5000));
  check(T && T->Percentile == 99 && T->Beyond == 50 && T->Samples == 5000,
        "large samples cap at p99");
  for (size_t N = 11; N < 400; ++N) {
    std::optional<Tail> U = tailPercentile(iota(N));
    bool Ok = U && U->Beyond >= 10 && U->Samples == N;
    if (Ok && U->Percentile < 99) {
      // The next percentile up must leave fewer than 10 beyond.
      size_t Rank = ((U->Percentile + 1) * N + 99) / 100;
      Ok = N - Rank < 10;
    }
    check(Ok, "tail percentile is the highest with >= 10 beyond");
  }
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5 &&
            median({}) == 0.0,
        "median");
}

void testMetricGrammar() {
  for (const char *Good : {"setup_s", "compile_ms_p50", "place.sat_ms",
                           "0th", "a-b.c_d", "A"})
    check(validMetricName(Good), Good);
  std::string Long(64, 'x');
  check(validMetricName(Long), "64 characters are allowed");
  for (const char *Bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/name", "perc%"})
    check(!validMetricName(Bad), Bad);
  check(!validMetricName(Long + "x"), "65 characters are refused");
  for (const char *Good : {"ms", "s", "1/s", "cycles/s", "%", "count", "MB"})
    check(validUnit(Good), Good);
  check(!validUnit("") && !validUnit("m s") && !validUnit(std::string(17, 'u')),
        "bad units are refused");

  MetricSet M;
  check(M.add("latency_ms", 1.5, "ms", Better::Lower), "add a metric");
  check(!M.add("latency_ms", 2.0, "ms", Better::Lower), "duplicate refused");
  check(!M.add("bad name", 2.0, "ms", Better::Lower), "bad name refused");
  check(!M.add("ok", 2.0, "bad unit", Better::Lower), "bad unit refused");
  check(M.all().size() == 1 && M.find("latency_ms")->Value == 1.5,
        "metric set keeps only valid metrics");
  check(formatNumber(0.1) == "0.1" && formatNumber(1234.5) == "1234.5",
        "numbers print in shortest round-trip form");
}

void testSeedDeterminism() {
  for (const WorkloadDef &W : workloads()) {
    check(validMetricName(W.Name), "workload names follow the grammar");
    std::vector<ProgramText> A = drawPrograms(W, 42);
    std::vector<ProgramText> B = drawPrograms(W, 42);
    bool Same = A.size() == B.size() && A.size() == W.Slots.size();
    for (size_t I = 0; Same && I < A.size(); ++I)
      Same = A[I].Name == B[I].Name && A[I].Text == B[I].Text;
    check(Same, "the same seed draws byte-identical programs");

    bool TracesSame = true;
    for (size_t I = 0; I < A.size(); ++I) {
      Result<ir::Function> Fn = ir::parseFunction(A[I].Text);
      check(Fn.ok(), "drawn programs parse");
      if (!Fn)
        continue;
      interp::Trace T1 = makeInputTrace(Fn.value(), 64, subSeed(42, I + 1));
      interp::Trace T2 = makeInputTrace(Fn.value(), 64, subSeed(42, I + 1));
      TracesSame = TracesSame && T1 == T2 && T1.size() == 64;
    }
    check(TracesSame, "the same seed gives identical input traces");
  }
  // Different seeds draw different inputs somewhere.
  const WorkloadDef *Small = findWorkload("compile_small");
  check(Small != nullptr, "compile_small exists");
  bool Differs = false;
  for (uint64_t Seed = 1; Seed < 8 && !Differs; ++Seed) {
    std::vector<ProgramText> A = drawPrograms(*Small, Seed);
    std::vector<ProgramText> B = drawPrograms(*Small, Seed + 100);
    for (size_t I = 0; I < A.size(); ++I)
      Differs = Differs || A[I].Name != B[I].Name;
  }
  check(Differs, "different seeds draw different sizes");
  check(findWorkload("no_such_workload") == nullptr, "unknown workload");
}

void testOracleCountsCorruption() {
  const char *Mac = R"(def mac(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
  t0:i8 = mul(a, b) @??;
  t1:i8 = add(t0, c) @??;
  y:i8 = reg[0](t1, en) @??;
}
)";
  Result<ir::Function> Fn = ir::parseFunction(Mac);
  check(Fn.ok(), "mac parses");
  if (!Fn)
    return;
  core::CompileOptions Options;
  core::CompileSession Session;
  Result<core::CompileResult> R =
      core::compileSource(Mac, "mac", Options, Session);
  check(R.ok(), "mac compiles");
  if (!R)
    return;
  interp::Trace In = makeInputTrace(Fn.value(), 32, 7);
  Result<interp::Trace> Want = interp::interpret(Fn.value(), In);
  check(Want.ok(), "interpreter runs");
  if (!Want)
    return;

  OpLedger Ledger;
  Ledger.record(checkCompiled(Fn.value(), R.value(), Options, In,
                              Want.value()),
                "set-up");
  std::string Verilog = R.value().Verilog.str();
  Ledger.record(checkVerilog(Verilog, Verilog), "compile");
  Ledger.record(checkTrace(Fn.value(), Want.value(), Want.value()), "run");
  check(Ledger.attempted() == 3 && Ledger.failed() == 0,
        "the checked program passes every oracle");

  std::string Corrupt = Verilog;
  Corrupt[Corrupt.size() / 2] ^= 1;
  Ledger.record(checkVerilog(Corrupt, Verilog), "corrupted Verilog");
  check(Ledger.failed() == 1, "a corrupted Verilog text is a failed operation");
  Ledger.record(checkVerilog(Verilog + " ", Verilog), "longer Verilog");
  check(Ledger.failed() == 2, "an extended Verilog text is a failed operation");

  interp::Trace Bad = Want.value();
  interp::Value &Y = Bad.step(5)["y"];
  Y = interp::Value::fromLanes(Y.type(), {Y.lane(0) + 1});
  Ledger.record(checkTrace(Fn.value(), Bad, Want.value()), "corrupted trace");
  check(Ledger.failed() == 3, "a corrupted output trace is a failed operation");
  interp::Trace Short = Want.value();
  Short.steps().pop_back();
  Ledger.record(checkTrace(Fn.value(), Short, Want.value()), "short trace");
  check(Ledger.failed() == 4, "a truncated output trace is a failed operation");
  check(Ledger.attempted() == 7 && Ledger.messages().size() == 4,
        "every failure is counted with its message");
}

} // namespace

int main() {
  testTailRule();
  testMetricGrammar();
  testSeedDeterminism();
  testOracleCountsCorruption();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
