//===- tools/json_check.cpp - JSON document validator --------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Validates the JSON documents the compiler emits (trace files, stats
/// reports, remark streams, benchmark series) so CTest can gate on their
/// shape, not just on reticlec's exit code.
///
/// Usage:
///   json_check [checks] <file.json>
///     --jsonl               treat the file as JSON Lines: every non-empty
///                           line must parse; path checks pass when ANY
///                           line satisfies them
///     --require=<a.b.c>     dotted path must exist
///     --nonempty=<a.b.c>    array or object at path must have elements
///     --has-event=<name>    some traceEvents entry has "name": <name>
///     --has-remark=<stage>  (jsonl) some record has "stage": <stage>
///     --batch-summary       the document is a well-formed
///                           "reticle-batch-v1" batch summary: the counts
///                           add up, every program entry has a status, ok
///                           entries embed a reticle-stats-v1 document,
///                           error entries carry a message
///
/// The bare invocation only checks that the file parses as strict JSON.
///
/// Three presets diff two runs' artifacts:
///   json_check remark_diff   [--json] <a.jsonl> <b.jsonl>
///   json_check wave_diff     [--json] [--all-signals] <a.jsonl> <b.jsonl>
///   json_check coverage_diff [--json] <golden.json> <new.json>
/// A preset turns each input into keyed rows (key, label, value) in
/// document order. One join groups the rows of both inputs by key and
/// pairs them by position within a key (a remark stream repeats keys);
/// a pair is unchanged or changed, a leftover row removed (only in A) or
/// added (only in B). One report prints a +/-/~ line per difference, or
/// with --json one "reticle-diff-v1" document. Exit 0 when no row fails,
/// 1 when one does, 2 when an input is unusable (missing file, malformed
/// line, wrong schema, or a wave pair with no comparable signal): the
/// contract of diff(1).
///
///   remark_diff    reticle-remarks-v1 records keyed {stage, kind, instr};
///                  the value is the message plus compact args. Lines
///                  without a stage (the header) are skipped.
///   wave_diff      reticle-wave-v1 values keyed {cycle, signal}, for the
///                  signals both headers list and the cycles both streams
///                  ran; the value is the bit string. Only ports (kind
///                  input/output) are kept unless --all-signals is given
///                  or a header lacks kinds, since internal signals differ
///                  between engines. One more row holds the cycle count.
///   coverage_diff  reticle-coverage-v1 bins with a count > 0, keyed
///                  {space, bin}. The ratchet: only removed (lost) rows
///                  fail; a newly hit bin is added and passes.
///
///   json_check coverage_merge <a.json> [<b.json> ...]
/// sums the bins of reticle-coverage-v1 documents and prints the merged
/// document, a superset of every input, to stdout. Exit 0, or 2 when an
/// input is unusable.
///
//===----------------------------------------------------------------------===//

#include "obs/Coverage.h"
#include "obs/Json.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace reticle;
using obs::Json;

namespace {

int failCheck(const std::string &Path, const std::string &Message) {
  std::fprintf(stderr, "json_check: %s: %s\n", Path.c_str(),
               Message.c_str());
  return 1;
}

/// Walks a dotted path ("sat.decisions") through nested objects.
const Json *lookup(const Json &Root, const std::string &DottedPath) {
  const Json *Node = &Root;
  size_t Pos = 0;
  while (Pos <= DottedPath.size()) {
    if (!Node->isObject())
      return nullptr;
    size_t Dot = DottedPath.find('.', Pos);
    std::string Key = DottedPath.substr(
        Pos, Dot == std::string::npos ? std::string::npos : Dot - Pos);
    const Json *Next = Node->find(Key);
    // Keys may themselves contain dots (coverage space names like
    // "ir.op" or "isel.pattern"): when the plain segment misses, extend
    // it through later dots until a member matches.
    while (!Next && Dot != std::string::npos) {
      Dot = DottedPath.find('.', Dot + 1);
      Key = DottedPath.substr(
          Pos, Dot == std::string::npos ? std::string::npos : Dot - Pos);
      Next = Node->find(Key);
    }
    if (!Next)
      return nullptr;
    Node = Next;
    if (Dot == std::string::npos)
      return Node;
    Pos = Dot + 1;
  }
  return Node;
}

/// Structural validation of a "reticle-batch-v1" summary (see
/// core/Batch.h). Returns an empty string on success, else what is wrong.
std::string checkBatchSummary(const Json &Doc) {
  const Json *Schema = Doc.isObject() ? Doc.find("schema") : nullptr;
  if (!Schema || !Schema->isString() ||
      Schema->asString() != "reticle-batch-v1")
    return "schema is not \"reticle-batch-v1\"";

  auto Count = [&](const char *Key, int64_t &Out) -> bool {
    const Json *N = Doc.find(Key);
    if (!N || !N->isNumber())
      return false;
    Out = N->asInt();
    return true;
  };
  int64_t Inputs = 0, Succeeded = 0, Failed = 0, Jobs = 0;
  if (!Count("inputs", Inputs))
    return "missing numeric 'inputs'";
  if (!Count("succeeded", Succeeded))
    return "missing numeric 'succeeded'";
  if (!Count("failed", Failed))
    return "missing numeric 'failed'";
  if (!Count("jobs", Jobs) || Jobs < 1)
    return "missing positive 'jobs'";
  if (Succeeded + Failed != Inputs)
    return "succeeded + failed != inputs";

  const Json *Programs = Doc.find("programs");
  if (!Programs || !Programs->isArray())
    return "missing 'programs' array";
  if (static_cast<int64_t>(Programs->size()) != Inputs)
    return "'programs' length disagrees with 'inputs'";
  for (const Json &Entry : Programs->items()) {
    const Json *Name = Entry.isObject() ? Entry.find("program") : nullptr;
    if (!Name || !Name->isString())
      return "a program entry lacks 'program'";
    const Json *St = Entry.find("status");
    if (!St || !St->isString())
      return "'" + Name->asString() + "' lacks 'status'";
    if (St->asString() == "ok") {
      const Json *Stats = lookup(Entry, "stats.schema");
      if (!Stats || !Stats->isString() ||
          Stats->asString() != "reticle-stats-v1")
        return "'" + Name->asString() +
               "' is ok but embeds no reticle-stats-v1 document";
    } else if (St->asString() == "error") {
      const Json *Error = Entry.find("error");
      if (!Error || !Error->isString() || Error->asString().empty())
        return "'" + Name->asString() + "' failed without an error message";
    } else {
      return "'" + Name->asString() + "' has unknown status '" +
             St->asString() + "'";
    }
  }

  const Json *TotalMs = lookup(Doc, "totals.total_ms");
  if (!TotalMs || !TotalMs->isNumber())
    return "missing numeric 'totals.total_ms'";
  return {};
}

/// One parsed document and the line of the file it starts on.
struct Doc {
  size_t Line;
  Json Value;
};

/// One input file, read.
struct Input {
  std::string Path;
  std::vector<Doc> Docs;
};

/// The one reader: \p Path as one JSON document or, with \p Jsonl, as one
/// document per non-empty line. Diagnostics name the file and, for a
/// parse error, the line.
Result<Input> readInput(const std::string &Path, bool Jsonl) {
  std::ifstream In(Path);
  if (!In)
    return fail<Input>(Path + ": cannot open");
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  const std::string Text = Buffer.str();
  Input Out{Path, {}};
  if (!Jsonl) {
    Result<Json> D = Json::parse(Text);
    if (!D) {
      // The parser reports a byte offset; name its line instead.
      std::string Where;
      if (size_t At = D.error().rfind(" at offset "); At != std::string::npos) {
        size_t Offset = std::min<size_t>(
            std::strtoull(D.error().c_str() + At + 11, nullptr, 10),
            Text.size());
        Where = "line " +
                std::to_string(1 + std::count(Text.begin(),
                                              Text.begin() + Offset, '\n')) +
                ": ";
      }
      return fail<Input>(Path + ": " + Where + "malformed JSON: " + D.error());
    }
    Out.Docs.push_back({1, D.take()});
    return Out;
  }
  std::istringstream Lines(Text);
  std::string Line;
  for (size_t LineNo = 1; std::getline(Lines, Line); ++LineNo) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    Result<Json> D = Json::parse(Line);
    if (!D)
      return fail<Input>(Path + ": line " + std::to_string(LineNo) +
                         ": malformed JSON: " + D.error());
    Out.Docs.push_back({LineNo, D.take()});
  }
  return Out;
}

bool hasSchema(const Json &D, const std::string &Schema) {
  const Json *S = D.isObject() ? D.find("schema") : nullptr;
  return S && S->isString() && S->asString() == Schema;
}

/// The string member \p Key of \p Object, or "" when absent or not a
/// string.
std::string member(const Json &Object, const char *Key) {
  const Json *M = Object.isObject() ? Object.find(Key) : nullptr;
  return M && M->isString() ? M->asString() : std::string();
}

/// One keyed row of a preset's view of an input.
struct Row {
  std::string Key;   ///< the join key: its fields joined by NUL
  std::string Label; ///< the key as the report prints it
  std::string Value; ///< the compared text
};
using Rows = std::vector<Row>;
using RowPair = std::array<Rows, 2>;

/// remark_diff: one row per record, keyed {stage, kind, instr}.
Result<Rows> remarkRows(const Input &In) {
  Rows Out;
  for (const Doc &D : In.Docs) {
    const Json &R = D.Value;
    if (R.isObject() && R.find("schema") &&
        !hasSchema(R, "reticle-remarks-v1"))
      return fail<Rows>(In.Path + ": line " + std::to_string(D.Line) +
                        ": schema is not \"reticle-remarks-v1\"");
    const Json *Stage = R.isObject() ? R.find("stage") : nullptr;
    if (!Stage || !Stage->isString())
      continue; // header or foreign line
    std::string Kind = member(R, "kind"), Instr = member(R, "instr");
    std::string Label = Stage->asString() + ":" + Kind;
    if (!Instr.empty())
      Label += " @" + Instr;
    std::string Value = member(R, "message");
    if (const Json *Args = R.find("args"); Args && Args->size())
      Value.append(" ").append(Args->str());
    Out.push_back({Stage->asString() + '\0' + Kind + '\0' + Instr,
                   std::move(Label), std::move(Value)});
  }
  return Out;
}

/// One "reticle-wave-v1" stream, indexed for the {cycle, signal} join.
struct Wave {
  std::vector<std::string> Signals;         ///< header order
  std::map<std::string, std::string> Kinds; ///< name -> input/output/internal
  /// (cycle, signal) -> MSB-first bit string; a later record wins.
  std::map<std::pair<uint64_t, std::string>, std::string> Values;
  uint64_t Cycles = 0; ///< footer count, else last record cycle + 1
  bool HasKinds = false;
};

Result<Wave> readWave(const Input &In) {
  Wave W;
  bool SawHeader = false, SawRecord = false;
  uint64_t MaxCycle = 0;
  for (const Doc &D : In.Docs) {
    const Json &R = D.Value;
    auto Bad = [&](const std::string &What) {
      return fail<Wave>(In.Path + ": line " + std::to_string(D.Line) + ": " +
                        What);
    };
    if (!R.isObject())
      return Bad("not an object");
    if (R.find("schema")) {
      // Header line: declares the signal inventory.
      if (!hasSchema(R, "reticle-wave-v1"))
        return Bad("schema is not \"reticle-wave-v1\"");
      SawHeader = true;
      if (const Json *Signals = R.find("signals"); Signals && Signals->isArray())
        for (const Json &Sig : Signals->items()) {
          std::string Name = member(Sig, "name");
          if (Name.empty())
            continue;
          W.Signals.push_back(Name);
          if (const Json *Kind = Sig.find("kind"); Kind && Kind->isString()) {
            W.Kinds[Name] = Kind->asString();
            W.HasKinds = true;
          }
        }
    } else if (const Json *Sig = R.find("signal")) {
      // Value record.
      const Json *Cycle = R.find("cycle");
      const Json *Value = R.find("value");
      if (!Sig->isString() || !Cycle || !Cycle->isNumber() || !Value ||
          !Value->isString())
        return Bad("bad value record");
      uint64_t C = static_cast<uint64_t>(Cycle->asInt());
      W.Values[{C, Sig->asString()}] = Value->asString();
      MaxCycle = std::max(MaxCycle, C);
      SawRecord = true;
    } else if (const Json *Cycles = R.find("cycles");
               Cycles && Cycles->isNumber()) {
      W.Cycles = static_cast<uint64_t>(Cycles->asInt()); // footer
    }
    // Any other line is foreign and tolerated.
  }
  if (!SawHeader)
    return fail<Wave>(In.Path + ": no reticle-wave-v1 header line");
  if (W.Cycles == 0 && SawRecord)
    W.Cycles = MaxCycle + 1;
  return W;
}

/// wave_diff: a "cycles" row, then one row per value of a comparable
/// signal below both streams' cycle counts, cycle-major in A's header
/// order. Which signals compare depends on both headers.
Result<RowPair> waveRows(const std::array<Input, 2> &In, bool AllSignals) {
  std::array<Wave, 2> W;
  for (int I = 0; I < 2; ++I) {
    Result<Wave> R = readWave(In[I]);
    if (!R)
      return fail<RowPair>(R.error());
    W[I] = R.take();
  }
  auto IsPort = [](const Wave &S, const std::string &Name) {
    auto It = S.Kinds.find(Name);
    return It != S.Kinds.end() &&
           (It->second == "input" || It->second == "output");
  };
  bool PortsOnly = !AllSignals && W[0].HasKinds && W[1].HasKinds;
  std::map<std::string, size_t> Shared; // name -> position in A's header
  for (const std::string &Name : W[0].Signals)
    if (std::find(W[1].Signals.begin(), W[1].Signals.end(), Name) !=
            W[1].Signals.end() &&
        (!PortsOnly || (IsPort(W[0], Name) && IsPort(W[1], Name))))
      Shared.try_emplace(Name, Shared.size());
  if (Shared.empty())
    return fail<RowPair>(
        In[0].Path + " vs " + In[1].Path + ": no comparable signals (" +
        std::to_string(W[0].Signals.size()) + " vs " +
        std::to_string(W[1].Signals.size()) + " in headers" +
        (PortsOnly ? "; ports only, try --all-signals)" : ")"));

  uint64_t Cycles = std::min(W[0].Cycles, W[1].Cycles);
  RowPair Out;
  for (int I = 0; I < 2; ++I) {
    Out[I].push_back({"cycles", "cycles", std::to_string(W[I].Cycles)});
    std::vector<std::tuple<uint64_t, size_t, const std::string *,
                           const std::string *>>
        Cells;
    for (const auto &[Key, Bits] : W[I].Values)
      if (auto It = Shared.find(Key.second);
          Key.first < Cycles && It != Shared.end())
        Cells.emplace_back(Key.first, It->second, &Key.second, &Bits);
    std::sort(Cells.begin(), Cells.end());
    for (const auto &[Cycle, Position, Name, Bits] : Cells)
      Out[I].push_back({std::to_string(Cycle) + '\0' + *Name,
                        "cycle " + std::to_string(Cycle) + " " + *Name,
                        *Bits});
  }
  return Out;
}

/// One "reticle-coverage-v1" document: spaces and their bins in document
/// order, each count a non-negative integer.
struct CoverageDoc {
  using Bins = std::vector<std::pair<std::string, uint64_t>>;
  std::string Program;
  std::vector<std::pair<std::string, Bins>> Spaces;
};

Result<CoverageDoc> readCoverage(const Input &In) {
  const Json &R = In.Docs.front().Value;
  if (!hasSchema(R, "reticle-coverage-v1"))
    return fail<CoverageDoc>(In.Path +
                             ": schema is not \"reticle-coverage-v1\"");
  CoverageDoc Out;
  Out.Program = member(R, "program");
  const Json *Spaces = R.find("spaces");
  if (!Spaces || !Spaces->isObject())
    return fail<CoverageDoc>(In.Path + ": missing 'spaces' object");
  for (const auto &[SpaceName, Space] : Spaces->members()) {
    const Json *Bins = Space.isObject() ? Space.find("bins") : nullptr;
    if (!Bins || !Bins->isObject())
      return fail<CoverageDoc>(In.Path + ": space '" + SpaceName +
                               "' has no 'bins' object");
    CoverageDoc::Bins &Dst =
        Out.Spaces.emplace_back(SpaceName, CoverageDoc::Bins()).second;
    for (const auto &[BinName, Count] : Bins->members()) {
      if (Count.kind() != Json::Kind::Int || Count.asInt() < 0)
        return fail<CoverageDoc>(In.Path + ": bin '" + SpaceName + "/" +
                                 BinName +
                                 "' count is not a non-negative integer");
      Dst.emplace_back(BinName, static_cast<uint64_t>(Count.asInt()));
    }
  }
  return Out;
}

/// coverage_diff: one row per hit bin, keyed {space, bin}.
Result<Rows> coverageRows(const Input &In) {
  Result<CoverageDoc> C = readCoverage(In);
  if (!C)
    return fail<Rows>(C.error());
  Rows Out;
  for (const auto &[Space, Bins] : C.value().Spaces)
    for (const auto &[Bin, Count] : Bins)
      if (Count > 0) // declared-only bins are holes, not coverage to keep
        Out.push_back({Space + '\0' + Bin, Space + "/" + Bin, "hit"});
  return Out;
}

/// Adapts a preset that reads each input on its own.
template <Result<Rows> (*PerInput)(const Input &)>
Result<RowPair> eachInput(const std::array<Input, 2> &In, bool) {
  RowPair Out;
  for (int I = 0; I < 2; ++I) {
    Result<Rows> R = PerInput(In[I]);
    if (!R)
      return fail<RowPair>(R.error());
    Out[I] = R.take();
  }
  return Out;
}

/// A diff subcommand: how to read its inputs, turn them into rows, and
/// judge the joined result.
struct Preset {
  const char *Name;
  const char *Operands; ///< usage text for the two paths
  bool Jsonl;           ///< reader mode for both inputs
  bool AllSignals;      ///< accepts --all-signals
  bool OnlyRemovedFails; ///< a ratchet: added and changed rows pass
  Result<RowPair> (*MakeRows)(const std::array<Input, 2> &,
                             bool AllSignals);
};

const Preset Presets[] = {
    {"remark_diff", "<a.jsonl> <b.jsonl>", true, false, false,
     eachInput<remarkRows>},
    {"wave_diff", "<a.jsonl> <b.jsonl>", true, true, false, waveRows},
    {"coverage_diff", "<golden.json> <new.json>", false, false, true,
     eachInput<coverageRows>},
};

std::string presetUsage(const Preset &P) {
  return std::string(P.Name) + " [--json]" +
         (P.AllSignals ? " [--all-signals]" : "") + " " + P.Operands;
}

/// One difference found by the join: '+' added (only B), '-' removed
/// (only A) or '~' changed (both, with different values).
struct Difference {
  char Mark;
  const Row *A;
  const Row *B;
};

struct Joined {
  std::vector<Difference> Differences;
  uint64_t Unchanged = 0;
  uint64_t count(char Mark) const {
    return static_cast<uint64_t>(
        std::count_if(Differences.begin(), Differences.end(),
                      [Mark](const Difference &D) { return D.Mark == Mark; }));
  }
};

/// The one join: groups both row lists by key in first-appearance order,
/// then pairs the rows of a key by position.
Joined join(const Rows &A, const Rows &B) {
  std::unordered_map<std::string, size_t> GroupOf;
  std::vector<std::array<std::vector<const Row *>, 2>> Groups;
  for (int Side = 0; Side < 2; ++Side)
    for (const Row &R : Side == 0 ? A : B) {
      auto [It, Fresh] = GroupOf.try_emplace(R.Key, Groups.size());
      if (Fresh)
        Groups.emplace_back();
      Groups[It->second][Side].push_back(&R);
    }
  Joined J;
  for (const auto &[InA, InB] : Groups) {
    size_t Common = std::min(InA.size(), InB.size());
    for (size_t I = 0; I < Common; ++I) {
      if (InA[I]->Value == InB[I]->Value)
        ++J.Unchanged;
      else
        J.Differences.push_back({'~', InA[I], InB[I]});
    }
    for (size_t I = Common; I < InA.size(); ++I)
      J.Differences.push_back({'-', InA[I], nullptr});
    for (size_t I = Common; I < InB.size(); ++I)
      J.Differences.push_back({'+', nullptr, InB[I]});
  }
  return J;
}

/// The one report, as text or as a "reticle-diff-v1" document; returns
/// the exit code.
int report(const Preset &P, const std::vector<std::string> &Paths,
           const Joined &J, bool AsJson) {
  constexpr size_t MaxDetails = 32;
  uint64_t Added = J.count('+'), Removed = J.count('-'),
           Changed = J.count('~');
  size_t Shown = std::min(J.Differences.size(), MaxDetails);
  if (AsJson) {
    Json Details = Json::array();
    for (size_t I = 0; I < Shown; ++I) {
      const Difference &D = J.Differences[I];
      Json Entry = Json::object();
      Entry.set("status", D.Mark == '+'   ? "added"
                          : D.Mark == '-' ? "removed"
                                          : "changed");
      Entry.set("key", (D.A ? D.A : D.B)->Label);
      if (D.A)
        Entry.set("a", D.A->Value);
      if (D.B)
        Entry.set("b", D.B->Value);
      Details.push(std::move(Entry));
    }
    Json Doc = Json::object();
    Doc.set("schema", "reticle-diff-v1");
    Doc.set("preset", P.Name);
    Doc.set("a", Paths[0]);
    Doc.set("b", Paths[1]);
    Doc.set("added", Added);
    Doc.set("removed", Removed);
    Doc.set("changed", Changed);
    Doc.set("unchanged", J.Unchanged);
    Doc.set("identical", J.Differences.empty());
    Doc.set("details", std::move(Details));
    std::fputs((Doc.str(2) + "\n").c_str(), stdout);
  } else {
    for (size_t I = 0; I < Shown; ++I) {
      const Difference &D = J.Differences[I];
      const Row &R = D.A ? *D.A : *D.B;
      std::printf("%c %s: %s%s%s\n", D.Mark, R.Label.c_str(),
                  R.Value.c_str(), D.Mark == '~' ? " -> " : "",
                  D.Mark == '~' ? D.B->Value.c_str() : "");
    }
    if (J.Differences.size() > Shown)
      std::printf("... %zu more difference(s)\n",
                  J.Differences.size() - Shown);
    std::printf("%s: %llu added, %llu removed, %llu changed, %llu "
                "unchanged\n",
                P.Name, static_cast<unsigned long long>(Added),
                static_cast<unsigned long long>(Removed),
                static_cast<unsigned long long>(Changed),
                static_cast<unsigned long long>(J.Unchanged));
  }
  bool Fails = Removed || (!P.OnlyRemovedFails && (Added || Changed));
  return Fails ? 1 : 0;
}

int runDiff(const Preset &P, int Argc, char **Argv) {
  bool AsJson = false, AllSignals = false;
  std::vector<std::string> Paths;
  bool BadFlag = false;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json")
      AsJson = true;
    else if (Arg == "--all-signals" && P.AllSignals)
      AllSignals = true;
    else if (!Arg.empty() && Arg[0] == '-')
      BadFlag = true;
    else
      Paths.push_back(Arg);
  }
  if (BadFlag || Paths.size() != 2) {
    std::fprintf(stderr, "usage: %s %s\n", Argv[0], presetUsage(P).c_str());
    return 2;
  }
  std::array<Input, 2> In;
  for (int I = 0; I < 2; ++I) {
    Result<Input> R = readInput(Paths[I], P.Jsonl);
    if (!R) {
      std::fprintf(stderr, "json_check: %s\n", R.error().c_str());
      return 2;
    }
    In[I] = R.take();
  }
  Result<RowPair> R = P.MakeRows(In, AllSignals);
  if (!R) {
    std::fprintf(stderr, "json_check: %s\n", R.error().c_str());
    return 2;
  }
  return report(P, Paths, join(R.value()[0], R.value()[1]), AsJson);
}

/// `json_check coverage_merge <a.json> <b.json> ...`: sums the bins of N
/// coverage docs and prints the merged "reticle-coverage-v1" doc.
int runCoverageMerge(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (!Arg.empty() && Arg[0] == '-') {
      Paths.clear();
      break;
    }
    Paths.push_back(Arg);
  }
  if (Paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s coverage_merge <a.json> [<b.json> ...]\n",
                 Argv[0]);
    return 2;
  }
  std::string Program;
  obs::CoverageSnapshot Merged;
  for (const std::string &Path : Paths) {
    Result<Input> In = readInput(Path, /*Jsonl=*/false);
    Result<CoverageDoc> C =
        In ? readCoverage(In.value()) : fail<CoverageDoc>(In.error());
    if (!C) {
      std::fprintf(stderr, "json_check: %s\n", C.error().c_str());
      return 2;
    }
    if (!Program.empty() && !C.value().Program.empty())
      Program += "+";
    Program += C.value().Program;
    for (const auto &[Space, Bins] : C.value().Spaces) {
      auto &Dst = Merged[Space];
      for (const auto &[Bin, Count] : Bins)
        Dst[Bin] += Count;
    }
  }
  std::fputs((obs::coverageDoc(Program, Merged).str(2) + "\n").c_str(),
             stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1) {
    for (const Preset &P : Presets)
      if (std::string(Argv[1]) == P.Name)
        return runDiff(P, Argc, Argv);
    if (std::string(Argv[1]) == "coverage_merge")
      return runCoverageMerge(Argc, Argv);
  }
  std::string FilePath;
  std::vector<std::string> Required, NonEmpty, Events, Remarks;
  bool Jsonl = false;
  bool BatchSummary = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--jsonl")
      Jsonl = true;
    else if (Arg == "--batch-summary")
      BatchSummary = true;
    else if (Arg.rfind("--require=", 0) == 0)
      Required.push_back(Arg.substr(10));
    else if (Arg.rfind("--nonempty=", 0) == 0)
      NonEmpty.push_back(Arg.substr(11));
    else if (Arg.rfind("--has-event=", 0) == 0)
      Events.push_back(Arg.substr(12));
    else if (Arg.rfind("--has-remark=", 0) == 0)
      Remarks.push_back(Arg.substr(13));
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [--jsonl] [--require=<path>] "
                   "[--nonempty=<path>] [--has-event=<name>] "
                   "[--has-remark=<stage>] [--batch-summary] "
                   "<file.json>\n",
                   Argv[0]);
      for (const Preset &P : Presets)
        std::fprintf(stderr, "       %s %s\n", Argv[0],
                     presetUsage(P).c_str());
      std::fprintf(stderr, "       %s coverage_merge <a.json> [<b.json> ...]\n",
                   Argv[0]);
      return 2;
    } else
      FilePath = Arg;
  }
  if (FilePath.empty()) {
    std::fprintf(stderr, "json_check: no input file\n");
    return 2;
  }

  Result<Input> In = readInput(FilePath, Jsonl);
  if (!In) {
    std::fprintf(stderr, "json_check: %s\n", In.error().c_str());
    return 1;
  }
  const std::vector<Doc> &Docs = In.value().Docs;
  if (Docs.empty() && (BatchSummary || !Events.empty()))
    return failCheck(FilePath, "no document");

  if (BatchSummary)
    if (std::string Problem = checkBatchSummary(Docs.front().Value);
        !Problem.empty())
      return failCheck(FilePath, "bad batch summary: " + Problem);

  auto AnyDoc = [&](auto Pred) {
    return std::any_of(Docs.begin(), Docs.end(),
                       [&](const Doc &D) { return Pred(D.Value); });
  };
  for (const std::string &Path : Required)
    if (!AnyDoc([&](const Json &D) { return lookup(D, Path) != nullptr; }))
      return failCheck(FilePath, "missing required key '" + Path + "'");

  for (const std::string &Path : NonEmpty) {
    if (!AnyDoc([&](const Json &D) { return lookup(D, Path) != nullptr; }))
      return failCheck(FilePath, "missing required key '" + Path + "'");
    if (!AnyDoc([&](const Json &D) {
          const Json *Node = lookup(D, Path);
          return Node && Node->size() != 0;
        }))
      return failCheck(FilePath, "'" + Path + "' is empty");
  }

  if (!Events.empty()) {
    const Json *Trace = Docs.front().Value.isObject()
                            ? Docs.front().Value.find("traceEvents")
                            : nullptr;
    if (!Trace || !Trace->isArray())
      return failCheck(FilePath, "no traceEvents array");
    for (const std::string &Name : Events)
      if (std::none_of(Trace->items().begin(), Trace->items().end(),
                       [&](const Json &Event) {
                         const Json *N =
                             Event.isObject() ? Event.find("name") : nullptr;
                         return N && N->isString() && N->asString() == Name;
                       }))
        return failCheck(FilePath, "no trace event named '" + Name + "'");
  }

  for (const std::string &Stage : Remarks)
    if (!AnyDoc([&](const Json &D) {
          const Json *S = D.isObject() ? D.find("stage") : nullptr;
          return S && S->isString() && S->asString() == Stage;
        }))
      return failCheck(FilePath, "no remark from stage '" + Stage + "'");
  return 0;
}
