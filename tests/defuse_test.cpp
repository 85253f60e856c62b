//===- tests/defuse_test.cpp - Interned ids and def-use analysis tests --------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "ir/DefUse.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace reticle;
using namespace reticle::ir;

namespace {

Function parseOk(const char *Source) {
  Result<Function> Fn = parseFunction(Source);
  EXPECT_TRUE(Fn.ok()) << Fn.error();
  return Fn.take();
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.is_open()) << "cannot open " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(NameInterner, AssignsDenseIdsAndResolvesBack) {
  NameInterner Names;
  EXPECT_EQ(Names.intern("a"), 0u);
  EXPECT_EQ(Names.intern("b"), 1u);
  EXPECT_EQ(Names.intern("a"), 0u); // re-intern returns the existing id
  EXPECT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names.name(0), "a");
  EXPECT_EQ(Names.name(1), "b");
  EXPECT_EQ(Names.lookup("b"), 1u);
  EXPECT_EQ(Names.lookup("missing"), InvalidValueId);
}

TEST(DefUse, InputsComeFirstThenBodyDestinations) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8) {
      t0:i8 = add(a, b) @??;
      y:i8 = add(t0, a) @??;
    }
  )");
  obs::Sinks Sinks;
  const DefUse &DU = Fn.defUse(Sinks.context());
  EXPECT_EQ(DU.numValues(), 4u);
  EXPECT_EQ(DU.numInputs(), 2u);
  EXPECT_EQ(DU.idOf("a"), 0u);
  EXPECT_EQ(DU.idOf("b"), 1u);
  EXPECT_EQ(DU.idOf("t0"), 2u);
  EXPECT_EQ(DU.idOf("y"), 3u);
  EXPECT_TRUE(DU.isInputId(DU.idOf("a")));
  EXPECT_FALSE(DU.isInputId(DU.idOf("t0")));
  // Inputs have no defining instruction; body destinations do.
  EXPECT_EQ(DU.defIndexOf(DU.idOf("a")), DefUse::NoDef);
  EXPECT_EQ(DU.defIndexOf(DU.idOf("t0")), 0u);
  EXPECT_EQ(DU.defIndexOf(DU.idOf("y")), 1u);
  EXPECT_EQ(DU.dstIdOf(0), DU.idOf("t0"));
  EXPECT_EQ(DU.dstIdOf(1), DU.idOf("y"));
}

TEST(DefUse, BuildIsCachedUntilInvalidated) {
  Function Fn = parseOk("def f(a:i8) -> (a:i8) {}");
  obs::Sinks Sinks;
  std::shared_ptr<const DefUse> First = Fn.defUseShared(Sinks.context());
  // A second request serves the cache: same analysis object.
  EXPECT_EQ(First.get(), Fn.defUseShared(Sinks.context()).get());
  // Explicit invalidation forces a rebuild; the old analysis stays valid
  // for holders of the shared pointer.
  Fn.invalidateDefUse(Sinks.context());
  std::shared_ptr<const DefUse> Second = Fn.defUseShared(Sinks.context());
  EXPECT_NE(First.get(), Second.get());
  EXPECT_EQ(First->numValues(), Second->numValues());
  // Mutation through the add* helpers invalidates automatically.
  Fn.addInput("b", Type::makeInt(8));
  EXPECT_NE(Second.get(), Fn.defUseShared(Sinks.context()).get());
  EXPECT_EQ(Fn.defUse(Sinks.context()).numInputs(), 2u);
}

TEST(DefUse, CountersTrackBuildsHitsAndInvalidations) {
  obs::Sinks Sinks;
  const obs::Context &Ctx = Sinks.context();
  obs::Telemetry &Telem = Sinks.telemetry();
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, a) @??;
    }
  )");
  (void)Fn.defUse(Ctx);
  (void)Fn.defUse(Ctx);
  Fn.invalidateDefUse(Ctx);
  Fn.invalidateDefUse(Ctx); // no cache left: not counted
  (void)Fn.defUse(Ctx);
  EXPECT_EQ(Telem.counter("ir.defuse.builds").load(), 2u);
  EXPECT_EQ(Telem.counter("ir.defuse.cache_hits").load(), 1u);
  EXPECT_EQ(Telem.counter("ir.defuse.invalidations").load(), 1u);
  // One interned name per value, accumulated across builds.
  EXPECT_EQ(Telem.counter("ir.interner.names").load(), 4u);
  // The add* builders drop the cache without counting an invalidation.
  Fn.addInput("b", Type::makeInt(8));
  EXPECT_EQ(Telem.counter("ir.defuse.invalidations").load(), 1u);
  EXPECT_EQ(Fn.defUse(Ctx).numInputs(), 2u);
  EXPECT_EQ(Telem.counter("ir.defuse.builds").load(), 3u);
}

TEST(DefUse, UseCountsCoverMultiUseDeadAndOutputReads) {
  Function Fn = parseOk(R"(
    def f(a:i8, b:i8) -> (y:i8) {
      t0:i8 = add(a, a) @??;
      dead:i8 = add(b, b) @??;
      y:i8 = add(t0, a) @??;
    }
  )");
  obs::Sinks Sinks;
  const DefUse &DU = Fn.defUse(Sinks.context());
  // 'a' is read three times as an argument, never as an output.
  EXPECT_EQ(DU.useCount(DU.idOf("a")), 3u);
  EXPECT_EQ(DU.usersOf(DU.idOf("a")).size(), 3u);
  // 'dead' defines a value nothing reads.
  EXPECT_EQ(DU.useCount(DU.idOf("dead")), 0u);
  EXPECT_TRUE(DU.usersOf(DU.idOf("dead")).empty());
  EXPECT_FALSE(DU.isLiveOut(DU.idOf("dead")));
  // 'y' is read only by the output port: that read counts toward
  // useCount but does not appear in the users list (argument reads only).
  EXPECT_EQ(DU.useCount(DU.idOf("y")), 1u);
  EXPECT_TRUE(DU.usersOf(DU.idOf("y")).empty());
  EXPECT_TRUE(DU.isLiveOut(DU.idOf("y")));
  EXPECT_EQ(DU.outputIdOf(0), DU.idOf("y"));
  // Argument ids run parallel to args(): t0's reads of 'a'.
  EXPECT_EQ(DU.argIdsOf(0), std::vector<ValueId>({0u, 0u}));
}

TEST(DefUse, UndefinedArgumentsStayInvalid) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, ghost) @??;
    }
  )");
  obs::Sinks Sinks;
  const DefUse &DU = Fn.defUse(Sinks.context());
  EXPECT_EQ(DU.idOf("ghost"), InvalidValueId);
  EXPECT_EQ(DU.argIdsOf(0)[1], InvalidValueId);
  // Unknown names never grow the id space.
  EXPECT_EQ(DU.numValues(), 2u);
}

TEST(DefUse, TracksFirstDuplicateDefinition) {
  Function Fn = parseOk(R"(
    def f(a:i8) -> (y:i8) {
      y:i8 = add(a, a) @??;
      y:i8 = add(a, a) @??;
    }
  )");
  obs::Sinks Sinks;
  const DefUse &DU = Fn.defUse(Sinks.context());
  EXPECT_EQ(DU.duplicateKind(), DefUse::Dup::Body);
  EXPECT_EQ(DU.duplicateName(), "y");
  // First definition wins, matching the linear-scan findDef.
  EXPECT_EQ(DU.defIndexOf(DU.idOf("y")), 0u);
}

TEST(DefUse, TopoOrderBreaksCyclesAtRegisters) {
  // Figure 12b: the feedback loop passes through a register.
  Function Fn = parseOk(R"(
    def wf() -> (t3:i8) {
      t0:bool = const[1];
      t1:i8 = const[4];
      t2:i8 = add(t3, t1) @??;
      t3:i8 = reg[0](t2, t0) @??;
    }
  )");
  obs::Sinks Sinks;
  const DefUse &DU = Fn.defUse(Sinks.context());
  EXPECT_TRUE(DU.topoOk());
  // All three non-register instructions appear, defs before uses.
  ASSERT_EQ(DU.topoOrder().size(), 3u);
  size_t PosAdd = 0, PosConst = 0;
  for (size_t K = 0; K < DU.topoOrder().size(); ++K) {
    if (DU.topoOrder()[K] == 2)
      PosAdd = K;
    if (DU.topoOrder()[K] == 1)
      PosConst = K;
  }
  EXPECT_LT(PosConst, PosAdd);

  Function Bad = parseOk(R"(
    def il() -> (t1:i8) {
      t0:i8 = const[1];
      t1:i8 = add(t1, t0) @??;
    }
  )");
  EXPECT_FALSE(Bad.defUse(Sinks.context()).topoOk());
}

// On every example program the cached analysis must agree with the
// verifier and with the linear-scan Function queries it replaced.
TEST(DefUse, AgreesWithVerifierOnExamplePrograms) {
  const std::filesystem::path Dir = RETICLE_EXAMPLES_DIR;
  size_t Checked = 0;
  obs::Sinks Sinks;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".ret")
      continue;
    ++Checked;
    Result<Function> FnOr = parseFunction(readFile(Entry.path()));
    ASSERT_TRUE(FnOr.ok()) << Entry.path() << ": " << FnOr.error();
    Function Fn = FnOr.take();
    ASSERT_TRUE(verify(Fn, Sinks.context()).ok()) << Entry.path();
    const DefUse &DU = Fn.defUse(Sinks.context());

    // Inputs: dense prefix, no defining instruction, port types.
    ASSERT_EQ(DU.numInputs(), Fn.inputs().size());
    for (size_t K = 0; K < Fn.inputs().size(); ++K) {
      ValueId Id = DU.idOf(Fn.inputs()[K].Name);
      EXPECT_EQ(Id, K);
      EXPECT_EQ(DU.defIndexOf(Id), DefUse::NoDef);
      EXPECT_TRUE(Fn.isInput(Fn.inputs()[K].Name));
      EXPECT_EQ(Fn.findDef(Fn.inputs()[K].Name), nullptr);
    }

    // Defs: every destination resolves to its instruction, and findDef
    // returns that same instruction.
    for (size_t I = 0; I < Fn.body().size(); ++I) {
      ValueId Dst = DU.dstIdOf(I);
      ASSERT_NE(Dst, InvalidValueId);
      EXPECT_EQ(DU.defIndexOf(Dst), I);
      EXPECT_EQ(Fn.findDef(Fn.body()[I].dst()), &Fn.body()[I]);
      Result<Type> Ty = Fn.typeOf(Fn.body()[I].dst());
      ASSERT_TRUE(Ty.ok());
      EXPECT_TRUE(Ty.value() == DU.typeOfId(Dst));
      // A verified program has no undefined arguments.
      for (ValueId Arg : DU.argIdsOf(I))
        EXPECT_NE(Arg, InvalidValueId);
    }

    // Outputs: verified programs define every output.
    for (size_t K = 0; K < Fn.outputs().size(); ++K) {
      ValueId Id = DU.outputIdOf(K);
      ASSERT_NE(Id, InvalidValueId);
      EXPECT_TRUE(DU.isLiveOut(Id));
      EXPECT_GE(DU.useCount(Id), 1u);
    }

    EXPECT_EQ(DU.duplicateKind(), DefUse::Dup::None);
    EXPECT_TRUE(DU.topoOk());
  }
  EXPECT_GE(Checked, 3u) << "expected the example programs under " << Dir;
}
