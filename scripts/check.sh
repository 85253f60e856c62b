#!/bin/sh
# Tier-1 verification: configure, build, run the full test suite, then
# drive the compiler end to end and validate every machine-readable
# artifact it emits (stats, trace, remarks, snapshot manifest, batch
# summary) with json_check, including a remark_diff of two identical
# runs to pin down pipeline determinism, a coverage_diff of the merged
# example-program coverage against the checked-in golden
# (tests/goldens/coverage.json), and a cmp of two identical runs'
# compiled-simulation programs to pin down lowering determinism. RUN_BENCH=1
# additionally runs the microbenchmarks. After the primary build, two
# hardening builds run: one under ThreadSanitizer exercising the
# concurrent batch-compile path (including uneven cascade chains placed
# inside the box the chain-packing bound sets) and concurrent
# compiled-simulation VM runs, and one
# under AddressSanitizer + UndefinedBehaviorSanitizer exercising the
# packed waveform path (with the observed-artifact goldens), the
# gate-level vm-netlist lowering, the
# malformed-input diagnostics of the lexer and the DIMACS reader, the
# SAT solver's clause arena and watcher pool under placement (with
# proof logs), and json_check's diff presets over valid and malformed
# inputs, and a failing compile that writes every artifact a failure
# flushes. Run from anywhere; builds into
# <repo>/build (plus build-tsan/ and build-asan/ siblings).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$repo/build"
jobs=$(nproc 2>/dev/null || echo 4)

echo "== configure + build =="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j"$jobs"

echo "== ctest =="
(cd "$build" && ctest --output-on-failure -j"$jobs")

echo "== end-to-end artifact check =="
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$build/tools/reticlec" --device=small \
    --stats-json="$out/stats.json" \
    --trace="$out/trace.json" \
    --remarks-json="$out/remarks.jsonl" \
    --dump-after-all="$out/stages" \
    --floorplan="$out/plan.svg" \
    -o "$out/mac.v" \
    "$repo/examples/programs/mac.ret"

"$build/tools/json_check" --require=schema --require=program \
    --require=timings.total_ms --require=timings.parse_ms \
    --require=sat.decisions \
    --require=sat.shrink_ms \
    --require=sat.sat_probes --require=sat.precheck_probes \
    --require=utilization.luts "$out/stats.json"
"$build/tools/json_check" --require=traceEvents "$out/trace.json"
"$build/tools/json_check" --require=schema \
    --require=stages.parse.file --require=stages.opt.file \
    --require=stages.isel.file \
    --require=stages.cascade.file --require=stages.place.file \
    --require=stages.codegen.file "$out/stages/manifest.json"
# The remark stream must be valid JSONL.
"$build/tools/json_check" --jsonl "$out/remarks.jsonl"
grep -q "</svg>" "$out/plan.svg"

echo "== remark determinism (remark_diff on two identical runs) =="
"$build/tools/reticlec" --device=small --emit=placed \
    --remarks-json="$out/remarks-b.jsonl" \
    "$repo/examples/programs/mac.ret"
"$build/tools/reticlec" --device=small --emit=placed \
    --remarks-json="$out/remarks-a.jsonl" \
    "$repo/examples/programs/mac.ret"
"$build/tools/json_check" remark_diff \
    "$out/remarks-a.jsonl" "$out/remarks-b.jsonl"

echo "== remark ratchet (golden stream for mac.ret) =="
# The checked-in golden pins every remark the pipeline emits for mac.ret
# on the small device. Drift is a contract change: inspect the diff, and
# if intentional regenerate with
#   build/tools/reticlec --device=small --emit=placed \
#       --remarks-json=tests/goldens/mac/remarks.jsonl \
#       examples/programs/mac.ret
"$build/tools/json_check" remark_diff \
    "$repo/tests/goldens/mac/remarks.jsonl" "$out/remarks-a.jsonl"
# The same ratchet for a placement of 49 clusters (the placed program and
# remark stream of tests/inputs/fsm_shrink.ret on the default and the
# small device) runs in ctest as golden_fsm_shrink_*. If a change
# to the placement search is intentional, regenerate from the repo root
# with
#   build/tools/reticlec --emit=placed \
#       -o tests/goldens/fsm_shrink/placed.rasm \
#       --remarks-json=tests/goldens/fsm_shrink/remarks.jsonl \
#       tests/inputs/fsm_shrink.ret
#   build/tools/reticlec --device=small --emit=placed \
#       -o tests/goldens/fsm_shrink/placed.small.rasm \
#       --remarks-json=tests/goldens/fsm_shrink/remarks.small.jsonl \
#       tests/inputs/fsm_shrink.ret
# golden_fsm_42_* pins the same for tests/inputs/fsm_42.ret (169 LUT
# instructions whose one solve, 86k variables inside the lower-bound box
# on the default device, settles the area); regenerate with
#   build/tools/reticlec --emit=placed \
#       -o tests/goldens/fsm_42/placed.rasm \
#       --remarks-json=tests/goldens/fsm_42/remarks.jsonl \
#       tests/inputs/fsm_42.ret

echo "== batch compile end to end =="
"$build/tools/reticlec" --device=small --jobs="$jobs" \
    --out-dir="$out/batch" \
    --stats-json="$out/batch/summary.json" \
    "$repo/examples/programs/mac.ret" \
    "$repo/examples/programs/dot3.ret" \
    "$repo/examples/programs/scalar_adds.ret"
"$build/tools/json_check" --batch-summary "$out/batch/summary.json"
for stem in mac dot3 scalar_adds; do
    test -s "$out/batch/$stem.v"
    "$build/tools/json_check" --require=schema \
        "$out/batch/$stem.stats.json"
done

echo "== wave_diff sweep (compiled VM vs the interpreter on every example) =="
# The differential-simulation oracle: run every example program's input
# trace through all three engines (the reference interpreter, plus the
# compiled-bytecode VM lowered from the source program and from the
# generated Verilog), emit reticle-wave-v1 streams, and require
# zero-divergence joins against the interpreter: vm-netlist on the
# shared ports, vm-ir on every signal, internal ones included. A VCD
# streamed to stdout must reach its dump section.
for stem in mac dot3 scalar_adds; do
    for engine in interp vm-ir vm-netlist; do
        "$build/tools/reticlec" --device=small \
            --run="$repo/examples/traces/$stem.trace.json" --sim="$engine" \
            --wave-json="$out/$stem.$engine.wave.jsonl" \
            "$repo/examples/programs/$stem.ret"
        "$build/tools/json_check" --jsonl --require=schema \
            "$out/$stem.$engine.wave.jsonl"
    done
    "$build/tools/json_check" wave_diff \
        "$out/$stem.interp.wave.jsonl" "$out/$stem.vm-netlist.wave.jsonl"
    "$build/tools/json_check" wave_diff --all-signals \
        "$out/$stem.vm-ir.wave.jsonl" "$out/$stem.interp.wave.jsonl"
done
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=both --vcd=- \
    "$repo/examples/programs/mac.ret" | grep -q '$enddefinitions'

echo "== coverage ratchet (merge over the example programs vs golden) =="
# Each program's standalone reticle-coverage-v1 doc, merged with
# coverage_merge, must not lose a single bin against the checked-in
# golden (tests/goldens/coverage.json). Gained bins pass — the ratchet
# only tightens. After an intentional coverage change regenerate with:
#   build/tools/json_check coverage_merge \
#       <mac,dot3,scalar_adds>.coverage.json > tests/goldens/coverage.json
for stem in mac dot3 scalar_adds; do
    "$build/tools/reticlec" --device=small \
        --coverage="$out/$stem.coverage.json" \
        --emit=asm -o /dev/null \
        "$repo/examples/programs/$stem.ret"
    "$build/tools/json_check" --require=schema --require=totals.hit \
        "$out/$stem.coverage.json"
done
"$build/tools/json_check" coverage_merge \
    "$out/mac.coverage.json" "$out/dot3.coverage.json" \
    "$out/scalar_adds.coverage.json" > "$out/merged.coverage.json"
for stem in mac dot3 scalar_adds; do
    "$build/tools/json_check" coverage_diff \
        "$out/$stem.coverage.json" "$out/merged.coverage.json"
done
"$build/tools/json_check" coverage_diff \
    "$repo/tests/goldens/coverage.json" "$out/merged.coverage.json"
# A --run adds dynamic toggle bins on top of the static spaces.
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=both \
    --coverage="$out/mac.run.coverage.json" \
    "$repo/examples/programs/mac.ret"
"$build/tools/json_check" --nonempty=spaces.sim.toggle.bins \
    "$out/mac.run.coverage.json"

echo "== sim-VM program determinism + span fold =="
# Two identical runs must lower to the same bytecode: every op and every
# source mark of both VM programs. A drift means the lowering or its
# source table changed. The flamegraph fold must reconstruct at least
# one nested compile stack.
for run in a b; do
    "$build/tools/reticlec" --device=small \
        --run="$repo/examples/traces/mac.trace.json" --sim=both \
        --dump-sim-program="$out/mac.sim-program-$run" \
        "$repo/examples/programs/mac.ret"
done
cmp "$out/mac.sim-program-a" "$out/mac.sim-program-b"
"$build/tools/reticlec" --device=small --emit=placed \
    --profile-folded=- \
    "$repo/examples/programs/mac.ret" | grep -q "^compile;"

if [ "${RUN_BENCH:-0}" = "1" ]; then
    echo "== benches (RUN_BENCH=1) =="
    # Opt-in: the microbenchmarks are informative, not gating, so the
    # default run skips them. Any bench binary the build produced runs
    # once with its defaults; each writes its BENCH_*.json into $out.
    for bench in sim_throughput fig4_dsp_add \
                 fig13a_tensoradd fig13b_tensordot fig13c_fsm \
                 compile_time ablation; do
        if [ -x "$build/bench/$bench" ]; then
            echo "-- bench/$bench"
            (cd "$out" && "$build/bench/$bench")
        fi
    done
    # The sim bench doc is a contract: schema, the seed baseline both
    # speedup_vs_seed numbers divide by, one cycles_per_sec per series
    # row (every engine/mode pair).
    "$build/tools/json_check" --require=schema --require=figure \
        --require=baseline.interp_cycles_per_sec \
        --require=baseline.netlist_cycles_per_sec \
        --nonempty=series "$out/BENCH_sim.json"
    test "$(grep -c '"engine"' "$out/BENCH_sim.json")" = \
         "$(grep -c '"cycles_per_sec"' "$out/BENCH_sim.json")"
fi

echo "== ThreadSanitizer build: concurrent batch compile =="
# Four workers place concurrently through the solver, each on its own
# fresh solvers: fsm_shrink.ret solves once inside its lower-bound box,
# and so do the uneven cascade chains of mixed_chains.ret, inside the box
# the chain-packing bound sets on the small device. Every session owns
# its telemetry, remark stream and coverage registry, and no stage
# records anywhere else: batch_race_check compares each item's remark
# stream and coverage snapshot, besides its artifacts, between a
# sequential and a four-worker run, and TSan sees any state two sessions
# share.
cmake -B "$repo/build-tsan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$repo/build-tsan" -j"$jobs" \
    --target batch_race_check sim_vm_race_check reticlec json_check
"$repo/build-tsan/tests/batch_race_check"
"$repo/build-tsan/tests/sim_vm_race_check"
"$repo/build-tsan/tools/reticlec" --device=small --jobs=4 \
    --out-dir="$out/batch-tsan" \
    --stats-json="$out/batch-tsan/summary.json" \
    "$repo/examples/programs/mac.ret" \
    "$repo/examples/programs/dot3.ret" \
    "$repo/examples/programs/scalar_adds.ret" \
    "$repo/tests/inputs/fsm_shrink.ret" \
    "$repo/tests/inputs/mixed_chains.ret"
"$repo/build-tsan/tools/json_check" --batch-summary \
    "$out/batch-tsan/summary.json"

echo "== ASan+UBSan build: packed waveforms, gate level, malformed input, clause arena, watcher pool, diff presets =="
# Waveform values travel as packed 64-bit words; the VM packs lanes that
# straddle word boundaries and every sink walks words by shift and
# offset. The toggle sink adds each changed word into eight counter
# planes per word and spills them into per-bit totals; the VCD and
# reticle-wave-v1 writers grow their output once per record and write
# digits through a raw pointer from a byte table. AddressSanitizer
# catches an out-of-range word or a write past a record, UBSan (fatal,
# no recovery) an oversized shift, and _GLIBCXX_ASSERTIONS a container
# index past its end. coverage_test and wave_test check those paths
# against per-bit references; the wide fixture (96- and 128-bit signals)
# and mac run with --sim=both from their own directories and must
# reproduce their byte-identity goldens (tests/goldens/observed), and
# not_bool.ret's --sim=both run must agree across the three engines.
# The gate-level tests run every LUT INIT, CARRY8 and DSP48E2 shape the
# code generator emits through the vm-netlist lowering. The lexer and
# DIMACS tests feed out-of-range and malformed numeric literals, which
# must come back as diagnostics. The SAT solver
# hands out pointers into two growing buffers: the clause arena, which
# holds every clause's literals, and the watcher pool, which holds every
# literal's watch list. A pointer kept across either buffer's growth, or
# across a reduceDb compaction of the arena, dangles; propagation pushes
# onto the pool while it walks a list in it. sat_test, place_test and
# batch_test drive both through learning, reduction and the placement
# encoders; in place_test, the refutation of two 70-DSP chains pinned to
# one column of the default device and the minimization of its core
# drive the solver through conflicts, and a designed box miss runs its
# shrink probes as fresh solves. Three proof compiles drive both buffers
# under proof logging: fsm_shrink.ret on the small device, fsm_42.ret on
# the default device (86k variables) and mixed_chains.ret on the small
# device each solve once inside their lower-bound box. An infeasible
# compile on the tiny device runs the driver's artifact writer down its
# failure path: it must exit 1 and still write the snapshots of the
# stages before placement, the remarks, the trace, the folded stacks and
# the coverage doc. json_check reads every
# artifact through one reader into keyed rows for one join: each diff
# preset runs over this section's artifacts (wide-wire waves of the
# interpreter and vm-netlist, the mac remark golden against a live
# stream, a coverage merge and its ratchet), two mac runs lower to the
# same bytecode, and each
# malformed input (a bad line, a missing file, a wave pair with no shared
# port, a negative or fractional coverage count, a raw newline inside a
# JSON string) must be exit 2, the diagnostic, with no sanitizer report.
asan_flags="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
cmake -B "$repo/build-asan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$asan_flags -g" \
    -DCMAKE_EXE_LINKER_FLAGS="$asan_flags"
cmake --build "$repo/build-asan" -j"$jobs" \
    --target wave_test sim_vm_test coverage_test lexer_test \
    gate_level_test sat_test place_test batch_test reticlec json_check
"$repo/build-asan/tests/wave_test"
"$repo/build-asan/tests/sim_vm_test"
"$repo/build-asan/tests/coverage_test"
"$repo/build-asan/tests/lexer_test"
"$repo/build-asan/tests/gate_level_test"
"$repo/build-asan/tests/sat_test"
"$repo/build-asan/tests/place_test"
"$repo/build-asan/tests/batch_test"
"$repo/build-asan/tools/reticlec" --device=small --emit=placed \
    --sat-proof="$out/fsm_shrink.asan.proof" \
    -o "$out/fsm_shrink.asan.rasm" \
    "$repo/tests/inputs/fsm_shrink.ret"
test -s "$out/fsm_shrink.asan.proof"
"$repo/build-asan/tools/reticlec" --emit=placed \
    --sat-proof="$out/fsm_42.asan.proof" \
    -o "$out/fsm_42.asan.rasm" \
    "$repo/tests/inputs/fsm_42.ret"
test -s "$out/fsm_42.asan.proof"
"$repo/build-asan/tools/reticlec" --device=small --emit=placed \
    --sat-proof="$out/mixed_chains.asan.proof" \
    -o "$out/mixed_chains.asan.rasm" \
    "$repo/tests/inputs/mixed_chains.ret"
test -s "$out/mixed_chains.asan.proof"
if "$repo/build-asan/tools/reticlec" --device=tiny \
    --dump-after-all="$out/infeasible.asan.stages" \
    --remarks-json="$out/infeasible.asan.remarks.jsonl" \
    --trace="$out/infeasible.asan.trace.json" \
    --profile-folded="$out/infeasible.asan.folded" \
    --coverage="$out/infeasible.asan.coverage.json" \
    "$repo/tests/inputs/infeasible_tiny.ret" 2> "$out/infeasible.asan.err"
then rc=0; else rc=$?; fi
# A sanitizer report also exits 1, so the stderr must hold only the
# compile error.
if [ "$rc" -ne 1 ] || grep -q "Sanitizer\|runtime error" "$out/infeasible.asan.err"; then
    cat "$out/infeasible.asan.err"
    echo "infeasible_tiny.ret: exit $rc, expected 1 with no sanitizer report"
    exit 1
fi
for f in infeasible.asan.stages/manifest.json \
    infeasible.asan.stages/03-cascade.rasm infeasible.asan.remarks.jsonl \
    infeasible.asan.trace.json infeasible.asan.folded \
    infeasible.asan.coverage.json; do
    test -s "$out/$f"
done
(cd "$repo/tests/inputs" && "$repo/build-asan/tools/reticlec" \
    --device=small --run=wide_wires.trace.json --sim=both \
    --vcd="$out/observed.wide_wires.vcd" \
    --wave-json="$out/observed.wide_wires.wave.jsonl" \
    --coverage="$out/observed.wide_wires.coverage.json" wide_wires.ret)
(cd "$repo/examples/programs" && "$repo/build-asan/tools/reticlec" \
    --device=small --run=../traces/mac.trace.json --sim=both \
    --vcd="$out/observed.mac.vcd" --wave-json="$out/observed.mac.wave.jsonl" \
    --coverage="$out/observed.mac.coverage.json" mac.ret)
for name in wide_wires mac; do
    for ext in vcd wave.jsonl coverage.json; do
        cmp "$repo/tests/goldens/observed/$name.$ext" \
            "$out/observed.$name.$ext"
    done
done
"$repo/build-asan/tools/json_check" --jsonl --require=schema \
    "$out/observed.wide_wires.wave.jsonl"
"$repo/build-asan/tools/reticlec" --device=small \
    --run="$repo/tests/inputs/not_bool.trace.json" --sim=both \
    "$repo/tests/inputs/not_bool.ret"

asan_jc="$repo/build-asan/tools/json_check"
for engine in interp vm-netlist; do
    "$repo/build-asan/tools/reticlec" --device=small \
        --run="$repo/tests/inputs/wide_wires.trace.json" --sim="$engine" \
        --wave-json="$out/wide.asan.$engine.wave.jsonl" \
        "$repo/tests/inputs/wide_wires.ret"
done
"$asan_jc" wave_diff \
    "$out/wide.asan.interp.wave.jsonl" "$out/wide.asan.vm-netlist.wave.jsonl"
"$repo/build-asan/tools/reticlec" --device=small --emit=placed \
    --remarks-json="$out/mac.asan.remarks.jsonl" -o /dev/null \
    "$repo/examples/programs/mac.ret"
"$asan_jc" remark_diff \
    "$repo/tests/goldens/mac/remarks.jsonl" "$out/mac.asan.remarks.jsonl"
"$asan_jc" coverage_merge "$repo/tests/goldens/coverage.json" \
    "$out/observed.wide_wires.coverage.json" > "$out/merged.asan.coverage.json"
"$asan_jc" coverage_diff \
    "$repo/tests/goldens/coverage.json" "$out/merged.asan.coverage.json"
for run in a b; do
    "$repo/build-asan/tools/reticlec" --device=small \
        --run="$repo/examples/traces/mac.trace.json" --sim=both \
        --wave-json="$out/mac.asan.wave.jsonl" \
        --dump-sim-program="$out/mac.asan.sim-program-$run" \
        "$repo/examples/programs/mac.ret"
done
cmp "$out/mac.asan.sim-program-a" "$out/mac.asan.sim-program-b"

# json_check <args> must exit 2 with no sanitizer report.
expect_unusable() {
    if "$asan_jc" "$@" > /dev/null 2> "$out/asan.err"; then rc=0; else rc=$?; fi
    if [ "$rc" -ne 2 ] || grep -q "Sanitizer\|runtime error" "$out/asan.err"; then
        cat "$out/asan.err"
        echo "json_check $*: exit $rc, expected 2 with no sanitizer report"
        exit 1
    fi
}
sed '3s/.*/oops/' "$repo/tests/goldens/mac/remarks.jsonl" \
    > "$out/malformed.remarks.jsonl"
sed '3s/.*/oops/' "$out/wide.asan.interp.wave.jsonl" \
    > "$out/malformed.wave.jsonl"
sed '3s/.*/oops/' "$repo/tests/goldens/coverage.json" \
    > "$out/malformed.coverage.json"
sed '0,/"add": [0-9]*/s//"add": -1/' "$repo/tests/goldens/coverage.json" \
    > "$out/negative.coverage.json"
sed '0,/"add": [0-9]*/s//"add": 1.5/' "$repo/tests/goldens/coverage.json" \
    > "$out/fractional.coverage.json"
expect_unusable remark_diff \
    "$repo/tests/goldens/mac/remarks.jsonl" "$out/malformed.remarks.jsonl"
expect_unusable remark_diff "$out/missing.jsonl" "$out/mac.asan.remarks.jsonl"
expect_unusable wave_diff \
    "$out/wide.asan.interp.wave.jsonl" "$out/malformed.wave.jsonl"
expect_unusable wave_diff \
    "$out/wide.asan.interp.wave.jsonl" "$out/mac.asan.wave.jsonl"
expect_unusable coverage_diff \
    "$repo/tests/goldens/coverage.json" "$out/malformed.coverage.json"
expect_unusable coverage_diff \
    "$repo/tests/goldens/coverage.json" "$out/negative.coverage.json"
expect_unusable coverage_diff \
    "$repo/tests/goldens/coverage.json" "$out/fractional.coverage.json"
expect_unusable coverage_merge "$out/negative.coverage.json"
expect_unusable coverage_diff "$repo/tests/goldens/coverage.json" \
    "$repo/tests/inputs/raw_newline.coverage.json"

echo "ok: build, tests, and all emitted artifacts check out"
