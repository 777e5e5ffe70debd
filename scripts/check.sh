#!/bin/sh
# Repo hygiene gate: formatting, vet, build, tests, then the static-analysis
# self-lint over the shipped example programs. CI runs `make check`, which is
# this script.
set -e
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:"
    echo "$fmt"
    exit 1
fi

go vet ./...
go build ./...
# This includes the E1 trajectory gate (trajectory_test.go, ~5s): a fresh
# full-scale deterministic E1 must match the committed BENCH_E1.json on
# every row's VM counters and each kernel's boundsProved/boundsSites. The
# test cache tracks BENCH_E1.json, so a cached pass is never stale.
go test ./...

# Front-end fuzz gate (~10s): FuzzLoad feeds mutated source through the
# lexer, the streaming reader, the type checker, the compiler and the
# optimiser; no input may panic. A crasher the fuzzer finds is written to
# internal/core/testdata/fuzz/FuzzLoad, where plain `go test` replays it.
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s ./internal/core

# Memo fuzz gate (~10s): FuzzLoadMemo loads a base text, splices bytes into
# it and loads the result through core.LoadAnalysis's memo; the memoised
# program must render exactly as a cold parse and check of the spliced text
# does (core.RenderFrontEnd), or fail with the same error. Crashers land in
# internal/core/testdata/fuzz/FuzzLoadMemo. Its seeds are whole example
# files, and shrinking one that reached new code takes the default
# minimisation budget (60 s) far past the fuzzing budget, so minimisation
# is capped at 200 runs per input.
go test -run '^$' -fuzz '^FuzzLoadMemo$' -fuzztime 10s -fuzzminimizetime 200x ./internal/core

# Self-lint: every example program must analyze with zero error-severity
# findings. `bitc analyze` exits 1 on errors; the JSON is also checked so a
# regression in the exit-code contract cannot mask findings.
go build -o /tmp/bitc-check ./cmd/bitc
for f in examples/progs/*.bitc; do
    out=$(/tmp/bitc-check analyze -json "$f")
    errs=$(printf '%s' "$out" | sed -n 's/^  "errors": \([0-9]*\).*/\1/p')
    if [ "$errs" != "0" ]; then
        echo "$f: $errs error-severity findings"
        printf '%s\n' "$out"
        exit 1
    fi
    echo "analyze $f: 0 errors"
done

# Cache correctness: for every shipped example, a warm run out of a primed
# fact store must render byte-identically (pretty and JSON) to a cold run,
# and the memoised front end's program, whose definitions all come from a
# text one line longer and are moved back, must render as a cold parse and
# check does, and the keys the warm run carried over from the priming run
# must equal the keys a run into an empty store derives. -strict is on so
# directive-suppression accounting is held to the same standard as the
# findings themselves.
for f in examples/progs/*.bitc internal/core/testdata/analyze/*.bitc; do
    /tmp/bitc-check analyze -strict -verify-cache "$f" || {
        echo "$f: incremental cache is not transparent"; exit 1; }
done

# Lint baseline: every unsuppressed warning/note across the example corpus
# must already be listed in scripts/lint-baseline.txt. New findings fail the
# gate (fix the code, suppress with a directive, or deliberately re-baseline
# with `make lint-baseline`); stale baseline entries only warn. The sweep
# runs a plain `analyze`; the verify-cache sweep above proves that a warm
# re-analysis from a primed store (the daemon's code path) renders the same.
baseline=scripts/lint-baseline.txt
current=$(mktemp)
for f in examples/progs/*.bitc internal/core/testdata/analyze/*.bitc; do
    /tmp/bitc-check analyze "$f" | grep '\[BITC-' | grep -v '^    ' || true
done | sort > "$current"
if [ ! -f "$baseline" ]; then
    echo "missing $baseline (run 'make lint-baseline' to create it)"
    rm -f "$current"
    exit 1
fi
new=$(comm -13 "$baseline" "$current")
if [ -n "$new" ]; then
    echo "new unsuppressed findings not in $baseline:"
    printf '%s\n' "$new"
    rm -f "$current"
    exit 1
fi
gone=$(comm -23 "$baseline" "$current")
if [ -n "$gone" ]; then
    echo "note: baseline entries no longer reported (consider 'make lint-baseline'):"
    printf '%s\n' "$gone"
fi
# Docs gate: BITC lint codes in docs/lint-codes.md must match the analyzer
# registry one-to-one (see scripts/docs-check.sh).
BITC_BIN=/tmp/bitc-check sh scripts/docs-check.sh

# Transaction-safety self-gate: the service's own generated bitc programs
# (the per-shard STM batch program and the 2PC prepare-order model rendered
# from the coordinator's prepareOrder) plus the bankstm example must carry
# zero atomicity findings — the BITC-ATOM checkers gate the very code they
# were built to protect, and a prepare-order regression in
# internal/serve/twopc.go fails here as BITC-ATOM003.
for kind in shard twopc; do
    /tmp/bitc-check serve -emit-program "$kind" > "/tmp/bitc-serve-$kind.bitc"
done
for f in /tmp/bitc-serve-shard.bitc /tmp/bitc-serve-twopc.bitc examples/bankstm/bankstm.bitc; do
    out=$(/tmp/bitc-check analyze "$f") || {
        echo "$f: error-severity findings in service code"
        printf '%s\n' "$out"; exit 1; }
    if printf '%s\n' "$out" | grep -q 'BITC-ATOM'; then
        echo "$f: atomicity findings in service code:"
        printf '%s\n' "$out"; exit 1
    fi
    echo "analyze $f: no atomicity findings"
done
rm -f /tmp/bitc-serve-shard.bitc /tmp/bitc-serve-twopc.bitc

# Dispatch fidelity gate: the fused interpreter must agree with the legacy
# switch baseline on values, traps, counters, and observer streams over the
# kernel + example corpus (strings and IEEE-754 edge floats included), and
# the pinned fusion listings of two E1 kernels must not drift silently
# (regenerate with -update and review the diff; see docs/vm.md). vm.Value
# must stay four fields and 32 bytes, calls must allocate nothing, and a
# string must never pass a reference operand check. The STM footprint's
# first-touch logs must agree with a map-based model of the read and write
# sets below, at and past the index threshold, a warm atomic commit or
# retry must allocate nothing under either dispatch mode, and a host 2PC
# participant must cost at most its handle.
go test -count=1 -run 'TestDispatchDifferential|TestDisasmGolden|TestValueLayout|TestCallsAllocateNothing|TestStringIsNotRef|TestFootprintModel|TestAtomicCommitAllocatesNothing|TestHostTxnAllocs' ./internal/vm

# Linear-cost and IR pin gate (~6s): on the scaling shapes
# (internal/corpus/shapes.go) at growing sizes, the type checker, the
# compiler, the optimiser, the CFG builder and the verifier must each do
# work linear in their input, counted in deterministic steps (Link hops and
# scope probes, slot-table reads, alias-table operations, worklist pops,
# escape steps, CFG atoms and resolutions, contract-table entries and
# evaluated expressions), not wall time, and the parser's reader must take
# scratch bounded by the largest top-level form, not the file (bytes of
# slab chunks allocated). The
# incremental analysis must derive keys in proportion to an edit, not to
# the program: a one-function edit of the 1000- and the 4000-function
# corpus costs the same SHA-256 digests and type renderings, and a no-op
# re-run costs none (TestKeyWorkPerEdit). And the
# compiler and optimiser must produce exactly the pinned IR and optimiser
# counts on every tracked program, the kernels, the corpus, the shapes and
# the service's programs, at O0, O1 and O2 with and without contracts
# (internal/compiler/testdata/ir-pin.txt; regenerate deliberately with
# -update and review which inputs moved). The analyses must report exactly
# the pinned findings, bounds proofs, points-to sets, lifetime reports and
# summaries on every tracked program, the kernels, the corpus and the
# shapes (TestAnalysisPin, internal/analysis/testdata/analysis-pin.txt).
go test -count=1 -run 'TestIRPin|TestAnalysisPin|TestCheckLinearCost|TestCompileLinearCost|TestOptLinearCost|TestCFGLinearCost|TestVerifyLinearCost|TestParseScratchBound|TestKeyWorkPerEdit' \
    ./internal/parser ./internal/types ./internal/compiler ./internal/opt ./internal/cfg ./internal/verify ./internal/analysis
echo "linear-cost and IR pin gate: green"

# Bounds, provenance & truncation gate: one relational range engine
# (internal/analysis/bounds.go) answers bounds elision, BITC-PROV001 and
# BITC-TRUNC001, so all three are held here. The engine must (1) hold the
# E1 kernels' discharge rate above the 60% floor, prove exactly the sites an
# every-function run proves while running the engine only on functions
# with a vector-access site, and keep the PROV001 narrowing and TRUNC001
# cast checks honest (internal/analysis), (2) report no provably
# out-of-range access (BITC-BOUND001) anywhere in the shipped examples or
# the service's generated programs, and (3) keep proof-guided elision
# observationally equivalent to the checked interpreter — values, traps
# (narrow-integer wraparound included), counters, and observer streams
# (internal/vm/elide_test.go), with every statically flagged site actually
# trapping in the VM.
go test -count=1 -run 'TestBoundsE1Discharge|TestBoundsProofsDemandExact|TestFFIProv|TestTruncate' ./internal/analysis
go test -count=1 -run 'TestBoundsElision|TestBoundsStaticTrapAgreement' ./internal/vm
for kind in shard twopc; do
    /tmp/bitc-check serve -emit-program "$kind" > "/tmp/bitc-bound-$kind.bitc"
done
for f in examples/progs/*.bitc examples/bankstm/bankstm.bitc \
         /tmp/bitc-bound-shard.bitc /tmp/bitc-bound-twopc.bitc; do
    if /tmp/bitc-check analyze -strict "$f" | grep -q 'BITC-BOUND001'; then
        echo "$f: provably out-of-range vector access"; exit 1
    fi
done
rm -f /tmp/bitc-bound-shard.bitc /tmp/bitc-bound-twopc.bitc
echo "bounds gate: discharge floor, corpus sweep, and elision differential green"

# Bench determinism gate: two deterministic E1 collections must be
# byte-identical — dispatch work (specialization, fusion, inline caches)
# must never leak nondeterminism into the committed trajectory files.
go build -o /tmp/bitc-bench-check ./cmd/bitc-bench
d1=$(mktemp -d); d2=$(mktemp -d)
/tmp/bitc-bench-check -e E1 -quick -deterministic -metrics "$d1" > /dev/null
/tmp/bitc-bench-check -e E1 -quick -deterministic -metrics "$d2" > /dev/null
cmp "$d1/BENCH_E1.json" "$d2/BENCH_E1.json" || {
    echo "deterministic E1 runs differ byte-for-byte"; exit 1; }
echo "bench determinism: E1 deterministic collection is byte-reproducible"
rm -rf "$d1" "$d2"

# E9 trajectory gate (~4s): the deterministic serve experiment must reproduce
# the committed BENCH_E9.json byte for byte, so a change that moves the
# service's commits, aborts or latencies (STM, scheduler, 2PC) shows up as a
# reviewed diff instead of a stale table. Regenerate deliberately with
# `go run ./cmd/bitc-bench -e E9 -deterministic -metrics .`.
d9=$(mktemp -d)
/tmp/bitc-bench-check -e E9 -deterministic -metrics "$d9" > /dev/null
cmp "$d9/BENCH_E9.json" BENCH_E9.json || {
    echo "deterministic E9 run differs from the committed BENCH_E9.json"; exit 1; }
echo "bench trajectory: E9 matches the committed BENCH_E9.json"
rm -rf "$d9"

# E8 trajectory gate (<0.1s): the deterministic bank-transfer experiment
# must reproduce the committed BENCH_E8.json byte for byte. Its rows carry
# each discipline's VM counters and final total, so an optimiser or
# scheduler change that moves the instructions or calls the bank programs
# execute shows up as a reviewed diff. Regenerate deliberately with
# `go run ./cmd/bitc-bench -e E8 -quick -deterministic -metrics .`.
d8=$(mktemp -d)
/tmp/bitc-bench-check -e E8 -quick -deterministic -metrics "$d8" > /dev/null
cmp "$d8/BENCH_E8.json" BENCH_E8.json || {
    echo "deterministic E8 run differs from the committed BENCH_E8.json"; exit 1; }
echo "bench trajectory: E8 matches the committed BENCH_E8.json"
rm -rf "$d8"

# E4 trajectory gate (<0.1s): the deterministic FFI-boundary experiment must
# reproduce the committed BENCH_E4.json byte for byte. Its rows carry the
# counted units of each call kind (VM calls, boundary crossings, spilled
# registers, marshalled bytes), with walls zeroed, so a change that moves
# what a crossing is charged shows up as a reviewed diff. Regenerate
# deliberately with `go run ./cmd/bitc-bench -e E4 -quick -deterministic -metrics .`.
d4=$(mktemp -d)
/tmp/bitc-bench-check -e E4 -quick -deterministic -metrics "$d4" > /dev/null
cmp "$d4/BENCH_E4.json" BENCH_E4.json || {
    echo "deterministic E4 run differs from the committed BENCH_E4.json"; exit 1; }
echo "bench trajectory: E4 matches the committed BENCH_E4.json"
rm -rf "$d4"

# ANALYZE trajectory gate (~0.5s): the deterministic incremental-analysis
# experiment must reproduce the committed BENCH_ANALYZE.json byte for byte.
# Its rows carry findings and per-run fact-store hits and misses, so a change
# that widens invalidation or breaks the early cutoffs (summary values,
# aggregation) shows up as a reviewed diff. Regenerate deliberately with
# `go run ./cmd/bitc-bench -e ANALYZE -deterministic -metrics .`.
da=$(mktemp -d)
/tmp/bitc-bench-check -e ANALYZE -deterministic -metrics "$da" > /dev/null
cmp "$da/BENCH_ANALYZE.json" BENCH_ANALYZE.json || {
    echo "deterministic ANALYZE run differs from the committed BENCH_ANALYZE.json"; exit 1; }
echo "bench trajectory: ANALYZE matches the committed BENCH_ANALYZE.json"
rm -rf "$da" /tmp/bitc-bench-check

# Serving smoke gate (~2s): 10k transactions across 4 shards with
# cross-shard 2PC transfers; `bitc serve` exits non-zero unless the
# conservation-of-balance invariant holds at shutdown (see docs/serve.md).
/tmp/bitc-check serve -smoke

# The serving subsystem mixes real OS threads (shard batches, 2PC
# coordinators) with VM green threads — hold it to the race detector.
go test -race -count=1 ./internal/serve/...

# The analysis driver fans tasks out over a worker pool that shares the CFGs,
# points-to results, summaries and the checker's types read-only — hold that
# sharing to the race detector too (~30s). The type checker compresses Link
# chains while it runs and leaves every Info type at its root, so a Prune
# after Check never writes; types and core are here to keep it that way.
# Runs on one fact store also share the keys the last run carried
# (TestRunWithStoreConcurrently) and the store's definition indexes.
go test -race -count=1 ./internal/types/ ./internal/analysis/ ./internal/cfg/ ./internal/core/ ./internal/factstore/

# The parser, the compiler and the optimiser keep their scratch in the
# call, never at package level, because core.Load runs concurrently (serve's
# shards, the memo's concurrent-reader test); TestCompileConcurrently
# compiles one program from several goroutines under the race detector
# (~12s).
go test -race -count=1 ./internal/parser/ ./internal/compiler/ ./internal/opt/

rm -f "$current" /tmp/bitc-check

# Incremental scale gate: on the synthetic ~100k-function corpus, (1) a warm
# run after a one-function edit renders byte-identically to a fresh cold run,
# and (2) warm re-analysis is >= 20x faster than cold (see
# incremental_gate_test.go and docs/incremental.md). The full corpus takes a
# few minutes; set BITC_INCR_GATE_FUNCS to shrink it locally — note the 20x
# bar assumes near-full scale (fixed warm overheads dominate tiny corpora).
gate=$(BITC_INCR_GATE=1 go test -run TestIncrementalGate -count=1 -v -timeout 1800s .) || {
    printf '%s\n' "$gate"; exit 1; }
printf '%s\n' "$gate" | grep 'corpus:' || true

echo "check: all green"
