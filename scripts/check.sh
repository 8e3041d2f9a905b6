#!/usr/bin/env bash
# Repo-wide correctness gate: build, vet, gnnlint, full tests, and a
# race-detector pass over the packages with concurrent kernels (the shared
# partitioner's consumers: dense tensor ops, sparse propagation, samplers,
# the nn/models training stack, and the partitioner itself).
#
# The race pass runs in -short mode so it stays fast enough for CI and
# pre-commit use; the full (non-race) suite runs unabridged.
set -euo pipefail
cd "$(dirname "$0")/.."

# One scratch root for everything the smoke steps write (binaries, sockets,
# logs), removed however the script exits — as are the busy loops
# of the contention step, should it fail before it reaps them.
SCRATCH=$(mktemp -d)
HOGS=()
trap 'kill "${HOGS[@]}" 2>/dev/null || true; rm -rf "$SCRATCH"' EXIT

# Tracked-file size gate: a built binary committed by accident (a 10.8 MB
# gnntrain ELF once was) fails here instead of riding along in every clone.
echo "== tracked files <= 1 MB"
BIG=$(git ls-files -z | xargs -0 -r wc -c 2>/dev/null | awk '$2 != "total" && $1 > 1048576' || true)
[ -z "$BIG" ] || { echo "tracked files over 1 MB (bytes, path):"; echo "$BIG"; exit 1; }

# A main package is a command, and commands live in cmd/. A walkthrough
# is an Example test or a gnnbench experiment, which tier-1 runs, not a
# main that nothing executes.
echo "== no package main outside cmd/"
MAINS=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep -vE '^(scalegnn/cmd/|$)' || true)
[ -z "$MAINS" ] || { echo "package main outside cmd/:"; echo "$MAINS"; exit 1; }

# A package publishes metrics through named refs (obs.CounterRef, GaugeRef,
# HistogramRef) that its EnableMetrics binds with one obs.Bind, which also
# unbinds them on nil. Registering by name is left to internal/obs itself
# and to internal/serve, whose engine owns a per-instance registry.
echo "== metrics register by name only in internal/obs and internal/serve"
BYNAME=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata \
  '\.(Counter|Gauge|Histogram)\("' internal cmd benchmark | grep -vE '^internal/(obs|serve)/' || true)
[ -z "$BYNAME" ] || { echo "$BYNAME"; echo "declare a named obs ref and bind it with obs.Bind instead"; exit 1; }

echo "== go build ./..."
go build ./...

# Both sides of the failpoint build tag must always compile: the default
# build carries the armed registry (so crash tests can fire it), and the
# nofault build proves the production-oriented variant hasn't rotted.
echo "== go build -tags nofault ./..."
go build -tags nofault ./...

echo "== go vet ./..."
go vet ./...

# The no-asm stubs (simd_noasm.go) are compiled by nobody on an amd64 CI
# host; vet the two packages that dispatch to the kernels for arm64 so a
# signature change in simd_amd64.go cannot leave them behind.
echo "== GOARCH=arm64 go vet ./internal/tensor ./internal/graph"
GOARCH=arm64 go vet ./internal/tensor ./internal/graph

# Plain-Go float code rounds each product before its add: the float64
# tier's bit contract, the float32 scalar body's tolerance to the vector
# one, and everywhere else the arithmetic amd64 runs. amd64 never fuses a
# multiply and an add; arm64 does unless the product is converted to its
# type first. Compile everything for arm64 with assembly listings and fail
# on a fused multiply-add in any internal/ or cmd/ function, generic
# instantiations compiled in other packages included.
echo "== no fused multiply-add in internal/ and cmd/ functions on arm64"
GOARCH=arm64 go build -a -gcflags='scalegnn/...=-S' ./... 2> "$SCRATCH/arm64.s" \
  || { tail -n 20 "$SCRATCH/arm64.s"; exit 1; }
FUSED=$(awk '/^[^ \t]/ { fn = $1; if (fn ~ /^scalegnn\/internal\/tensor\./) seen++ }
  fn ~ /^scalegnn\/(internal|cmd)\// && /\tFN?M(ADD|SUB)[DS]\t/ { print fn ": " $0 }
  END { if (!seen) print "no internal/tensor function in the arm64 listing" }' "$SCRATCH/arm64.s")
[ -z "$FUSED" ] || { echo "$FUSED"; echo "internal/ and cmd/ must not fuse multiply and add"; exit 1; }

# The float64 tier is bitwise equal to the scalar loops only while its
# vector kernels multiply, round, then add. No fused double-precision
# multiply-add may appear in the kernel file (the float32 kernels use the
# ...PS/...SS forms and are not matched).
echo "== no double-precision FMA in internal/tensor/simd_amd64.s"
if grep -nE '^[[:space:]]*VFN?M(ADD|SUB)[A-Z0-9]*[PS]D[[:space:]]' internal/tensor/simd_amd64.s; then
  echo "float64 kernels must not fuse multiply and add"; exit 1
fi

# The benchmark is its own module, so ./... above and the gnnlint run
# below do not reach it.
echo "== benchmark module: go test, go vet, gnnlint"
go test -C benchmark ./...
go vet -C benchmark ./...
(cd benchmark && go run scalegnn/cmd/gnnlint ./...)

echo "== gnnlint ./..."
go run ./cmd/gnnlint ./...

echo "== go test ./..."
go test ./...

# go test does not run benchmarks; one iteration of the element-wise gate
# benchmarks (ns per element at the SIGN and GCN shapes), the edge-list
# load and the float32 dense products (GFMA/s at the SIGN head shapes)
# keeps them from rotting.
echo "== go test -bench 'Dropout|ReLU' -benchtime 1x ./internal/nn (smoke)"
go test -run '^$' -bench 'Dropout|ReLU' -benchtime 1x ./internal/nn
echo "== go test -bench ReadEdgeList -benchtime 1x ./internal/graph (smoke)"
go test -run '^$' -bench ReadEdgeList -benchtime 1x ./internal/graph
# The SpMM at widths 1, 5 and 64, both tiers (ns/op on a 20 000-node BA graph).
echo "== go test -bench OperatorApply -benchtime 1x ./internal/graph (smoke)"
go test -run '^$' -bench OperatorApply -benchtime 1x ./internal/graph
echo "== go test -bench F32Dense -benchtime 1x ./internal/tensor (smoke)"
go test -run '^$' -bench F32Dense -benchtime 1x ./internal/tensor
# The float64 dense products, GFMA/s at the float64 workloads' shapes.
echo "== go test -bench F64Dense -benchtime 1x ./internal/tensor (smoke)"
go test -run '^$' -bench F64Dense -benchtime 1x ./internal/tensor
# The implicit solvers: Picard iteration and the eigen-decoupled CG solve.
echo "== go test -bench 'PicardSolve|EigenSolve' -benchtime 1x ./internal/implicit (smoke)"
go test -run '^$' -bench 'PicardSolve|EigenSolve' -benchtime 1x ./internal/implicit

# Ten seconds of the edge-list fuzzer: ReadEdgeList must match the oracle
# reader (same CSR bits or the same error) on inputs nobody wrote down.
# Minimizing a new input is capped at 1 s so a 140 KB seed's mutants
# cannot spend the whole budget being shrunk.
echo "== go test -fuzz FuzzReadEdgeList -fuzztime 10s ./internal/graph (smoke)"
go test -run '^$' -fuzz '^FuzzReadEdgeList$' -fuzztime 10s -fuzzminimizetime 1s ./internal/graph

# Ten seconds each of the two byte-format decoders: a rows frame or a
# snapshot that is accepted must re-encode to exactly its own bytes.
echo "== go test -fuzz FuzzReadFrame -fuzztime 10s ./internal/distnet (smoke)"
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s -fuzzminimizetime 1s ./internal/distnet
echo "== go test -fuzz FuzzDecode -fuzztime 10s ./internal/ckpt (smoke)"
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/ckpt

# Ten seconds of the float64 kernel fuzzer: the vector body of the SpMM row
# kernel and of Axpy must give the scalar body's bits on any bit pattern.
# It also drives the 4×8 block kernel (value and NaN flag) and the two
# dense products built on it against the naive skipping loop.
echo "== go test -fuzz FuzzF64KernelsMatchScalar -fuzztime 10s ./internal/tensor (smoke)"
go test -run '^$' -fuzz '^FuzzF64KernelsMatchScalar$' -fuzztime 10s -fuzzminimizetime 1s ./internal/tensor

# TMatMulInto splits its output among as many workers as its work allows;
# its bits must not depend on how many that is. Run the float64 kernel
# tests at several GOMAXPROCS, not only at this host's core count.
echo "== go test -cpu 1,2,4 (float64 kernels at several worker counts)"
go test -count=1 -cpu 1,2,4 -run 'TestF64|TestTMatMul' ./internal/tensor

# Dropout splits its mask fill among as many workers as the length allows,
# each jumping the run's PCG to its first element, and the sparse product
# (graph SpMM and a sampled block's aggregation alike) splits its rows
# among workers; the masks, the RNG stream after them, the products and
# everything trained on them must not depend on how many workers that is.
# Run the goldens, the block digests, the SpMM and aggregation tests and
# the dropout/PCG tests at one worker and at three, beside the GCN layer
# tests (the transform-first order of a narrowing layer must hold at any
# worker count). The implicit solver tests run there too: their Picard
# loop and P^s ping-pong sit on the same sparse and dense products.
# The float64 product tests (TestF64, the remainder-shape test among them)
# run there too: a worker's leftover rows and the packed last panel fall
# elsewhere at each worker count. So do GCN's one Âx per fit (its bits,
# its peak floats, its 4 distnet rounds per epoch) and the embedding memo.
GCN_MEMO='TestGCNEvalReusesAX|TestGCNPeakFloatsCountsHeldAX|TestGCNDistRoundsPerEpoch|TestRestoresShareEmbedding|TestEmbMemo|TestConcurrentRestoresShareEmbedding'
echo "== go test -cpu 1,3 (dropout fill, sparse products, GCN layer order and Âx reuse, embedding memo, implicit solves, goldens and block digests at several worker counts)"
go test -count=1 -cpu 1,3 -run "TestGoldenFingerprints|TestBlockDigests|TestAggregate|TestDropout|TestPCG|TestGCNConv|TestApplyRowsInto|TestSpMM|TestSolve|TestGradW|TestAdjoint|TestF64|TestF64ProductsRemainderShapes|$GCN_MEMO" ./internal/models ./internal/sampling ./internal/nn ./internal/tensor ./internal/graph ./internal/implicit

# Second pass with the vector kernels off: the golden fingerprints, the
# GCN layer tests, the kernel tests, the solvers whose SpMV runs on the
# SpMM row kernel (PPR, CG, spectral) and the allocation ceilings must hold
# on the scalar fallback too — it is what every non-AVX2 host runs and
# what the vector kernels are compared against.
# -count=1 because the gate is read at package init, where the test cache
# does not see the environment.
echo "== SCALEGNN_NOSIMD=1 go test (kernels + solvers + golden fingerprints + GCN layer order + alloc ceilings)"
SCALEGNN_NOSIMD=1 go test -count=1 ./internal/tensor ./internal/graph ./internal/ppr ./internal/implicit ./internal/spectral
SCALEGNN_NOSIMD=1 go test -count=1 -run "TestGoldenFingerprints|TestGCNConv|$GCN_MEMO" ./internal/models
SCALEGNN_NOSIMD=1 go test -count=1 -run TestAllocCeilings ./internal/models

RACE_PKGS=(
  ./internal/tensor
  ./internal/graph
  ./internal/sampling
  ./internal/nn
  ./internal/models
  ./internal/train
  ./internal/par
  ./internal/obs
  ./internal/ckpt
  ./internal/fault
  ./internal/distnet
  ./internal/serve
  ./internal/bench
)
# Race-list sync gate: any internal/ package that spawns goroutines
# directly carries a //lint:ignore naked-go suppression per allowed site;
# every such package must be in RACE_PKGS (along with internal/par, the
# partitioner itself) or the race pass silently stops covering new
# concurrency as it lands.
echo "== race-list sync (naked-go suppressions vs RACE_PKGS)"
GOROUTINE_PKGS=$(grep -rlE '^[[:space:]]*//[[:space:]]*lint:ignore naked-go ' internal --include='*.go' \
  | grep -v '/testdata/' | xargs -rn1 dirname | sort -u)
for pkg in $GOROUTINE_PKGS internal/par; do
  found=0
  for rp in "${RACE_PKGS[@]}"; do
    [ "${rp#./}" = "$pkg" ] && found=1
  done
  if [ "$found" -eq 0 ]; then
    echo "race-list sync failed: $pkg spawns goroutines (naked-go suppression)"
    echo "but is missing from RACE_PKGS in scripts/check.sh"
    exit 1
  fi
done

echo "== go test -race -short ${RACE_PKGS[*]}"
go test -race -short "${RACE_PKGS[@]}"

# Contention gate: the reconnect and resume paths of the exchange protocol
# must not depend on who gets the CPU. (They did: a reconnect used to close a
# connection whose last round was still unread, and only a starved reader
# showed it.) One -race test binary, 2 x nproc copies of it side by side,
# 4 x nproc busy loops beside them; any failing copy fails the gate.
NPROC=$(nproc)
echo "== distnet under contention ($((2 * NPROC)) copies x -count=5, $((4 * NPROC)) busy loops)"
go test -race -c -o "$SCRATCH/distnet.test" ./internal/distnet
for _ in $(seq $((4 * NPROC))); do
  (while :; do :; done) &
  HOGS+=($!)
done
COPIES=()
for i in $(seq $((2 * NPROC))); do
  "$SCRATCH/distnet.test" -test.count=5 \
    -test.run 'TestResumeReplay|TestReconnectAtEveryRound|TestTornFrameRecovery' \
    > "$SCRATCH/contention.$i.log" 2>&1 &
  COPIES[$i]=$!
done
FAILED=0
for i in "${!COPIES[@]}"; do
  wait "${COPIES[$i]}" || { FAILED=1; grep -v '^fault: ' "$SCRATCH/contention.$i.log" | tail -n 20; }
done
kill "${HOGS[@]}"
wait "${HOGS[@]}" 2>/dev/null || true
HOGS=()
[ "$FAILED" -eq 0 ] || { echo "distnet lost a round under contention"; exit 1; }

# Crash-recovery gate: SIGKILL a real training subprocess in the middle of
# a checkpoint write and require a clean, bitwise-identical resume (torn
# temps ignored, corrupt snapshots rejected, previous snapshot used). Runs
# under -race per the fault-tolerance acceptance contract. TestCrashDist*
# additionally SIGKILLs one shard of a two-process cluster mid-epoch and
# requires the -resume rejoin to reach the same final fingerprint.
echo "== crash recovery (go test -race -run 'TestCrash' ./cmd/gnntrain; TestCrashDist x3)"
go test -race -count=1 -run 'TestCrash' -skip 'TestCrashDist' ./cmd/gnntrain
go test -race -count=3 -run 'TestCrashDist' ./cmd/gnntrain

# Distributed smoke gate: two real gnntrain processes over unix sockets
# must produce prediction fingerprints bitwise identical to the
# single-process run, with zero stale substitutions (strict sync mode).
echo "== distributed smoke (2-shard gnntrain vs single-process fingerprint)"
go build -o "$SCRATCH/gnntrain" ./cmd/gnntrain
DIST_ARGS=(-model gcn -nodes 300 -epochs 4 -patience 0 -seed 9 -fingerprint)
"$SCRATCH/gnntrain" "${DIST_ARGS[@]}" 2>/dev/null > "$SCRATCH/single.out"
PEERS="unix:$SCRATCH/s0.sock,unix:$SCRATCH/s1.sock"
"$SCRATCH/gnntrain" "${DIST_ARGS[@]}" -shard 0/2 -peers "$PEERS" \
  2>/dev/null > "$SCRATCH/shard0.out" &
DIST_PID=$!
"$SCRATCH/gnntrain" "${DIST_ARGS[@]}" -shard 1/2 -peers "$PEERS" \
  2>/dev/null > "$SCRATCH/shard1.out"
wait "$DIST_PID"
FP_SINGLE=$(grep -o 'fingerprint=[0-9a-f]*' "$SCRATCH/single.out")
FP_S0=$(grep -o 'fingerprint=[0-9a-f]*' "$SCRATCH/shard0.out")
FP_S1=$(grep -o 'fingerprint=[0-9a-f]*' "$SCRATCH/shard1.out")
[ -n "$FP_SINGLE" ] && [ "$FP_S0" = "$FP_SINGLE" ] && [ "$FP_S1" = "$FP_SINGLE" ] || {
  echo "distributed smoke failed: fingerprints diverge"
  echo "  single: $FP_SINGLE  shard0: $FP_S0  shard1: $FP_S1"; exit 1; }
grep -q 'stale_hits=0' "$SCRATCH/shard0.out" && grep -q 'stale_hits=0' "$SCRATCH/shard1.out" || {
  echo "distributed smoke failed: sync mode reported stale substitutions"; exit 1; }
echo "   fingerprints match: $FP_SINGLE (2 shards, sync, 0 stale)"

# Size report (no threshold): the one way this repo counts "non-test Go
# lines" and command-line options, so every PR quotes the same numbers.
echo "== non-test Go lines"
echo "   root module: $(find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './benchmark/*' | xargs cat | wc -l)"
echo "   benchmark/:  $(find benchmark -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)"
echo "   internal/lint: $(find internal/lint -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)"
echo "   internal/models: $(find internal/models -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)"
echo "   internal/train: $(find internal/train -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l)"
echo "== flags per command (-h lines starting with '  -')"
go build -o "$SCRATCH/cmds/" ./cmd/...
for bin in "$SCRATCH"/cmds/*; do
  echo "   $(basename "$bin"): $("$bin" -h 2>&1 | grep -c '^  -' || true)"
done

echo "All checks passed."
