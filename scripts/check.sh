#!/bin/sh
# check.sh — the full local gate: formatting, vet, build, race-enabled
# tests, the proof round-trip smokes (scripts/proofsmoke.sh), short fuzz
# runs of every fuzz target (scripts/fuzzsmoke.sh),
# a one-iteration smoke pass over the perf-critical benchmarks, and the
# end-to-end benchmark module's vet, tests and one-second runs of every
# workload: three batch ones (one of them checks DRAT certificates) and
# the daemon one. CI and
# pre-commit runs should both go through `make check`, which calls this.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> bosphoruslint"
# The project analyzer suite: the PR-4 pattern rules (ctxpoll,
# determinism, gf2pack, proofhook, lockhold) plus the dataflow analyzers
# (arenagc, hotpath, goleak, verdictcheck). On failure this prints
# file:line:col diagnostics and the set -e aborts the gate.
go run ./cmd/bosphoruslint ./...

echo "==> go build"
go build ./...

echo "==> build bosphorusd"
go build -o /tmp/bosphorusd.check ./cmd/bosphorusd
rm -f /tmp/bosphorusd.check

echo "==> go test -race"
go test -race ./...

echo "==> server tests (-race, uncached)"
go test -race -count=1 ./internal/server

echo "==> bosphorusd e2e smoke (start, solve, backpressure, drain)"
go test -count=1 -run TestEndToEndSmoke ./cmd/bosphorusd

sh scripts/proofsmoke.sh

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "==> multi-node smoke (coordinator + two worker nodes, proofcheck on the stitched proof)"
BOSPHORUSD_SMOKE_DIR="$workdir" go test -count=1 -run TestMultiNodeSmoke ./cmd/bosphorusd
go build -o "$workdir/proofcheck" ./cmd/proofcheck
"$workdir/proofcheck" -cnf "$workdir/smoke.cnf" "$workdir/smoke.drat" | grep -q "s VERIFIED"

sh scripts/fuzzsmoke.sh

echo "==> bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench 'XL|RREF|ElimLin|ProcessWorkers|ANFToCNF|PolyVars|ReadSystem|SolveHit|Kernels|Check' -benchtime 1x \
	./internal/anf ./internal/bench ./internal/conv ./internal/core ./internal/gf2 ./internal/proof ./internal/server

echo "==> perfbench module (vet, tests, one-second traced runs of every workload)"
# perfbench is a Go module of its own (replace repro => ../), so the root
# `go build ./...` and `go test ./...` never compile it: a signature
# change to anything it calls would break the benchmark unseen.
(cd perfbench && go vet ./... && go test ./...)
bash perfbench/run.sh --workload simon-elimlin --seed 1 --seconds 1 --trace 1 > "$workdir/perfbench.out"
tail -n 1 "$workdir/perfbench.out" | grep -q '"correct":true'
# bitcoin-cdcl runs CDCL search and ANF-to-CNF conversion at scale.
bash perfbench/run.sh --workload bitcoin-cdcl --seed 1 --seconds 1 --trace 1 > "$workdir/perfbench-cdcl.out"
tail -n 1 "$workdir/perfbench-cdcl.out" | grep -q '"correct":true'
# cnf-unsat-proof is the one workload that runs proof.Check: each UNSAT
# verdict's certificate must check.
bash perfbench/run.sh --workload cnf-unsat-proof --seed 1 --seconds 1 --trace 1 > "$workdir/perfbench-proof.out"
tail -n 1 "$workdir/perfbench-proof.out" | grep -q '"correct":true'
# daemon-mix sends real-HTTP misses and cache hits to an in-process
# bosphorusd and checks every answer.
bash perfbench/run.sh --workload daemon-mix --seed 1 --seconds 1 --trace 1 > "$workdir/perfbench-daemon.out"
tail -n 1 "$workdir/perfbench-daemon.out" | grep -q '"correct":true'

echo "==> benchtab harness smoke (-quick snapshot + -compare against the latest frozen one)"
go run ./cmd/benchtab -perf "$workdir/quick.json" -quick
# Gate disabled (-gate=-1): this asserts that -compare reads a fresh file
# beside the latest frozen one, not that a smoke-scale run beats it. The
# frozen pairs' pairing is pinned by TestCompareFrozenPairs in cmd/benchtab.
go run ./cmd/benchtab -compare -gate=-1 BENCH_pr10.json "$workdir/quick.json" >/dev/null

echo "==> fragment routing smoke (frozen-seed classifications and verdicts)"
go test -count=1 -run 'TestFragmentJobs' ./internal/bench

echo "==> parity family smoke (frozen-seed verdicts, both arms)"
go test -count=1 -run 'TestParityJobsVerdicts' ./internal/bench

echo "==> OK"
