#!/bin/sh
# check.sh — the full local gate: formatting, vet, build, race-enabled
# tests, the proof round-trip smokes (scripts/proofsmoke.sh), short fuzz
# runs of the DRAT checker,
# a one-iteration smoke pass over the perf-critical benchmarks, and the
# end-to-end benchmark module's vet, tests and a one-second run. CI and
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

echo "==> proof checker fuzz (a few seconds each)"
go test -run '^$' -fuzz '^FuzzProofCheck$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzProofMutation$' -fuzztime 3s ./internal/proof

echo "==> lint directive-parser fuzz (a few seconds)"
go test -run '^$' -fuzz '^FuzzDirectives$' -fuzztime 3s ./internal/lint

echo "==> parity clause fuzz (a few seconds)"
go test -run '^$' -fuzz '^FuzzParityClause$' -fuzztime 3s ./internal/sat

echo "==> sparse GF(2) elimination fuzz (a few seconds)"
go test -run '^$' -fuzz '^FuzzSparseRREF$' -fuzztime 3s ./internal/gf2

echo "==> ANF-to-CNF conversion fuzz against the reference encoder (a few seconds)"
go test -run '^$' -fuzz '^FuzzANFToCNF$' -fuzztime 3s ./internal/conv

echo "==> reader fuzz (ANF against the reference parser, DIMACS) and /solve handler fuzz (a few seconds each)"
go test -run '^$' -fuzz '^FuzzReadSystem$' -fuzztime 3s ./internal/anf
go test -run '^$' -fuzz '^FuzzReadDimacs$' -fuzztime 3s ./internal/cnf
go test -run '^$' -fuzz '^FuzzSolveHandler$' -fuzztime 3s ./internal/server

echo "==> bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench 'XL|RREF|ElimLin|ProcessWorkers|ANFToCNF|PolyVars|ReadSystem|SolveHit' -benchtime 1x \
	./internal/anf ./internal/conv ./internal/core ./internal/gf2 ./internal/server

echo "==> perfbench module (vet, tests, one-second traced run)"
# perfbench is a Go module of its own (replace repro => ../), so the root
# `go build ./...` and `go test ./...` never compile it: a signature
# change to anything it calls would break the benchmark unseen.
(cd perfbench && go vet ./... && go test ./...)
bash perfbench/run.sh --workload simon-elimlin --seed 1 --seconds 1 --trace 1 > "$workdir/perfbench.out"
tail -n 1 "$workdir/perfbench.out" | grep -q '"correct":true'

echo "==> benchtab harness smoke (-quick snapshot + -compare on frozen baselines)"
go run ./cmd/benchtab -perf "$workdir/quick.json" -quick
# Gate disabled (-gate=-1): this asserts that -compare parses every frozen
# snapshot generation (pr1 has no cdcl section, pr6 no cube section), not
# that the newer snapshots beat the older ones.
go run ./cmd/benchtab -compare -gate=-1 BENCH_pr1.json BENCH_pr5.json >/dev/null
go run ./cmd/benchtab -compare -gate=-1 BENCH_pr6.json BENCH_pr7.json >/dev/null
go run ./cmd/benchtab -compare -gate=-1 BENCH_pr7.json BENCH_pr8.json >/dev/null
go run ./cmd/benchtab -compare -gate=-1 BENCH_pr8.json BENCH_pr10.json >/dev/null
go run ./cmd/benchtab -compare -gate=-1 BENCH_pr10.json "$workdir/quick.json" >/dev/null

echo "==> fragment routing smoke (classifier fuzz + route/walksat quick tests)"
go test -count=1 -run 'TestFragmentJobs' ./internal/bench
go test -run '^$' -fuzz '^FuzzClassify$' -fuzztime 3s ./internal/route

echo "==> parity family smoke (frozen-seed verdicts, both arms)"
go test -count=1 -run 'TestParityJobsVerdicts' ./internal/bench

echo "==> OK"
