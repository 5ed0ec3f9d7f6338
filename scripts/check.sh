#!/bin/sh
# check.sh — the full local gate: formatting, vet, build, race-enabled
# tests, a proof round-trip smoke, short fuzz runs of the DRAT checker,
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

echo "==> proof round-trip smoke (solve UNSAT with --proof, check, reject corrupted)"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
go build -o "$workdir/bosphorus" ./cmd/bosphorus
go build -o "$workdir/proofcheck" ./cmd/proofcheck
"$workdir/bosphorus" -anf examples/instances/unsat_pair.anf -solve \
	-no-xl -no-elimlin -verify-facts -proof "$workdir/p.drat" | grep -q "s UNSATISFIABLE"
"$workdir/proofcheck" -cnf "$workdir/p.drat.cnf" "$workdir/p.drat" | grep -q "s VERIFIED"
# A corrupted proof (bogus leading derivation) must be rejected nonzero.
{ echo "999999 0"; cat "$workdir/p.drat"; } > "$workdir/bad.drat"
if "$workdir/proofcheck" -cnf "$workdir/p.drat.cnf" "$workdir/bad.drat" >/dev/null 2>&1; then
	echo "proofcheck accepted a corrupted proof" >&2
	exit 1
fi

echo "==> parity proof round-trip smoke (native parity clauses, Gauss side-car, x-justified DRAT, reject corrupted)"
# unsat_parity.anf converts to native XOR clauses; the refutation flows
# through the solver's packed parity kind and the proof's derived clauses
# carry GF(2)-rowspan ("x") justifications. The -native-xor=false run is
# the differential baseline: same verdict through the CNF-cut path. With
# -l 12 the instance's 9- and 10-variable rows stay whole and go to the
# Gauss side-car, whose elimination refutes them before any conflict;
# that proof must check too.
"$workdir/bosphorus" -anf examples/instances/unsat_parity.anf -solve \
	-no-xl -no-elimlin -proof "$workdir/parity.drat" | grep -q "s UNSATISFIABLE"
"$workdir/proofcheck" -cnf "$workdir/parity.drat.cnf" "$workdir/parity.drat" | grep -q "s VERIFIED"
"$workdir/bosphorus" -anf examples/instances/unsat_parity.anf -solve \
	-no-xl -no-elimlin -native-xor=false | grep -q "s UNSATISFIABLE"
{ echo "999999 0"; cat "$workdir/parity.drat"; } > "$workdir/parity-bad.drat"
if "$workdir/proofcheck" -cnf "$workdir/parity.drat.cnf" "$workdir/parity-bad.drat" >/dev/null 2>&1; then
	echo "proofcheck accepted a corrupted parity proof" >&2
	exit 1
fi
"$workdir/bosphorus" -anf examples/instances/unsat_parity.anf -solve \
	-no-xl -no-elimlin -l 12 -v -proof "$workdir/gauss.drat" > "$workdir/gauss.log" 2>&1
grep -q "s UNSATISFIABLE" "$workdir/gauss.log"
grep -q "SAT step (UNSAT, 0 conflicts)" "$workdir/gauss.log"
"$workdir/proofcheck" -cnf "$workdir/gauss.drat.cnf" "$workdir/gauss.drat" | grep -q "s VERIFIED"
{ echo "999999 0"; cat "$workdir/gauss.drat"; } > "$workdir/gauss-bad.drat"
if "$workdir/proofcheck" -cnf "$workdir/gauss.drat.cnf" "$workdir/gauss-bad.drat" >/dev/null 2>&1; then
	echo "proofcheck accepted a corrupted Gauss proof" >&2
	exit 1
fi

echo "==> multi-node smoke (coordinator + two worker nodes, proofcheck on the stitched proof)"
BOSPHORUSD_SMOKE_DIR="$workdir" go test -count=1 -run TestMultiNodeSmoke ./cmd/bosphorusd
"$workdir/proofcheck" -cnf "$workdir/smoke.cnf" "$workdir/smoke.drat" | grep -q "s VERIFIED"

echo "==> proof checker fuzz (a few seconds each)"
go test -run '^$' -fuzz '^FuzzProofCheck$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzProofMutation$' -fuzztime 3s ./internal/proof

echo "==> lint directive-parser fuzz (a few seconds)"
go test -run '^$' -fuzz '^FuzzDirectives$' -fuzztime 3s ./internal/lint

echo "==> parity clause fuzz (a few seconds)"
go test -run '^$' -fuzz '^FuzzParityClause$' -fuzztime 3s ./internal/sat

echo "==> bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench 'XL|RREF|ElimLin|ProcessWorkers' -benchtime 1x \
	./internal/anf ./internal/core ./internal/gf2

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
