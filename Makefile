GO ?= go

.PHONY: build test race bench check perf smoke lint proofsmoke fuzzsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/gf2 ./internal/server

# lint runs the project's own static analyzers (cmd/bosphoruslint):
# the pattern rules (arenaref, ctxpoll, determinism, gf2pack, proofhook,
# lockhold) plus the dataflow rules (arenagc, hotpath, goleak,
# verdictcheck).
lint:
	$(GO) run ./cmd/bosphoruslint ./...

# smoke builds the daemon and runs the end-to-end service test: start,
# submit jobs, cancellation, backpressure, metrics, SIGTERM drain.
smoke:
	$(GO) test -count=1 -run TestEndToEndSmoke ./cmd/bosphorusd

# bench runs the perf-critical benchmarks (linearization, elimination
# kernel, ElimLin and its occurrence index, the whole loop at one and four
# learners at once), the kernel table that -perf snapshots (one
# sub-benchmark per family/job/arm: XL, ElimLin, M4R, the CDCL, cube,
# fragment and parity families) and the CDCL model-enumeration benchmark,
# with allocation stats.
bench:
	$(GO) test -run '^$$' -bench 'XL|RREF|ElimLin|ProcessWorkers' -benchmem \
		./internal/anf ./internal/core ./internal/gf2
	$(GO) test -run '^$$' -bench 'Kernels' -benchmem ./internal/bench
	$(GO) test -run '^$$' -bench 'CDCLEnumerate' -benchmem ./internal/sat

# check is the full local gate: gofmt + vet + build + race tests + proof
# round-trip smoke + fuzz smoke + bench smoke.
check:
	sh scripts/check.sh

# proofsmoke runs only the proof round-trip smokes (scripts/proofsmoke.sh,
# which check.sh and CI run too): solve the UNSAT example instances with
# --proof, check each DRAT with proofcheck, and confirm a corrupted proof
# is rejected.
proofsmoke:
	sh scripts/proofsmoke.sh

# fuzzsmoke fuzzes every fuzz target for three seconds (scripts/fuzzsmoke.sh,
# which check.sh and CI run too).
fuzzsmoke:
	sh scripts/fuzzsmoke.sh

# perf writes a machine-readable snapshot of the kernel table (one record
# of ns/allocs/bytes per family/job/arm) to BENCH_local.json, which git
# ignores. The BENCH_pr*.json files are frozen snapshots that -compare
# still reads; never overwrite them. Compare a fresh snapshot with the
# latest frozen one:
# `go run ./cmd/benchtab -compare BENCH_pr10.json BENCH_local.json`.
# The end-to-end benchmark is perfbench/run.sh (see perfbench/README.md).
perf: build
	$(GO) run ./cmd/benchtab -perf BENCH_local.json
