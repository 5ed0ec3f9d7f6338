GO ?= go

.PHONY: build test race bench check perf smoke lint proofsmoke

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
# learners at once, CDCL propagation/conflict families) with allocation
# stats.
bench:
	$(GO) test -run '^$$' -bench 'XL|RREF|ElimLin|ProcessWorkers' -benchmem \
		./internal/anf ./internal/core ./internal/gf2
	$(GO) test -run '^$$' -bench 'BenchmarkCDCL' -benchmem ./internal/sat

# check is the full local gate: gofmt + vet + build + race tests + proof
# round-trip smoke + checker fuzz + bench smoke.
check:
	sh scripts/check.sh

# proofsmoke runs only the proof round-trip smokes (scripts/proofsmoke.sh,
# which check.sh and CI run too): solve the UNSAT example instances with
# --proof, check each DRAT with proofcheck, and confirm a corrupted proof
# is rejected.
proofsmoke:
	sh scripts/proofsmoke.sh

# perf writes a machine-readable kernel + CDCL + cube + fragment + parity
# timing snapshot to BENCH_local.json, which git ignores. The BENCH_pr*.json
# files are frozen snapshots that scripts/check.sh compares; never
# overwrite them. Compare a fresh snapshot with the latest frozen one:
# `go run ./cmd/benchtab -compare BENCH_pr10.json BENCH_local.json`.
# The end-to-end benchmark is perfbench/run.sh (see perfbench/README.md).
perf: build
	$(GO) run ./cmd/benchtab -perf BENCH_local.json
