#!/bin/sh
# fuzzsmoke.sh — a few seconds of fuzzing for each fuzz target: the DRAT
# checker, the lint directive parser, the router's classifier, native
# parity clauses, sparse GF(2) elimination, ANF-to-CNF conversion against
# the reference encoder, the ANF and DIMACS readers and the /solve
# handler. scripts/check.sh and CI both run this script.
set -eu

cd "$(dirname "$0")/.."

echo "==> fuzz smokes (3 s per target)"
go test -run '^$' -fuzz '^FuzzProofCheck$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzProofMutation$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzDirectives$' -fuzztime 3s ./internal/lint
go test -run '^$' -fuzz '^FuzzClassify$' -fuzztime 3s ./internal/route
go test -run '^$' -fuzz '^FuzzParityClause$' -fuzztime 3s ./internal/sat
go test -run '^$' -fuzz '^FuzzSparseRREF$' -fuzztime 3s ./internal/gf2
go test -run '^$' -fuzz '^FuzzANFToCNF$' -fuzztime 3s ./internal/conv
go test -run '^$' -fuzz '^FuzzReadSystem$' -fuzztime 3s ./internal/anf
go test -run '^$' -fuzz '^FuzzReadDimacs$' -fuzztime 3s ./internal/cnf
go test -run '^$' -fuzz '^FuzzSolveHandler$' -fuzztime 3s ./internal/server
