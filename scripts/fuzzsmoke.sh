#!/bin/sh
# fuzzsmoke.sh — a few seconds of fuzzing for each fuzz target: the DRAT
# checker, alone, against its reference and against the reader its format
# sniff picks, the lint directive parser, the router's classifier, native
# parity clauses, sparse GF(2) elimination, ANF-to-CNF conversion against
# the reference encoder, the ANF and DIMACS readers, the /solve body
# decoder against encoding/json, the cache key's input scans against the
# readers, and the /solve handler. scripts/check.sh and CI both run this
# script.
set -eu

cd "$(dirname "$0")/.."

echo "==> fuzz smokes (3 s per target)"
go test -run '^$' -fuzz '^FuzzProofCheck$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzProofMutation$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzCheckMatchesReference$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzCheckPicksReader$' -fuzztime 3s ./internal/proof
go test -run '^$' -fuzz '^FuzzDirectives$' -fuzztime 3s ./internal/lint
go test -run '^$' -fuzz '^FuzzClassify$' -fuzztime 3s ./internal/route
go test -run '^$' -fuzz '^FuzzParityClause$' -fuzztime 3s ./internal/sat
go test -run '^$' -fuzz '^FuzzSparseRREF$' -fuzztime 3s ./internal/gf2
go test -run '^$' -fuzz '^FuzzANFToCNF$' -fuzztime 3s ./internal/conv
go test -run '^$' -fuzz '^FuzzReadSystem$' -fuzztime 3s ./internal/anf
go test -run '^$' -fuzz '^FuzzReadDimacs$' -fuzztime 3s ./internal/cnf
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 3s ./internal/server
go test -run '^$' -fuzz '^FuzzScanKeyANF$' -fuzztime 3s ./internal/server
go test -run '^$' -fuzz '^FuzzScanKeyDIMACS$' -fuzztime 3s ./internal/server
go test -run '^$' -fuzz '^FuzzSolveHandler$' -fuzztime 3s ./internal/server
