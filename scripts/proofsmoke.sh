#!/bin/sh
# proofsmoke.sh — the proof round-trip smokes: solve the UNSAT example
# instances with -proof, check each DRAT proof with proofcheck, and make
# sure a corrupted copy of each is rejected. One plain CNF refutation (with
# -verify-facts), one through native parity clauses, one through the Gauss
# side-car. scripts/check.sh, CI and `make proofsmoke` all run this script.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
go build -o "$workdir/bosphorus" ./cmd/bosphorus
go build -o "$workdir/proofcheck" ./cmd/proofcheck

echo "==> proof round-trip smoke (solve UNSAT with --proof, check, reject corrupted)"
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
# carry GF(2)-rowspan ("x") justifications. (The clausal-cut baseline of
# the same instance is TestUnsatParityBothXorArms in internal/core.) With
# -l 12 the instance's 9- and 10-variable rows stay whole and go to the
# Gauss side-car, whose elimination refutes them before any conflict;
# that proof must check too.
"$workdir/bosphorus" -anf examples/instances/unsat_parity.anf -solve \
	-no-xl -no-elimlin -proof "$workdir/parity.drat" | grep -q "s UNSATISFIABLE"
"$workdir/proofcheck" -cnf "$workdir/parity.drat.cnf" "$workdir/parity.drat" | grep -q "s VERIFIED"
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
