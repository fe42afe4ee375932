#!/usr/bin/env bash
# Smoke test of the installed `mandel-dip` entry point: each README command
# runs, and a refused scan returns exit code 2 to the shell and writes
# nothing. The tier-1 tests pin every other CLI behaviour through
# `cli.main`. Run from the repository root: bash .github/console-smoke.sh
set -euo pipefail

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

mandel-dip analytic -P 0.04
mandel-dip scan configs/ideal_threefold.json --out "$out/ideal3"
mandel-dip scan configs/lab_fivefold.json --mode mc --out "$out/lab5" --seed 7
mandel-dip fit "$out/ideal3/curve.csv"

# small-eta mode has no Monte Carlo: refused before the engine runs
rc=0
mandel-dip scan configs/ideal_threefold.json --mode mc --out "$out/refused" || rc=$?
test "$rc" -eq 2
test ! -e "$out/refused"
echo "console smoke: ok"
