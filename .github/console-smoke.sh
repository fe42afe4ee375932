#!/usr/bin/env bash
# Smoke test of the installed `mandel-dip` entry point on the README's
# commands. Run from the repository root: bash .github/console-smoke.sh
set -euo pipefail

umask 022
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
config=configs/ideal_threefold.json
json_key() {  # json_key FILE KEY: print one top-level value of a JSON file
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' "$1" "$2"
}

mandel-dip analytic -P 0.04
mandel-dip analytic -P 0.5
mandel-dip scan "$config" --out "$out/lf"
# the outputs take the mode the umask gives
for f in curve.csv fit.json manifest.json; do
  test "$(stat -c %a "$out/lf/$f")" = 644
done
mandel-dip fit "$out/lf/curve.csv"

# a CRLF copy and a BOM copy of a config scan alike, and config_digest is
# the hash of each file's bytes
sed 's/$/\r/' "$config" > "$out/crlf.json"
{ printf '\xef\xbb\xbf'; cat "$config"; } > "$out/bom.json"
for copy in crlf bom; do
  mandel-dip scan "$out/$copy.json" --out "$out/$copy"
  test "$(json_key "$out/$copy/manifest.json" config_digest)" \
    = "$(sha256sum "$out/$copy.json" | cut -d ' ' -f 1)"
  cmp "$out/$copy/curve.csv" "$out/lf/curve.csv"
  cmp "$out/$copy/fit.json" "$out/lf/fit.json"
done

# a curve CSV with a byte-order mark fits as the plain one does
{ printf '\xef\xbb\xbf'; cat "$out/lf/curve.csv"; } > "$out/bom.csv"
test "$(mandel-dip fit "$out/bom.csv")" = "$(mandel-dip fit "$out/lf/curve.csv")"

# the fit does not depend on the delays' unit: every delay times 2^500
# gives the same V and exactly 2^500 times sigma_tau_um
python3 -c 'import sys; head, *rows = open(sys.argv[1]).read().splitlines(); print(head); [print(repr(float(d) * 2.0 ** 500), rest, sep=",") for d, _, rest in (row.partition(",") for row in rows)]' \
  "$out/lf/curve.csv" > "$out/scaled.csv"
mandel-dip fit "$out/lf/curve.csv" > "$out/fit.json"
mandel-dip fit "$out/scaled.csv" > "$out/scaled.json"
python3 -c 'import json, sys; a, b = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(not (b["V"] == a["V"] and b["sigma_tau_um"] == a["sigma_tau_um"] * 2.0 ** 500))' \
  "$out/fit.json" "$out/scaled.json"

# nor on the rates' unit: rates and errors times 2^-500 give the same V and
# sigma_tau_um and exactly 2^-500 times S
python3 -c 'import sys; head, *rows = open(sys.argv[1]).read().splitlines(); print(head); [print(d, *(repr(float(x) * 2.0 ** -500) for x in rest), sep=",") for d, *rest in (row.split(",") for row in rows)]' \
  "$out/lf/curve.csv" > "$out/rates.csv"
mandel-dip fit "$out/rates.csv" > "$out/rates.json"
python3 -c 'import json, sys; a, b = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(not (b["V"] == a["V"] and b["sigma_tau_um"] == a["sigma_tau_um"] and b["S"] == a["S"] * 2.0 ** -500))' \
  "$out/fit.json" "$out/rates.json"

# a curve with no counts does not converge, and the fit still exits 0
{ echo delay_um,rate_hz,err_hz; for d in -60 -30 0 30 60; do echo "$d,0,0"; done; } \
  > "$out/zeros.csv"
mandel-dip fit "$out/zeros.csv" > "$out/zeros.json"
test "$(json_key "$out/zeros.json" converged)" = False

# MC streams seeded from precomputed SeedSequence rows repeat bit for bit
mandel-dip scan configs/lab_fivefold.json --mode mc --seed 20 --out "$out/mc1"
mandel-dip scan configs/lab_fivefold.json --mode mc --seed 20 --out "$out/mc2"
cmp "$out/mc1/curve.csv" "$out/mc2/curve.csv"

# a refused scan exits 2 before the engine runs and writes nothing
rc=0
mandel-dip scan "$config" --mode mc --out "$out/refused" || rc=$?
test "$rc" -eq 2
test ! -e "$out/refused"

# a value out of its range exits 2 with an error that names its section,
# and writes nothing
refuse() {  # refuse NAME SECTION EDIT: scan the config after the Python EDIT of c
  python3 -c 'import json, sys; c = json.load(open(sys.argv[1])); exec(sys.argv[2]); json.dump(c, open(sys.argv[3], "w"))' \
    "$config" "$3" "$out/$1.json"
  rc=0
  mandel-dip scan "$out/$1.json" --out "$out/$1" 2> "$out/$1.err" || rc=$?
  test "$rc" -eq 2
  test ! -e "$out/$1"
  python3 -c 'import json, sys; sys.exit(not json.load(open(sys.argv[1]))["error"].startswith(sys.argv[2] + ": "))' \
    "$out/$1.err" "$2"
}
refuse P-1.5 'sources[1]' 'c["sources"][1]["P"] = 1.5'
refuse herald_fwhm-0 filters 'c["filters"]["herald_fwhm_nm"] = 0'
refuse fourfold config 'c["scheme"] = "fourfold"'

# a re-scan whose fit.json write fails leaves no old manifest.json
stale="$out/stale"
mandel-dip scan "$config" --out "$stale"
rm "$stale/fit.json"
mkdir -p "$stale/fit.json/block"
rc=0
mandel-dip scan "$config" --out "$stale" || rc=$?
test "$rc" -eq 2
test ! -e "$stale/manifest.json"
echo "console smoke: ok"
