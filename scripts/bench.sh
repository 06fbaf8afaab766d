#!/bin/sh
# bench.sh — run the Benchmark* suite and record the perf trajectory.
#
# Runs every benchmark five times (-count 5) with -benchmem at
# GOMAXPROCS 1 (go test -cpu 1, so B/op and allocs/op do not depend on
# the host's vCPU count), one package at a time (-p 1, so no two
# benchmark binaries share the host), and writes BENCH_<date>.json in the
# repo root: the host fingerprint (CPU model, vCPU count, go version),
# the benchtime and, per benchmark, the median of the five runs' ns/op,
# B/op and allocs/op. On a shared host one run's ns/op can stray by a
# third; the median of five does not follow a single stray run.
#
# The regression gate then fails (exit 1) when a benchmark present in
# both snapshots regressed by more than the threshold:
#   - ns/op against the newest earlier snapshot with the same host
#     fingerprint and benchtime; with none, ns/op is not gated, since
#     timings from other hardware (or one-iteration timings against
#     averaged ones) say nothing about this change;
#   - B/op and allocs/op against the newest earlier snapshot of any host.
#     A benchmark whose baseline is allocation-free fails on ANY new
#     allocation, threshold aside.
# The fresh snapshot is written either way, so a failing run still
# records the trajectory.
#
# Environment:
#   BENCHTIME       go test -benchtime value (default 1s; use e.g. 1x
#                   for a quick single-iteration pass)
#   BENCH           benchmark name regex (default '.')
#   BENCH_PCT       regression threshold in percent (default 15)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
BENCH="${BENCH:-.}"
PCT="${BENCH_PCT:-15}"
today="BENCH_$(date +%F).json"

# timing prints what decides whether a snapshot's ns/op compare with
# this run's: its host fingerprint and benchtime (empty in snapshots
# recorded before either was written).
timing() { sed -n -e 's/^  "host": \(.*\),$/\1/p' -e 's/^  "benchtime": "\(.*\)",$/\1/p' "$1"; }

cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
[ -n "$cpu" ] || cpu=$(uname -m)
host=$(printf '{"cpu": "%s", "vcpus": %s, "go": "%s"}' \
	"$(printf '%s' "$cpu" | tr -d '"\\')" "$(getconf _NPROCESSORS_ONLN)" "$(go env GOVERSION)")
mine=$(printf '%s\n%s' "$host" "$BENCHTIME")

# The newest earlier snapshot of any host, and of this host and benchtime.
prev=""
prevHost=""
for f in $(ls BENCH_*.json 2>/dev/null | sort); do
	[ "$f" = "$today" ] && continue
	prev="$f"
	if [ "$(timing "$f")" = "$mine" ]; then prevHost="$f"; fi
done

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "running benchmarks (benchtime $BENCHTIME, -cpu 1)..." >&2
go test -p 1 -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count 5 -cpu 1 ./... | tee "$raw" >&2

# Benchmark output lines: name, iterations, then value/unit pairs
# (ns/op, B/op, allocs/op, plus any custom metrics, which we skip). Each
# benchmark prints one line per run; the snapshot keeps each metric's
# median, benchmarks in order of first appearance.
awk -v host="$host" -v benchtime="$BENCHTIME" '
function median(key, m,   i, j, v, t) {
	for (i = 1; i <= m; i++) v[i] = runs[key, i]
	for (i = 2; i <= m; i++)
		for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	return m % 2 ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
}
/^Benchmark/ {
	ns = b = al = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		if ($(i+1) == "ns/op") ns = $i
		else if ($(i+1) == "B/op") b = $i
		else if ($(i+1) == "allocs/op") al = $i
	}
	if (ns == "") next
	if (!($1 in count)) names[++n] = $1
	m = ++count[$1]
	runs[$1 " ns", m] = ns
	runs[$1 " b", m] = (b == "" ? 0 : b)
	runs[$1 " al", m] = (al == "" ? 0 : al)
}
END {
	print "{"
	print "  \"host\": " host ","
	print "  \"benchtime\": \"" benchtime "\","
	print "  \"benchmarks\": {"
	for (i = 1; i <= n; i++) {
		k = names[i]; m = count[k]
		printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
			k, median(k " ns", m), median(k " b", m), median(k " al", m), (i < n ? "," : "")
	}
	print "  }"
	print "}"
}
' "$raw" > "$today"
echo "wrote $today (host $host)" >&2

if [ -z "$prev" ]; then
	echo "no previous snapshot; $today is the baseline." >&2
	exit 0
fi

# gate BASELINE METRICS: fail each benchmark of today's snapshot whose
# METRICS (space-separated keys) regressed against BASELINE, printing
# every ns/op delta on the way.
gate() {
	echo ""
	echo "regression gate vs $1 (threshold $PCT%, metrics $2):"
	awk -F'"' -v pct="$PCT" -v metrics="$2" '
	function metric(line, key,   v) {
		v = line
		if (!sub(".*\"" key "\": ", "", v)) return ""
		sub(/[,}].*/, "", v)
		return v
	}
	function fail(name, key, old, new, why) {
		printf "  FAIL %-50s %s %14s -> %14s  (%s)\n", name, key, old, new, why
		bad++
	}
	/ns_op/ {
		name = $2
		if (FILENAME == ARGV[1]) {
			base[name] = $0
			next
		}
		if (!(name in base)) next
		nk = split(metrics, keys, " ")
		for (i = 1; i <= nk; i++) {
			k = keys[i]
			old = metric(base[name], k)
			new = metric($0, k)
			if (old == "" || new == "") continue
			if (old + 0 == 0) {
				# A percentage gate cannot price a zero baseline, but
				# a benchmark recorded allocation-free must stay so —
				# that is the hot-path invariant the smoke run guards.
				if (k != "ns_op" && new + 0 > 0) fail(name, k, old, new, "was allocation-free")
				continue
			}
			delta = (new - old) / old * 100
			if (k == "ns_op") printf "  %-55s %14s -> %14s  (%+.1f%%)\n", name, old, new, delta
			# Sub-100ns/op benchmarks sit at timer resolution; a
			# relative gate there measures noise, not regressions.
			if (k == "ns_op" && old + 0 < 100) continue
			if (delta > pct + 0) fail(name, k, old, new, sprintf("+%.1f%% > %s%%", delta, pct))
		}
	}
	END {
		if (bad) { printf "  %d regression(s)\n", bad; exit 1 }
		print "  clean"
	}
	' "$1" "$today"
}

status=0
if [ -n "$prevHost" ]; then
	gate "$prevHost" "ns_op" || status=1
else
	echo ""
	echo "no earlier snapshot from this host at benchtime $BENCHTIME: ns/op is not gated."
fi
gate "$prev" "b_op allocs_op" || status=1
exit $status
