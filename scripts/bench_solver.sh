#!/usr/bin/env bash
# Times the solve stage on the Fig. 10 corpus — the production blocked
# SIMD kernel against the legacy reference evaluator, serially and at
# SELDON_JOBS threads — plus a cold-vs-warm graph-cache comparison
# (bench/fig10_scaling in cache-only mode), and writes both to
# BENCH_solver.json (in the repo root, or $1 if given). Exits non-zero if
# the kernel and the legacy oracle disagree on the learned specification,
# if the kernel is not at least 2x faster serially than legacy, or if the
# warm cache run is not all-hits and faster to parse than the cold run.
#
# A third section benchmarks incremental re-learning (bench/incr_learn):
# learn a corpus cold, touch one project, and re-learn through the shard
# cache with a warm-started solve. Gated: exactly one shard may rebuild,
# the composed cold-init replay must be byte-identical to a from-scratch
# learn, the warm solve must select the same roles, and the re-learn must
# be at least 5x faster than the cold learn.
#
# A fourth section benchmarks active learning (bench/active_learn):
# withhold half the seed specification and count the oracle queries the
# uncertainty-guided loop needs to recover full-seed passive F1. Gated:
# the target F1 must be reached while querying at most half the
# candidate variables.
#
# Knobs: SELDON_PROJECTS (corpus size, default 300), SELDON_JOBS,
# SELDON_CACHE_PROJECTS (cache-comparison corpus size, default 60),
# SELDON_INCR_PROJECTS (incremental corpus size, default 300),
# SELDON_ACTIVE_PROJECTS (active-learning corpus size, default 60).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${1:-$ROOT/BENCH_solver.json}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS" \
  --target solver_kernel fig10_scaling incr_learn active_learn >/dev/null

"$ROOT/build/bench/solver_kernel" > "$OUT"

# Cache-only fig10 run: SELDON_FIG10_SWEEP=0 skips the scaling sweep, and
# fig10_scaling halves SELDON_PROJECTS' doubling, so pass the size as-is.
CACHE_JSON="$(mktemp)"
INCR_JSON="$(mktemp)"
ACTIVE_JSON="$(mktemp)"
trap 'rm -f "$CACHE_JSON" "$INCR_JSON" "$ACTIVE_JSON"' EXIT
SELDON_FIG10_SWEEP=0 SELDON_CACHE_OUT="$CACHE_JSON" \
  SELDON_PROJECTS="$(( ${SELDON_CACHE_PROJECTS:-60} / 2 ))" \
  "$ROOT/build/bench/fig10_scaling" >&2

# Incremental re-learn: touch one project, replay the other shards.
SELDON_INCR_OUT="$INCR_JSON" \
  SELDON_PROJECTS="${SELDON_INCR_PROJECTS:-300}" \
  "$ROOT/build/bench/incr_learn" >&2

# Active learning: recover withheld-seed quality from oracle queries.
SELDON_ACTIVE_OUT="$ACTIVE_JSON" \
  SELDON_PROJECTS="${SELDON_ACTIVE_PROJECTS:-60}" \
  "$ROOT/build/bench/active_learn" >&2

# Merge {"cache": ...}, {"incr": ...}, and {"active": ...} into the
# solver summary.
python3 - "$OUT" "$CACHE_JSON" "$INCR_JSON" "$ACTIVE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    summary = json.load(f)
with open(sys.argv[2]) as f:
    summary["cache"] = json.load(f)
with open(sys.argv[3]) as f:
    summary["incr"] = json.load(f)
with open(sys.argv[4]) as f:
    summary["active"] = json.load(f)
with open(sys.argv[1], "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
EOF
echo "wrote $OUT"

python3 - "$OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
if not r["byte_identical"]:
    sys.exit("FAIL: kernel and legacy oracle specs differ")
if r["serial_speedup"] < 2.0:
    sys.exit(f"FAIL: serial speedup {r['serial_speedup']:.2f}x < 2x")

# The embedded metrics snapshot must agree with the bench's own numbers:
# stage spans for the two kernel solves (serial, then parallel),
# convergence series, and the compile stats the dedup claims are based on.
m = r["metrics"]
solves = [s for s in m["spans"] if s["path"] == "session/solve"]
if len(solves) != 2:
    sys.exit(f"FAIL: expected 2 session/solve spans, got {len(solves)}")
if abs(solves[0]["duration_seconds"] - r["kernel_serial_seconds"]) > 1e-6:
    sys.exit("FAIL: kernel_serial_seconds disagrees with its span")
if m["gauges"]["solver.rows_after"] != r["rows_after_dedup"]:
    sys.exit("FAIL: solver.rows_after gauge disagrees with rows_after_dedup")
if m["series"]["solve.objective"]["count"] == 0:
    sys.exit("FAIL: no solver convergence samples in metrics snapshot")

# The graph-cache comparison: warm runs must hit every project, emit a
# byte-identical spec, and skip enough parse work to beat the cold run.
c = r["cache"]
if not c["byte_identical"]:
    sys.exit("FAIL: cached and uncached specs differ")
if c["warm_hits"] != c["projects"] or c["warm_misses"] != 0:
    sys.exit(f"FAIL: warm cache run hit {c['warm_hits']}/{c['projects']}")
if c["cold_misses"] != c["projects"]:
    sys.exit("FAIL: cold cache run was not all misses")
if c["warm_parse_seconds"] >= c["cold_parse_seconds"]:
    sys.exit(f"FAIL: warm parse {c['warm_parse_seconds']:.3f}s not faster "
             f"than cold {c['cold_parse_seconds']:.3f}s")

# The incremental re-learn: one touched project must rebuild exactly one
# shard, the composed system must reproduce the from-scratch spec byte
# for byte, the warm-started short solve must pick the same roles, and
# the end-to-end re-learn must beat the cold learn by at least 5x.
i = r["incr"]
if not i["byte_identical"]:
    sys.exit("FAIL: composed re-learn spec differs from from-scratch")
if not i["warm_roles_match"]:
    sys.exit("FAIL: warm-started solve selected different roles")
if i["shards_rebuilt"] != 1:
    sys.exit(f"FAIL: touched 1 project but {i['shards_rebuilt']} shard(s) "
             "rebuilt")
if i["shards_hit"] != i["projects"] - 1:
    sys.exit(f"FAIL: expected {i['projects'] - 1} shard hits, got "
             f"{i['shards_hit']}")
if i["incr_speedup"] < 5.0:
    sys.exit(f"FAIL: incremental re-learn {i['incr_speedup']:.2f}x < 5x")

# Active learning: from half the seed, the loop must recover full-seed
# passive F1 while querying at most half the candidate variables.
a = r["active"]
if not a["reached_target"]:
    sys.exit(f"FAIL: active F1 {a['active_f1']:.4f} never reached the "
             f"passive target {a['passive_f1']:.4f}")
if a["active_f1"] + 1e-9 < a["passive_f1"]:
    sys.exit(f"FAIL: active F1 {a['active_f1']:.4f} below passive "
             f"{a['passive_f1']:.4f}")
if a["query_fraction"] > 0.5:
    sys.exit(f"FAIL: active queried {a['query_fraction']:.0%} of "
             f"candidates (> 50%)")
print(f"OK: {r['serial_speedup']:.2f}x serial speedup over legacy "
      f"({r['simd_tier']} tier), "
      f"{r['dedup_ratio']:.2f}x dedup, specs byte-identical, "
      f"metrics snapshot consistent; cache warm parse "
      f"{c['warm_parse_speedup']:.2f}x faster, {c['warm_hits']} hit(s); "
      f"incremental re-learn {i['incr_speedup']:.2f}x faster than cold "
      f"({i['shards_hit']}/{i['projects']} shards replayed); "
      f"active learning reached F1 {a['active_f1']:.4f} with "
      f"{a['queries']} label(s) ({a['query_fraction']:.0%} of "
      f"{a['candidates']} candidates)")
EOF
