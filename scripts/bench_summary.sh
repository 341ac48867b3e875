#!/usr/bin/env bash
# Tabulates every BENCH_*.json trajectory at the repo root. All of them share
# one schema (shasta_bench::trajectory::Entry), so one printer serves them
# all: per run its config, criteria, walls and other scalars, then the latest
# run's detail rows as k=v. A new trajectory bin needs nothing here.
# Read-only; uses only the Python standard library.
#
# Usage: scripts/bench_summary.sh          (from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
  echo "no BENCH_*.json trajectories at the repo root; run a trajectory bin first"
  echo "(critical_path, fault_sweep, topology_breakdown, ...)"
  exit 0
fi

python3 - "${files[@]}" <<'PY'
import json
import sys


def kv(obj, prefix=""):
    """The scalars of a dict as 'k=v ...'; nested dicts get dotted keys."""
    parts = []
    for key, val in obj.items():
        if isinstance(val, dict):
            parts.append(kv(val, f"{prefix}{key}."))
        elif not isinstance(val, list):
            parts.append(f"{prefix}{key}={val if isinstance(val, str) else json.dumps(val)}")
    return " ".join(p for p in parts if p)


def detail(name, val, indent):
    """One detail member: a dict is one k=v row, a list one row per element;
    lists nested in a row are printed beneath it."""
    for row in val if isinstance(val, list) else [val]:
        if not isinstance(row, dict):
            print(f"{indent}{name}: {row}")
            continue
        print(f"{indent}{name}: {kv(row)}")
        for key, sub in row.items():
            if isinstance(sub, list):
                detail(key, sub, indent + "  ")


for path in sys.argv[1:]:
    print(f"\n== {path} " + "=" * max(0, 66 - len(path)))
    try:
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"  not a trajectory: {err!r}")
        continue
    for i, run in enumerate(runs, 1):
        print(f"  run #{i}: {kv(run.get('config', {}))}")
        scalars = {k: v for k, v in run.items() if not isinstance(v, (dict, list))}
        groups = {"criteria": run.get("criteria"), "walls": run.get("walls"), "scalars": scalars}
        for name, obj in groups.items():
            if obj:
                print(f"    {name}: {kv(obj)}")
    print("  latest run:")
    for key, val in runs[-1].items():
        if key not in ("config", "criteria", "walls") and isinstance(val, (dict, list)):
            detail(key, val, "    ")
print()
PY
