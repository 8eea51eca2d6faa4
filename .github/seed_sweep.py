#!/usr/bin/env python3
"""The seed ensemble as a ratchet.

Runs `scenarios --quick --jobs 1 --seed S --only NAME` for every registered
scenario and S = 1..=30, two processes at a time, and
compares the (scenario, seed) pairs that fail with the ones listed in
BENCH_seeds.json. Exits 1 on a failing pair the file does not list (new) and
on a listed pair that now passes (stale). The file records failures; it
never excuses them: a change that flips a pair edits the file in the same
commit. Prints a markdown summary (pass counts, and the median and range of
each numeric headline over the passing runs) to stdout.

    python3 .github/seed_sweep.py [--bin target/release/scenarios] [--update]

--update rewrites the file from this run instead of comparing. An entry whose
scenario is no longer registered counts as stale.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = range(1, 31)
JOBS = 2
FILE = Path("BENCH_seeds.json")


def run_one(binary, name, seed):
    """Run one (scenario, seed); return (panic line or None, headlines)."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [binary, "--quick", "--jobs", "1", "--seed", str(seed),
               "--only", name, "--out", out]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.splitlines()
            for i, line in enumerate(lines):
                if "panicked at" in line and i + 1 < len(lines):
                    return lines[i + 1].strip(), []
            return f"exit code {proc.returncode}", []
        report = json.loads((Path(out) / "BENCH_scenarios.json").read_text())
        return None, [h for s in report["scenarios"] for h in s["headlines"]]


def write_file(failing):
    entries = [json.dumps({"scenario": n, "seed": s, "panic": failing[(n, s)]},
                          ensure_ascii=False)
               for n, s in sorted(failing)]
    body = ",\n    ".join(entries)
    FILE.write_text(
        "{\n"
        '  "schema": "dynatune-seed-sweep/v1",\n'
        '  "command": "scenarios --quick --jobs 1 --seed S --only NAME",\n'
        f'  "seeds": [{SEEDS[0]}, {SEEDS[-1]}],\n'
        f'  "failing": [\n    {body}\n  ]\n'
        "}\n", encoding="utf-8")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", default="target/release/scenarios")
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args()

    listing = json.loads(subprocess.check_output([args.bin, "--list", "--json"], text=True))
    names = [s["name"] for s in listing["scenarios"]]

    pairs = [(n, s) for n in names for s in SEEDS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = dict(zip(pairs, pool.map(lambda p: run_one(args.bin, *p), pairs)))
    failing = {p: r[0] for p, r in results.items() if r[0] is not None}

    print(f"### Seed sweep: `scenarios --quick --seed S --only NAME`, "
          f"S = {SEEDS[0]}..={SEEDS[-1]}")
    print("| scenario | passed | failing seeds | headline: median [min, max] over passing runs |")
    print("|---|---:|---|---|")
    for n in names:
        bad = [s for s in SEEDS if (n, s) in failing]
        values = {}
        for s in SEEDS:
            for h in results[(n, s)][1]:
                m = re.match(r"-?\d+(\.\d+)?", h["measured"])
                if m:
                    values.setdefault(h["label"], []).append(float(m.group()))
        heads = "; ".join(f"{label}: {statistics.median(v):g} [{min(v):g}, {max(v):g}]"
                          for label, v in values.items())
        print(f"| {n} | {len(SEEDS) - len(bad)}/{len(SEEDS)} | "
              f"{' '.join(map(str, bad)) or '-'} | {heads or '-'} |")

    if args.update:
        write_file(failing)
        print(f"wrote {FILE}: {len(failing)} failing pairs", file=sys.stderr)
        return 0

    listed = {(e["scenario"], e["seed"]): e["panic"]
              for e in json.loads(FILE.read_text(encoding="utf-8"))["failing"]}
    new = sorted(set(failing) - set(listed))
    stale = sorted(set(listed) - set(failing))
    for n, s in new:
        print(f"NEW failing pair: {n} seed {s}: {failing[(n, s)]}", file=sys.stderr)
    for n, s in stale:
        print(f"STALE entry (passes, or its scenario is gone): {n} seed {s}: {listed[(n, s)]}", file=sys.stderr)
    for p in sorted(set(failing) & set(listed)):
        if failing[p] != listed[p]:
            print(f"note: {p[0]} seed {p[1]} now fails with: {failing[p]}", file=sys.stderr)
    print(f"\n{len(failing)} failing pairs of {len(pairs)}; "
          f"{len(new)} new, {len(stale)} stale against {FILE}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
