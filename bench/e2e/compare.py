#!/usr/bin/env python3
"""Checks and compares results of the end-to-end benchmark (stdlib only).

    compare.py check RESULT...
        Each result (a file hfta_bench --json wrote, or a directory of them)
        must carry every metric BENCHMARK.json declares for its kind of run,
        with the declared unit, and no failed operation.

    compare.py compare BASE NEW
        BASE and NEW are sets of results (files or directories), e.g. runs
        of two commits. Per workload and end-to-end metric it prints each
        side's median with its quartiles and one verdict: ok, regressed
        (worse than the declared bound) or unresolved (a side's spread is
        wider than the bound). Per-layer medians follow, then whether counts
        and loss.final repeat exactly between runs of the same seed. Exits 1
        when any metric regressed.

    compare.py smoke HFTA_BENCH OUT_DIR
        Runs `HFTA_BENCH --smoke`, then checks its results and that every
        trace file it wrote parses as Chrome trace-event JSON.
"""

import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(paths):
    """Every result in the given files and directories (a file may hold one
    result or a list of them)."""
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    results = []
    for path in files:
        with open(path) as f:
            data = json.load(f)
        for r in data if isinstance(data, list) else [data]:
            if isinstance(r, dict) and r.get("schema") == "hfta-e2e-result/1":
                results.append(r)
    return results


def check(results, spec):
    """Problems found in `results`, as readable lines (empty = all good)."""
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    if not results:
        problems.append("no results")
    for r in results:
        where = f"{r['workload']} ({'traced' if r['traced'] else 'untraced'}, seed {r['settings']['seed']})"
        if r["workload"] not in workloads:
            problems.append(f"{where}: workload not declared")
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            problems.append(f"{where}: {r['failed']} of {r['attempted']} operations failed")
        declared = spec["per_layer" if r["traced"] else "end_to_end"]
        names = {m["name"] for m in declared}
        for m in declared:
            got = r["metrics"].get(m["name"])
            if got is None:
                # A forward-kind metric is absent where the model has no
                # layer of that kind.
                if not (m["name"].startswith("fwd.") and m["name"].endswith("_ms")):
                    problems.append(f"{where}: missing {m['name']}")
            elif got["unit"] != m["unit"]:
                problems.append(f"{where}: {m['name']} in {got['unit']}, declared {m['unit']}")
        for name in sorted(set(r["metrics"]) - names):
            problems.append(f"{where}: {name} is not declared")
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(base, new, metric):
    """ok / regressed / unresolved for one metric's two sets of run values."""
    b25, bmed, b75 = quartiles(base)
    n25, nmed, n75 = quartiles(new)
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    worse = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    spread = max((b75 - b25) / bmed if bmed else 0.0, (n75 - n25) / nmed if nmed else 0.0)
    if spread > bound:
        every_new_better = (max(new) < min(base)) if lower else (min(new) > max(base))
        return ("ok" if every_new_better else "unresolved"), worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def fmt(values):
    q25, med, q75 = quartiles(values)
    return f"{med:12.5g} [{q25:.5g}, {q75:.5g}]"


def by_workload(results, traced):
    out = {}
    for r in results:
        if r["traced"] == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def exact_repeats(results, spec):
    """Lines naming count metrics and loss.final values that differ between
    runs of one workload and seed (they must repeat exactly)."""
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    seen, lines = {}, []
    for r in results:
        key = (r["workload"], r["traced"], r["settings"]["seed"])
        if r["traced"]:
            value = {n: v["value"] for n, v in r["metrics"].items() if n in counts}
        else:
            value = r["report"].get("loss.final")
        if key in seen and seen[key] != value:
            lines.append(f"{key[0]} seed {key[2]}: {'counts' if key[1] else 'loss.final'} differ between runs")
        seen.setdefault(key, value)
    return lines


def compare(base, new, spec):
    regressed = False
    base_e2e, new_e2e = by_workload(base, False), by_workload(new, False)
    print(f"{'workload':20} {'metric':14} {'base median [p25, p75]':>36} "
          f"{'new median [p25, p75]':>36} {'change':>8}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base_e2e or name not in new_e2e:
            print(f"{name:20} (missing on {'base' if name not in base_e2e else 'new'} side)")
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base_e2e[name] if m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]]["value"] for r in new_e2e[name] if m["name"] in r["metrics"]]
            if not b or not n:
                print(f"{name:20} {m['name']:14} missing")
                continue
            v, worse, spread = verdict(b, n, m)
            regressed |= v == "regressed"
            print(f"{name:20} {m['name']:14} {fmt(b):>36} {fmt(n):>36} "
                  f"{-worse:+8.1%}  {v} (bound {m['bound']:.0%}, spread {spread:.1%})")
    base_pl, new_pl = by_workload(base, True), by_workload(new, True)
    if base_pl and new_pl:
        print("\nper-layer medians (no bound):")
        for w in spec["workloads"]:
            name = w["name"]
            if name not in base_pl or name not in new_pl:
                continue
            for m in spec["per_layer"]:
                b = [r["metrics"].get(m["name"], {"value": 0.0})["value"] for r in base_pl[name]]
                n = [r["metrics"].get(m["name"], {"value": 0.0})["value"] for r in new_pl[name]]
                if any(b) or any(n):
                    print(f"{name:20} {m['name']:30} {statistics.median(b):12.5g} "
                          f"{statistics.median(n):12.5g} {m['unit']}")
    lines = exact_repeats(base + new, spec)
    print("\nexact repeats (counts, loss.final):", "all equal" if not lines else "")
    for line in lines:
        print("  " + line)
    return 1 if regressed else 0


def smoke(binary, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for old in glob.glob(os.path.join(out_dir, "*.json")):
        os.remove(old)
    out = os.path.join(out_dir, "smoke.json")
    done = subprocess.run([binary, "--smoke", "--trace", out_dir, "--json", out],
                          timeout=900, check=False)
    problems = [] if done.returncode == 0 else [f"hfta_bench --smoke exited {done.returncode}"]
    results = load_results([out]) if os.path.exists(out) else []
    problems += check(results, load_spec())
    names = {w["name"] for w in load_spec()["workloads"]}
    for name in sorted(names):
        path = os.path.join(out_dir, f"{name}.trace.json")
        try:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            if not events or not all({"name", "ph", "ts", "dur"} <= set(e) for e in events):
                problems.append(f"{path}: no complete trace events")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"{path}: {e}")
    for p in problems:
        print(p)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "check":
        problems = check(load_results(argv[1:]), load_spec())
        for p in problems:
            print(p)
        print("check:", "FAILED" if problems else "ok")
        return 1 if problems else 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(load_results([argv[1]]), load_results([argv[2]]), load_spec())
    if len(argv) == 3 and argv[0] == "smoke":
        return smoke(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
