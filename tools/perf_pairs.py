#!/usr/bin/env python3
"""Interleaved perfbench pairs of two checkouts, with host steal recorded.

    python3 tools/perf_pairs.py --parent DIR --head DIR --workload W \\
        --pairs K [--seconds S] [--seed N] [--log FILE]
    python3 tools/perf_pairs.py --self-test

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each checkout, alternating which checkout goes first.
Around every run the tool reads /proc/stat and records the run's steal
share: the growth of the steal column over the growth of all columns.

A run is valid when it exits 0; failed when any operation failed, its
witness counts differ from an earlier run of the same sources (both are
wrong answers), or no result line came back; and invalid when it exits
non-zero otherwise (perfbench's validity rules: too few samples, a late
load generator, ...).  The lines that explain a run that is not valid —
perfbench's INVALID lines, its witness MISMATCH line, and its error_rate
line when it names a first error — are kept as the run's reasons.

The summary covers every end-to-end metric of BENCHMARK.json over the pairs
whose two runs are both valid: parent and head medians, the parent's
interquartile range, head / parent, and the pairs head won by the metric's
`better` direction.  Then each side's invalid and failed runs are listed
with their steal shares.  The tool reads perfbench/ and BENCHMARK.json and
changes neither.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_cpu_jiffies(path="/proc/stat"):
    """The aggregate `cpu` line of /proc/stat as a list of ints."""
    with open(path) as f:
        for line in f:
            if line.startswith("cpu "):
                return [int(x) for x in line.split()[1:]]
    raise RuntimeError("no cpu line in " + path)


def steal_share(before, after):
    """Steal jiffies over all jiffies between two /proc/stat readings (the
    eighth column is steal)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def is_mismatch(line):
    return line.startswith("witness MISMATCH")


def classify(code, result, reasons=()):
    if result is None:
        return "failed"
    if result.get("failed", 0) > 0 or any(map(is_mismatch, reasons)):
        return "failed"
    return "valid" if code == 0 else "invalid"


def is_reason(line):
    return (line.startswith("INVALID") or is_mismatch(line) or
            (line.startswith("error_rate") and "first error:" in line))


def parse_output(stdout):
    """(result object or None, reason lines, witness counts) from a
    perfbench stdout."""
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    reasons = [line for line in lines if is_reason(line)]
    witnesses = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "witness" and parts[2] == "=":
            witnesses[parts[1]] = int(parts[3])
    return result, reasons, witnesses


def run_once(checkout, workload, seed, seconds):
    before = read_cpu_jiffies()
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    after = read_cpu_jiffies()
    result, reasons, witnesses = parse_output(proc.stdout)
    return {
        "code": proc.returncode,
        "steal": steal_share(before, after),
        "wall_s": time.time() - start,
        "result": result,
        "reasons": reasons,
        "witnesses": witnesses,
        "class": classify(proc.returncode, result, reasons),
    }


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def metric_value(run, name):
    return run["result"]["metrics"][name]["value"]


def summarize(pairs, spec):
    """Rows per end-to-end metric over the pairs where both runs are valid."""
    both = [p for p in pairs
            if p["parent"]["class"] == "valid" and p["head"]["class"] == "valid"]
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        usable = [p for p in both
                  if name in p["parent"]["result"]["metrics"]
                  and name in p["head"]["result"]["metrics"]]
        if not usable:
            continue
        parent = [metric_value(p["parent"], name) for p in usable]
        head = [metric_value(p["head"], name) for p in usable]
        q1, parent_med, q3 = quartiles(parent)
        head_med = statistics.median(head)
        lower = metric["better"] == "lower"
        won = sum(1 for a, b in zip(parent, head)
                  if (b < a if lower else b > a))
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": parent_med,
            "head_median": head_med,
            "parent_iqr": q3 - q1,
            "ratio": head_med / parent_med if parent_med else float("nan"),
            "won": won,
            "pairs": len(usable),
        })
    return rows, len(both)


def witness_sets(pairs):
    """Each side's distinct witness counts, in order of first appearance
    (one set per side when every run agrees)."""
    sets = {"parent": [], "head": []}
    for pair in pairs:
        for side, found in sets.items():
            w = pair[side]["witnesses"]
            if w not in found:
                found.append(w)
    return sets


def report(pairs, spec, out=sys.stdout):
    rows, n_both = summarize(pairs, spec)
    print("pairs with both runs valid: %d of %d" % (n_both, len(pairs)),
          file=out)
    print("%-18s %14s %14s %12s %8s %8s" %
          ("metric", "parent p50", "head p50", "parent IQR", "head/par",
           "won"), file=out)
    for r in rows:
        print("%-18s %14.4f %14.4f %12.4f %8.3f %5d/%-2d (%s is better)" %
              (r["metric"], r["parent_median"], r["head_median"],
               r["parent_iqr"], r["ratio"], r["won"], r["pairs"],
               r["better"]), file=out)
    for side, sets in witness_sets(pairs).items():
        print("%s witness counts: %s" % (
            side, " | ".join(" ".join("%s=%d" % kv for kv in sorted(w.items()))
                             for w in sets)), file=out)
    for side in ("parent", "head"):
        bad = [(i, p[side]) for i, p in enumerate(pairs)
               if p[side]["class"] != "valid"]
        print("%s: %d invalid or failed run(s)" % (side, len(bad)), file=out)
        for i, run in bad:
            failed = run["result"]["failed"] if run["result"] else "?"
            print("  pair %d: %s, exit %d, failed %s, steal share %.3f %s" %
                  (i, run["class"], run["code"], failed, run["steal"],
                   " ".join(run["reasons"])), file=out)
    return rows


def self_test():
    """Checks the statistics on canned result lines; runs no benchmark."""
    spec = {"end_to_end": [
        {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower"},
        {"name": "throughput_rps", "unit": "1/s", "better": "higher"},
    ]}

    def line(cpu, rps, code=0, failed=0, text=None):
        result = {"correct": code == 0, "attempted": 10, "failed": failed,
                  "metrics": {"cpu_ms_per_op": {"value": cpu, "unit": "ms"},
                              "throughput_rps": {"value": rps, "unit": "1/s"}}}
        if text is None:
            text = "stamp: ...\nINVALID: late generator\n" if code else "x\n"
        parsed, reasons, witnesses = parse_output(
            text + json.dumps(result) + "\n")
        return {"code": code, "steal": 0.02, "result": parsed,
                "reasons": reasons, "witnesses": witnesses,
                "class": classify(code, parsed, reasons)}

    parent_cpu = [10.0, 12.0, 11.0, 13.0, 9.0]
    head_cpu = [5.0, 6.0, 5.5, 14.0, 4.0]
    pairs = [{"parent": line(p, 100.0 + i), "head": line(h, 101.0 + i)}
             for i, (p, h) in enumerate(zip(parent_cpu, head_cpu))]
    # A pair with an invalid head run does not count; a failed run is
    # reported as failed.
    pairs.append({"parent": line(1.0, 1.0), "head": line(1.0, 1.0, code=1)})
    pairs.append({"parent": line(1.0, 1.0, code=1, failed=2),
                  "head": line(1.0, 1.0)})
    assert pairs[-2]["head"]["class"] == "invalid"
    assert pairs[-2]["head"]["reasons"] == ["INVALID: late generator"]
    assert pairs[-1]["parent"]["class"] == "failed"
    assert classify(0, None) == "failed"
    # A changed witness count is a wrong answer, not a host problem: exit 1
    # with no failed operation still classifies as failed, and the
    # MISMATCH line and a first-error line stay among the reasons.
    mismatch = ("error_rate=0.000000 (0 failed of 10 attempted)\n"
                "witness solve.cycles = 7\n"
                "witness MISMATCH against w.txt (an earlier run of these "
                "sources)\n")
    pairs.append({"parent": line(1.0, 1.0),
                  "head": line(1.0, 1.0, code=1, text=mismatch)})
    assert pairs[-1]["head"]["class"] == "failed"
    assert pairs[-1]["head"]["reasons"] == [
        "witness MISMATCH against w.txt (an earlier run of these sources)"]
    assert pairs[-1]["head"]["witnesses"] == {"solve.cycles": 7}
    assert witness_sets(pairs) == {"parent": [{}], "head": [{},
                                                            {"solve.cycles": 7}]}
    first_error = ("error_rate=0.100000 (1 failed of 10 attempted); first "
                   "error: reply 3 differs\n")
    failed_run = line(1.0, 1.0, code=1, failed=1, text=first_error)
    assert failed_run["class"] == "failed"
    assert failed_run["reasons"] == [first_error.strip()]
    assert line(1.0, 1.0, text="error_rate=0.000000 (0 failed of 10 "
                "attempted)\n")["reasons"] == []
    assert abs(steal_share([10, 0, 0, 0, 0, 0, 0, 0], [20, 0, 0, 0, 0, 0, 0, 10])
               - 0.5) < 1e-12

    rows, n_both = summarize(pairs, spec)
    assert n_both == 5, n_both
    cpu = rows[0]
    assert cpu["metric"] == "cpu_ms_per_op"
    assert cpu["parent_median"] == 11.0
    assert cpu["head_median"] == 5.5
    assert cpu["parent_iqr"] == 12.0 - 10.0  # inclusive quartiles
    assert abs(cpu["ratio"] - 0.5) < 1e-12
    assert cpu["won"] == 4 and cpu["pairs"] == 5
    rps = rows[1]
    assert rps["won"] == 5  # head is 1/s higher in every pair
    with open(os.devnull, "w") as sink:
        report(pairs, spec, out=sink)
    # The real /proc/stat parses (when there is one).
    if os.path.exists("/proc/stat"):
        assert len(read_cpu_jiffies()) >= 8
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f)["end_to_end"]
    print("perf_pairs self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--head")
    parser.add_argument("--workload", choices=("sessions", "mixed", "solve"))
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--log", help="write every run as JSON lines here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.head and args.workload and args.pairs):
        parser.error("--parent, --head, --workload and --pairs are required")
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        spec = json.load(f)

    pairs = []
    log = open(args.log, "a") if args.log else None
    for i in range(args.pairs):
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        pair = {}
        for side in order:
            checkout = args.parent if side == "parent" else args.head
            run = run_once(checkout, args.workload, args.seed, args.seconds)
            pair[side] = run
            metrics = run["result"]["metrics"] if run["result"] else {}
            print("pair %d %-6s %-7s exit %d steal %.3f %s" % (
                i, side, run["class"], run["code"], run["steal"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in metrics.items())), flush=True)
            if log:
                log.write(json.dumps({"pair": i, "side": side,
                                      "workload": args.workload, **run}) + "\n")
                log.flush()
        pairs.append(pair)
    if log:
        log.close()
    report(pairs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
