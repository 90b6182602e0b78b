#!/usr/bin/env python3
"""Build and run the ivdb benchmark; compare two series of runs.

Run from the root of an ivdb checkout:

  python3 perfbench/run.py --workload escrow-write --seed 1 --seconds 15 --trace 0
      Build perfbench/main.exe with dune and run one workload. The last
      line of standard output is the JSON result.
  python3 perfbench/run.py series OUT.jsonl [--runs N] [--seed S] [--workload W ...] [--holdout]
      Append N untraced runs per workload (seeds S, S+1, ...; with
      --holdout, N runs of the hold-out seed) to OUT.jsonl.
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
      Pair runs by workload and seed and give a verdict per end-to-end
      metric, with the directions and bounds in BENCHMARK.json.
  python3 perfbench/run.py smoke
      Every workload at 1% size, twice on one seed, traced and untraced:
      fails on a failed check, a metric missing from the output or from
      BENCHMARK.json, or any tick-clock difference between the two runs.
  python3 perfbench/run.py baseline OUT.json
      Five runs per workload at seed 1, summarized as medians and
      quartiles, plus one traced run per workload.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")

# A seed kept out of every run made while a change is written; its
# claim is then checked once on this seed with `series --holdout`.
HOLDOUT_SEED = 7919


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an ivdb checkout (dune-project and lib/ not found)")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    code = subprocess.call(
        dune + ["build", "--root", ".", "./perfbench/main.exe"], stdout=sys.stderr
    )
    if code != 0:
        fail("build failed")


def run_once(args):
    """Run the built benchmark; return (exit code, result dict or None, stdout)."""
    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def workload_names():
    return [w["name"] for w in spec()["workloads"]]


# --- series and compare -------------------------------------------------------


def series(argv):
    out, runs, seed, names, holdout = None, 10, 1, [], False
    it = iter(argv)
    for a in it:
        if a == "--runs":
            runs = int(next(it))
        elif a == "--seed":
            seed = int(next(it))
        elif a == "--workload":
            names.append(next(it))
        elif a == "--holdout":
            holdout = True
        elif out is None:
            out = a
        else:
            fail("series: unexpected argument " + a)
    if out is None:
        fail("series: missing output file")
    seeds = [HOLDOUT_SEED] * runs if holdout else list(range(seed, seed + runs))
    if not holdout and HOLDOUT_SEED in seeds:
        fail("series: seed %d is the hold-out seed; use --holdout" % HOLDOUT_SEED)
    seconds = spec()["run_seconds"]
    build()
    for s in seeds:
        for w in names or workload_names():
            code, result, _ = run_once(bench_args(w, s, seconds, 0))
            if code != 0 or result is None or not result["correct"]:
                fail("run failed: %s seed %d" % (w, s))
            with open(out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": s, "result": result}) + "\n")
            print("%s seed %d done" % (w, s), file=sys.stderr)


def load_series(path):
    """{workload: {(seed, repeat): result}}; repeats of a seed count up
    from 0 in file order, so the n-th runs of a seed pair up."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                by_key = runs.setdefault(r["workload"], {})
                repeat = sum(1 for s, _ in by_key if s == r["seed"])
                by_key[(r["seed"], repeat)] = r["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, better, bound):
    """The sign-test rule over (parent, change) pairs run on the same
    inputs. Each pair gives the change's relative gain, positive when
    better, so tick-clock metrics, exact per seed, are judged without
    the spread between seeds. Improved: the change wins nine pairs in
    ten and its median gain exceeds the parent's own spread. Regressed:
    the median gain is a loss beyond the bound. Unresolved: the gains
    spread wider than the bound and not every pair is a win."""
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) / abs(p) for p, c in pairs]
    wins = sum(1 for g in gains if g > 0)
    p1, pm, p3 = quartiles([p for p, _ in pairs])
    g1, gm, g3 = quartiles(gains)
    if wins >= 0.9 * len(pairs) and gm > (p3 - p1) / abs(pm):
        v = "improved"
    elif gm < -bound:
        v = "regressed"
    elif g3 - g1 > bound and wins < len(pairs):
        v = "unresolved"
    else:
        v = "within bound"
    return wins, gm, v


def compare(argv):
    if len(argv) != 2:
        fail("compare PARENT.jsonl CHANGE.jsonl")
    parent, change = load_series(argv[0]), load_series(argv[1])
    worst = "within bound"
    row = "%-13s %-16s %26s %26s %6s %8s  %s"
    print(row % ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
                 "won", "gain", "verdict"))
    for w in sorted(set(parent) & set(change)):
        keys = sorted(set(parent[w]) & set(change[w]))
        # a gain does not count when more transactions fail
        more_failed = [k for k in keys if change[w][k]["failed"] > parent[w][k]["failed"]]
        if more_failed:
            print("%s: the change failed more transactions on seeds %s"
                  % (w, sorted({s for s, _ in more_failed})))
        for m in spec()["end_to_end"]:
            name = m["name"]
            pairs = [(parent[w][k]["metrics"][name]["value"],
                      change[w][k]["metrics"][name]["value"]) for k in keys]
            wins, gain, v = verdict(pairs, m["better"], m["bound"])
            if v == "improved" and more_failed:
                v = "unresolved"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print(row % (w, name, fmt(quartiles([p for p, _ in pairs])),
                         fmt(quartiles([c for _, c in pairs])),
                         "%d/%d" % (wins, len(pairs)), "%+.2f%%" % (100 * gain + 0.0), v))
            if v == "regressed" or (v == "unresolved" and worst != "regressed"):
                worst = v
    print("overall: " + worst)
    sys.exit(1 if worst == "regressed" else 0)


# --- smoke ----------------------------------------------------------------------

TICK_UNITS = ("ticks", "txn/kticks")


def tick_fields(path):
    out = []
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            out.append({k: v for k, v in r.items()
                        if not k.startswith("w") and k != "self_ns"})
    return out


def smoke(argv):
    build()
    bench = spec()
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    problems = []
    for w in workload_names():
        for trace in (0, 1):
            runs = []
            for k in ("a", "b"):
                trace_out = os.path.join(out_dir, "smoke-%s-%s.jsonl" % (w, k))
                code, result, stdout = run_once(
                    bench_args(w, 1, 0, trace)
                    + ["--scale", "0.01", "--trace-out", trace_out])
                if code != 0 or result is None or not result["correct"]:
                    problems.append("%s trace=%d: failed check\n%s" % (w, trace, stdout))
                    break
                runs.append((result, trace_out))
            if len(runs) < 2:
                continue
            (a, ta), (b, tb) = runs
            names = set(a["metrics"])
            if names != expected[trace]:
                problems.append("%s trace=%d: metrics differ from BENCHMARK.json: %s"
                                % (w, trace, sorted(names ^ expected[trace])))
            if a["failed"] != b["failed"]:
                problems.append("%s trace=%d: failed counts differ" % (w, trace))
            for name, m in a["metrics"].items():
                exact = m["unit"] in TICK_UNITS or name == "commit_frac"
                if exact and m["value"] != b["metrics"][name]["value"]:
                    problems.append("%s trace=%d: %s differs between runs"
                                    % (w, trace, name))
            if trace == 1 and tick_fields(ta) != tick_fields(tb):
                problems.append("%s: span tick fields differ between runs" % w)
        print("%s: smoke done" % w, file=sys.stderr)
    for p in problems:
        print(p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


# --- baseline -------------------------------------------------------------------


def baseline(argv):
    if len(argv) != 1:
        fail("baseline OUT.json")
    bench = spec()
    seconds = bench["run_seconds"]
    build()
    out = {"runs_per_workload": 5, "seed": 1, "run_seconds": seconds, "workloads": {}}
    for w in workload_names():
        values = {}
        for _ in range(5):
            code, result, _ = run_once(bench_args(w, 1, seconds, 0))
            if code != 0 or result is None or not result["correct"]:
                fail("baseline run failed: " + w)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        code, traced, _ = run_once(bench_args(w, 1, seconds, 1))
        if code != 0 or traced is None or not traced["correct"]:
            fail("baseline traced run failed: " + w)
        out["workloads"][w] = {
            "end_to_end": {
                name: dict(zip(("q1", "median", "q3"), quartiles(vs)), unit=unit)
                for name, (unit, vs) in values.items()
            },
            "per_layer": {name: m for name, m in traced["metrics"].items()},
        }
        print("%s: baseline done" % w, file=sys.stderr)
    with open(argv[0], "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    argv = sys.argv[1:]
    commands = {"series": series, "compare": compare, "smoke": smoke,
                "baseline": baseline}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
        return
    build()
    sys.stdout.flush()
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    main()
