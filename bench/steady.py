"""Run every workload over sets of seeds and check that the figures repeat.

    python3 bench/steady.py                      # 2 sets x 10 runs per workload
    python3 bench/steady.py --sets 1 --runs 1    # every workload once

Each run is the command in BENCHMARK.json with --trace 0, one process at a
time, workloads interleaved so that a change in machine load falls on all
of them alike.  Set k uses seeds k*runs+1 .. (k+1)*runs.  For every
workload and end-to-end metric the script prints the median and quartiles
of each set and checks that

  * the quartile spread (q3 - q1) / median of each set is within the
    metric's bound,
  * the second set's median differs from the first's, in either direction,
    by no more than the bound,
  * every run was correct and the share of failed operations is the same
    in every run.

Exit code 0 when all of that holds.  Raw results go to --out as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "steady.json"))
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for seed in range(k * args.runs + 1, (k + 1) * args.runs + 1):
            for w in workloads:
                res = run_once(spec, w, seed)
                res["seed"] = seed
                results[w][k].append(res)
                shown = "  ".join(
                    f"{name}={m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()
                )
                print(f"set {k + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}  {shown}", flush=True)

    problems = []
    summary = {}
    for w in workloads:
        runs = [r for s in results[w] for r in s]
        if not all(r["correct"] for r in runs):
            problems.append(f"{w}: a run reported wrong outputs")
        if len({r["failed"] / r["attempted"] for r in runs}) > 1:
            problems.append(f"{w}: the share of failed operations varies")
        summary[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in s]) for s in results[w]]
            summary[w][name] = sets
            cells = "  ".join(
                f"[{s['q1']:.4g} {s['median']:.4g} {s['q3']:.4g}] spread {s['spread']:.3f}" for s in sets
            )
            print(f"{w:18s} {name:12s} bound {bound:.2f}  {cells}")
            if args.runs < 2:
                continue
            for i, s in enumerate(sets):
                if s["spread"] > bound:
                    problems.append(f"{w} {name}: set {i + 1} spread {s['spread']:.3f} > {bound}")
            for i in range(1, len(sets)):
                drift = abs(sets[i]["median"] - sets[0]["median"]) / sets[0]["median"]
                if drift > bound:
                    problems.append(f"{w} {name}: set {i + 1} median differs by {drift:.3f} > {bound}")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"runs": results, "summary": summary, "problems": problems}, fh, indent=1)
    for p in problems:
        print("NOT STEADY:", p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
