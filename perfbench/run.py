"""FREE's end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # each listed workload once
    python3 perfbench/run.py --spread 10             # steadiness report
    python3 perfbench/run.py --print-digests         # pinned corpus digests
    python3 perfbench/run.py --selftest              # checker self-test

A run starts the workload in a fresh interpreter with PYTHONPATH=src,
a fixed PYTHONHASHSEED and no FREE_KERNEL, so set iteration order and
the postings kernel cannot differ between commits.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  With ``--trace 0`` the line
before it is a JSON object ``{"raw_metrics": ..., "speed_factors":
...}``: the same metrics as unscaled wall-clock values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("adhoc", "figure8", "ingest", "serve")
CHILD_TIMEOUT_S = 175


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FREE_KERNEL", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + HERE
    return env


def run_child(args: list) -> tuple:
    """Run ``run.py --child ...`` in a fresh interpreter; returns
    (exit code, stdout lines)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--child"] + args,
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The whole group: a serve run's server is the child's child.
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print(f"perfbench: {args} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, out.splitlines()
    return proc.returncode, out.splitlines()


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    code, lines = run_child(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds),
                             "--trace", str(trace)])
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        raise SystemExit(f"perfbench: workload {workload} failed "
                         f"(exit {code})")
    return json.loads(lines[-1])


def child_main(ns: argparse.Namespace) -> None:
    import workloads

    if ns.selftest:
        import selftest_checker

        raise SystemExit(selftest_checker.main())
    if ns.print_digests:
        import inputs

        print("main", inputs.corpus_digest(list(inputs.make_main_corpus())))
        print("ingest",
              inputs.corpus_digest(list(inputs.make_ingest_corpus())))
        return
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=ns.workload + "-",
                               dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        result = workloads.WORKLOADS[ns.workload](
            workdir, ns.seed, float(ns.seconds), bool(ns.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ns.trace:
        names, values = workloads.PER_LAYER, result.layers or {}
    else:
        names, values = workloads.END_TO_END, dict(result.metrics)
        result.speed.scale(values, result.phases)
        speed = result.speed
        result.note(
            "timings scaled to the nominal machine speed (reference loop "
            f"{1000 * workloads.REF_NOMINAL_S:.2f} ms): " + ", ".join(
                f"{phase} by {speed.factor(phase):.4f} "
                f"({len(samples)} samples)"
                for phase, samples in speed.samples.items())
            + "; raw values in brackets")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    unscaled = None if ns.trace else {
        "raw_metrics": {name: {"value": result.metrics[name], "unit": unit}
                        for name, unit in names},
        "speed_factors": {phase: result.speed.factor(phase)
                          for phase in result.speed.samples},
    }
    print(f"== {ns.workload} seed={ns.seed} seconds={ns.seconds} "
          f"trace={ns.trace}")
    for note in result.notes:
        print(f"   {note}")
    for name, unit in names:
        raw = "" if ns.trace else f"  [{result.metrics[name]:.4f}]"
        print(f"   {name:42s} {values[name]:14.4f} {unit}{raw}")
    failures = ", ".join(f"{k}={v}" for k, v in result.failures.items())
    print(f"   attempted={result.attempted} failed={result.failed} "
          f"({failures})")
    for problem in result.problems[:5]:
        print(f"   failed: {problem}")
    if unscaled is not None:
        print(json.dumps(unscaled))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


def selected(ns: argparse.Namespace, spec: dict) -> list:
    """``--workload all`` means the workloads BENCHMARK.json lists."""
    if ns.workload != "all":
        return [ns.workload]
    return [w["name"] for w in spec["workloads"]]


def spread(ns: argparse.Namespace) -> None:
    """Run each workload on seeds 1..N and print each end-to-end
    metric's median, quartiles and interquartile spread (as a share of
    the median) next to its bound in BENCHMARK.json."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = selected(ns, spec)
    for workload in names:
        runs = [run_one(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, ns.spread + 1)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"## {workload}: {len(runs)} runs, correct="
              f"{all(r['correct'] for r in runs)}, failed shares "
              f"{sorted(shares)}")
        print(f"   {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or share < bound / 3 else \
                "  <-- over a third of the bound"
            print(f"   {name:30s} {med:12.4f} {q1:12.4f} {q3:12.4f}"
                  f" {share:8.4f} {bound:6.2f}{flag}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run N seeds per workload; print spreads")
    parser.add_argument("--print-digests", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="feed the checker corrupted answers")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    ns = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: src/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        raise SystemExit(2)
    if ns.child:
        child_main(ns)
        return
    if ns.print_digests or ns.selftest:
        code, lines = run_child(["--print-digests"] if ns.print_digests
                                else ["--selftest"])
        print("\n".join(lines))
        raise SystemExit(code)
    if ns.spread:
        spread(ns)
        return
    if ns.workload != "all":
        print(json.dumps(run_one(ns.workload, ns.seed, ns.seconds,
                                 ns.trace)))
        return
    results = {w: run_one(w, ns.seed, ns.seconds, ns.trace)
               for w in selected(ns, load_spec())}
    print(json.dumps(results))


if __name__ == "__main__":
    main()
