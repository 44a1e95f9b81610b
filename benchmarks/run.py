"""devcontrib benchmark: analyze one seeded synthetic git history.

    python3 benchmarks/run.py --workload edit-heavy --seed 1 --seconds 30 --trace 0

Run from the repository root.  The history for (workload, seed) is
generated once into ``benchmarks/.work`` and reused.  Every measurement
is a fresh ``worker.py`` process that sees only the repository path:

* ``--trace 0`` repeats untraced ``analyze_repository`` calls while the
  next one still fits in ``--seconds``, then times set-up alone a few
  times, and reports the end-to-end metrics as medians over them.  Times
  are scaled to a reference host speed by probes run around the set-up
  and between commits (see ``worker.py``);
* ``--trace 1`` makes one untraced and one traced call and reports the
  per-layer metrics of the traced one.

Outputs are checked against the generator's oracle, every call must
analyze every generated commit, and all calls of a run must agree on the
rounded output fingerprint.  The second-to-last stdout line holds the
details (samples, fingerprints, miss share); the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import histories
import tracing
from worker import FINGERPRINT_DIGITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5     # set-up-only processes after the analysis calls
WARMUP_CALLS = 3      # unmeasured set-up processes: bytecode, page cache, CPU clock
DEADLINE_S = 170      # the whole run must end well within 180 s

END_TO_END_UNITS = {
    "analyze_s": "s",
    "commits_per_s": "1/s",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hit_share": "ratio",
}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


class Runner:
    """Starts worker processes on one generated history and checks their output."""

    def __init__(self, data: Path, started: float):
        self.started = started
        self.data = data
        self.oracle = json.loads((data / "oracle.json").read_text())
        self.env = histories.git_env(data.parent)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.pop("PYTHONHASHSEED", None)  # each process draws its own

    def call(self, mode: str) -> dict | None:
        """One worker process; None when it failed (stderr is passed on)."""
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        args = [sys.executable, str(HERE / "worker.py"), mode,
                str(self.data / "repo.git"), str(self.data / "oracle.json"),
                str(self.data)]
        try:
            proc = subprocess.run(args, env=self.env, capture_output=True, text=True,
                                  timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            print(f"benchmark: {mode} worker timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = ROOT / "src" / "devcontrib" / "__init__.py"
        if Path(result["module"]).resolve() != expected.resolve():
            print(f"benchmark: measured {result['module']}, not {expected}", file=sys.stderr)
            return None
        return result

    def check(self, results: list[dict | None]) -> list[str]:
        """Problems with the analysis calls' outputs; empty when correct."""
        problems = []
        done = [r for r in results if r is not None]
        if len(done) < len(results):
            problems.append(f"{len(results) - len(done)} analysis call(s) failed")
        for r in done:
            if r["commits"] != self.oracle["commits"]:
                problems.append(f"analyzed {r['commits']} of {self.oracle['commits']} commits")
            if r["unexpected_misses"]:
                problems.append(f"{len(r['unexpected_misses'])} oracle entries missed, "
                                f"e.g. {r['unexpected_misses'][0]}")
        if len({r["fingerprint"] for r in done}) > 1:
            problems.append("rounded fingerprints differ between calls")
        return problems

    def details(self, results: list[dict | None], setup: list[dict]) -> dict:
        done = [r for r in results if r is not None]
        entries = self.oracle["entries"]
        return {
            "workload": self.oracle["workload"],
            "seed": self.oracle["seed"],
            "commits": self.oracle["commits"],
            "merges": self.oracle["merges"],
            "oracle_entries": len(entries),
            "known_drop_entries": sum(1 for e in entries if e[3]),
            "analysis_calls": len(results),
            "miss_share": [r["misses"] / r["entries"] if r else 1.0 for r in results],
            "analyze_s": [r["analyze_s"] for r in done],
            "analyze_wall_s": [r["wall_s"] for r in done],
            "setup_s": [r["setup_s"] for r in setup],
            "setup_wall_s": [r["setup_wall_s"] for r in setup],
            "fingerprint_digits": FINGERPRINT_DIGITS,
            "fingerprint": sorted({r["fingerprint"] for r in done}),
            "fingerprint_exact": sorted({r["fingerprint_exact"] for r in done}),
            "fingerprint_exact_repeated": len({r["fingerprint_exact"] for r in done}) == 1,
        }


def end_to_end(runner: Runner, seconds: float,
               setup_call_s: float) -> tuple[dict, list, list[dict]]:
    """Analysis calls while the next one still fits, then set-up-only calls.

    The set-up-only calls come last so that they, like the set-up timed in
    each analysis call, run on a busy CPU rather than one just out of idle.
    """
    start = time.perf_counter()
    reserve = SETUP_SAMPLES * setup_call_s
    results, last = [], 0.0
    while not results or time.perf_counter() - start + last + reserve <= seconds:
        t0 = time.perf_counter()
        results.append(runner.call("analyze"))
        last = time.perf_counter() - t0
    setup = [r for r in (runner.call("setup") for _ in range(SETUP_SAMPLES)) if r is not None]
    done = [r for r in results if r is not None]
    if not done:
        return {}, results, setup
    setup += done
    commits = runner.oracle["commits"]
    hits = sum(r["entries"] - r["misses"] for r in done)
    metrics = {
        "analyze_s": statistics.median(r["analyze_s"] for r in done),
        "commits_per_s": statistics.median(commits / r["analyze_s"] for r in done),
        "commit_p50_ms": statistics.median(r["commit_p50_ms"] for r in done),
        "commit_p90_ms": statistics.median(r["commit_p90_ms"] for r in done),
        "setup_s": statistics.median(r["setup_s"] for r in setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "hit_share": hits / (len(results) * len(runner.oracle["entries"])),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, \
        results, setup


def per_layer(runner: Runner) -> tuple[dict, list]:
    untraced = runner.call("analyze")
    traced = runner.call("trace")
    results = [untraced, traced]
    if untraced is None or traced is None:
        return {}, results
    layers = dict(traced["layers"])
    layers["pipeline.trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    units = tracing.metric_units()
    return {k: {"value": layers[k], "unit": u} for k, u in units.items()}, results


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(histories.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "devcontrib" / "__init__.py").is_file():
        return fail(f"no devcontrib sources under {ROOT / 'src'}")
    key = hashlib.sha256((HERE / "histories.py").read_bytes()).hexdigest()[:12]
    data = histories.generate(args.workload, args.seed,
                              HERE / ".work" / f"{args.workload}-{args.seed}-{key}")
    runner = Runner(data, started)
    for _ in range(WARMUP_CALLS):
        t0 = time.perf_counter()
        if runner.call("setup") is None:
            return fail("set-up worker failed")
    setup_call_s = time.perf_counter() - t0

    if args.trace:
        metrics, results = per_layer(runner)
        setup = []
    else:
        metrics, results, setup = end_to_end(runner, args.seconds, setup_call_s)
    if not metrics:
        return fail("no analysis call succeeded")
    problems = runner.check(results)
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    commits = runner.oracle["commits"]
    print(json.dumps({"details": runner.details(results, setup)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": commits * len(results),
        "failed": commits * sum(1 for r in results if r is None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
