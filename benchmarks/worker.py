"""One measurement in a fresh process, started by run.py.

    python3 worker.py setup|analyze|trace REPO ORACLE OUT_DIR

Every mode first times the set-up a user pays before the first commit is
scored: ``import devcontrib`` plus ``open_repository`` and
``walk_commits`` on the repository.  ``analyze`` then times one call of
``analyze_repository`` and checks its output against the generator's
oracle; ``trace`` does the same with the per-layer wrappers installed and
also times ``AnalysisRun.save``.  The result is one JSON line on stdout.

On a shared host the CPU speed can change by up to 1.9x within seconds,
so the times of ``setup`` and ``analyze`` are given scaled to a reference
speed, next to the plain wall clock.  In ``analyze`` a speed probe -- a
fixed pure-Python job of a few milliseconds -- runs between every two
commits: the run's commit order is wrapped so that the probe runs outside
the per-commit timers.  Each commit's time is scaled by
``PROBE_REFERENCE_S`` over the mean probe time around it; the time
outside the commit loop by the median probe.  The set-up of a fresh
process is bound by page faults more than by the interpreter, so it is
scaled by a page probe run right before it instead.  The probes' own
time is left out of every figure.  ``trace`` runs no speed probe.
"""

from __future__ import annotations

import gc
import hashlib
import json
import mmap
import resource
import statistics
import sys
import time
from pathlib import Path

FINGERPRINT_DIGITS = 8  # significant digits kept in the rounded fingerprint
PROBE_REPS = 3                # repetitions of the speed probe at each point
PROBE_REFERENCE_S = 0.0025    # probe repetition time that scaled times refer to
PAGE_PROBE_BYTES = 8 << 20    # fresh memory the page probe faults in
PAGE_PROBE_REFERENCE_S = 0.0075  # page probe time that scaled set-up times refer to

# Fixed input of the speed probe: Java-like text of about 20 KB.
_PROBE_TEXT = "".join(
    f"int v{i} = call{i % 37}(a{i % 11}, b{i % 5}) + {i * 7 % 101}; // note {i % 13}\n"
    for i in range(400))


def _probe_once() -> None:
    counts: dict[str, int] = {}
    word: list[str] = []
    for ch in _PROBE_TEXT:
        if ch.isalnum():
            word.append(ch)
        elif word:
            w = "".join(word)
            counts[w] = counts.get(w, 0) + 1
            word.clear()
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    score = {w: 1.0 / (1 + r) for r, (w, _) in enumerate(ranked)}
    for _ in range(20):
        score = {w: 0.15 + 0.85 * s * 0.5 for w, s in score.items()}


def speed_probe() -> tuple[float, float, float]:
    """Mean repetition time of the probe job, its own wall time, and when it
    ended (``perf_counter``).

    The cyclic collector is paused meanwhile: a collection falling into the
    probe would time the analysis's heap, not the CPU.  The probe's own
    objects are freed by reference counting.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        _probe_once()
    end = time.perf_counter()
    if collecting:
        gc.enable()
    return (end - start) / PROBE_REPS, end - start, end


def page_probe_s() -> float:
    """Time to fault in ``PAGE_PROBE_BYTES`` of fresh anonymous memory, one
    write per page.  The mapping bypasses malloc, so the probe leaves the
    allocator as it found it."""
    start = time.perf_counter()
    with mmap.mmap(-1, PAGE_PROBE_BYTES) as buf:
        for i in range(0, PAGE_PROBE_BYTES, mmap.PAGESIZE):
            buf[i] = 1
    return time.perf_counter() - start


def _probed(order, probes: list):
    """``order`` with a speed probe before each commit and after the last."""
    for commit in order:
        probes.append(speed_probe())
        yield commit
    probes.append(speed_probe())


def scaled_times(commit_times: dict, wall_s: float,
                 probes: list) -> tuple[list[float], float]:
    """Per-commit times in ms and the total in s, scaled to the reference
    speed; ``wall_s`` excludes the probes.

    A commit is scaled by the mean probe time at its two ends and of every
    probe within half its duration of it, so a long commit (an import) is
    judged by more than two instants.  The time outside the commit loop is
    scaled by the median probe.
    """
    if len(probes) != len(commit_times) + 1:
        raise RuntimeError(f"{len(probes)} speed probes for {len(commit_times)} "
                           "commits: the pipeline no longer iterates walk_commits()")
    speeds = [p[0] for p in probes]
    mids = [end - wall / 2 for _, wall, end in probes]
    commit_ms = []
    for i, t in enumerate(commit_times.values()):
        start = probes[i][2]
        near = speeds[i:i + 2] + [s for j, (s, m) in enumerate(zip(speeds, mids))
                                  if j not in (i, i + 1) and start - t / 2 <= m <= start + 1.5 * t]
        commit_ms.append(t * 1000 * PROBE_REFERENCE_S / statistics.fmean(near))
    rest_s = wall_s - sum(commit_times.values())
    return commit_ms, sum(commit_ms) / 1000 + rest_s * PROBE_REFERENCE_S / statistics.median(speeds)


def _rounded(value, digits: int):
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _rounded(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v, digits) for v in value]
    return value


def fingerprint(run, digits: int | None = None) -> str:
    """sha256 of ``run.to_dict()`` without ``repository``, floats optionally
    rounded to ``digits`` significant digits."""
    data = run.to_dict()
    data.pop("repository")
    if digits is not None:
        data = _rounded(data, digits)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def check_oracle(run, oracle: dict) -> dict:
    """Oracle entries without a matching record that has ``delta_ast > 0``."""
    scored = {(c.id, r.function, r.file) for c in run.commits
              for r in c.records if r.delta_ast > 0}
    misses = [e for e in oracle["entries"] if tuple(e[:3]) not in scored]
    return {"entries": len(oracle["entries"]), "misses": len(misses),
            "unexpected_misses": [e for e in misses if e[3] is None]}


def main() -> int:
    mode, repo, oracle_path, out_dir = sys.argv[1:5]
    # Only before the set-up: after it, the probe's pages would add to
    # a resident set close to the analysis peak and could set peak_rss_mb.
    page_s = page_probe_s()
    t0 = time.perf_counter()
    import devcontrib
    from devcontrib.repo import open_repository, walk_commits

    walk_commits(open_repository(repo))
    setup_s = time.perf_counter() - t0
    result = {"setup_wall_s": setup_s,
              "setup_s": setup_s * PAGE_PROBE_REFERENCE_S / page_s,
              "module": devcontrib.__file__}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    from devcontrib import pipeline

    tracer, probes = None, []
    if mode == "trace":
        from tracing import Probe

        tracer = Probe().install()
    else:
        walk = pipeline.walk_commits
        pipeline.walk_commits = lambda tree: _probed(walk(tree), probes)

    t0 = time.perf_counter()
    run = pipeline.analyze_repository(repo)
    wall_s = time.perf_counter() - t0 - sum(p[1] for p in probes)
    if tracer is None:
        times_ms, analyze_s = scaled_times(run.commit_times, wall_s, probes)
    else:
        times_ms, analyze_s = [t * 1000 for t in run.commit_times.values()], wall_s

    oracle = json.loads(Path(oracle_path).read_text())
    result.update(
        wall_s=wall_s,
        analyze_s=analyze_s,
        commits=len(run.commits),
        commit_p50_ms=statistics.median(times_ms),
        commit_p90_ms=statistics.quantiles(times_ms, n=10, method="inclusive")[-1],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        fingerprint=fingerprint(run, FINGERPRINT_DIGITS),
        fingerprint_exact=fingerprint(run),
        **check_oracle(run, oracle),
    )
    if tracer is not None:
        t0 = time.perf_counter()
        run.save(Path(out_dir) / "run.json")
        result["layers"] = tracer.metrics(run, wall_s, time.perf_counter() - t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
