"""Developer aggregation, inflated-commit detection, evaluation, reports.

Developers are keyed by lowercased author email.  Shares are taken over
all walked commits, zero-valued ones included, which mirrors how hosting
platforms count contributions.  A developer is flagged as inflated when
their commit share clears the floor (default 1%) while their contribution
share falls below the configured fraction (default 20%) of it -- both
strict inequalities.

Rank agreement between two scorings uses Spearman's coefficient: Pearson
correlation of average-rank variables, ties averaged.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ZeroVariance


@dataclass
class DeveloperReport:
    email: str
    display_name: str
    is_bot: bool
    commit_count: int
    commit_share: float
    cvalue_total: float
    cvalue_share: float
    inflated: bool = False
    zero_syntax: bool = False


def aggregate_by_developer(run) -> list[DeveloperReport]:
    """Fold a finished run into one row per developer, largest value first."""
    totals: dict[str, dict] = {}
    for commit in run.commits:
        entry = totals.setdefault(commit.author_email, {
            "name": commit.author_name, "is_bot": commit.author_is_bot,
            "commits": 0, "cvalue": 0.0, "delta": 0.0,
        })
        entry["commits"] += 1
        entry["cvalue"] += commit.cvalue
        entry["delta"] += commit.delta_ast_total

    commit_total = sum(e["commits"] for e in totals.values())
    cvalue_total = sum(e["cvalue"] for e in totals.values())

    reports = []
    for email in sorted(totals):
        e = totals[email]
        reports.append(DeveloperReport(
            email=email,
            display_name=e["name"],
            is_bot=e["is_bot"],
            commit_count=e["commits"],
            commit_share=e["commits"] / commit_total if commit_total else 0.0,
            cvalue_total=e["cvalue"],
            cvalue_share=e["cvalue"] / cvalue_total if cvalue_total > 0 else 0.0,
            zero_syntax=e["delta"] == 0.0,
        ))
    reports.sort(key=lambda r: (-r.cvalue_total, r.email))
    return reports


def detect_inflated(reports, commit_share_min: float = 0.01,
                    ratio_max: float = 0.20) -> list[DeveloperReport]:
    """Flag developers whose commit count outruns their measured value."""
    flagged = []
    for r in reports:
        r.inflated = (r.commit_share > commit_share_min
                      and r.cvalue_share < ratio_max * r.commit_share)
        if r.inflated:
            flagged.append(r)
    return flagged


# ---------------------------------------------------------------------------
# rank correlation
# ---------------------------------------------------------------------------

def _average_ranks(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman's r_s with average ranks for ties.

    Raises ZeroVariance when either side ranks constant (undefined
    correlation).
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("spearman needs two equal-length lists of at least 2")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("constant ranks")
    cov = float(((rx - rx.mean()) * (ry - ry.mean())).mean())
    return cov / (float(sx) * float(sy))


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1


def emit_report(run, reports, format: str = "json",
                out_dir: str | Path = ".") -> list[Path]:
    """Write the machine-readable report; returns the created paths.

    ``json`` produces one document with per-commit scores and the
    developer table; ``csv`` produces plot-ready ``developers.csv`` and
    ``commits.csv``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if format == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "repository": run.repository,
            "commits": [{
                "id": c.id, "author_email": c.author_email,
                "timestamp": c.timestamp, "bulk": c.bulk,
                "delta_ast_total": c.delta_ast_total, "cvalue": c.cvalue,
            } for c in run.commits],
            "developers": [dict(vars(r)) for r in reports],
        }
        path = out_dir / "report.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        written.append(path)
    elif format == "csv":
        dev_path = out_dir / "developers.csv"
        with open(dev_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["email", "display_name", "is_bot", "commit_count",
                             "commit_share", "cvalue_total", "cvalue_share",
                             "inflated", "zero_syntax"])
            for r in reports:
                writer.writerow([r.email, r.display_name, r.is_bot,
                                 r.commit_count, f"{r.commit_share:.9f}",
                                 f"{r.cvalue_total:.9f}", f"{r.cvalue_share:.9f}",
                                 r.inflated, r.zero_syntax])
        commits_path = out_dir / "commits.csv"
        with open(commits_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "author_email", "timestamp", "bulk",
                             "delta_ast_total", "cvalue"])
            for c in run.commits:
                writer.writerow([c.id, c.author_email, c.timestamp, c.bulk,
                                 f"{c.delta_ast_total:.9f}", f"{c.cvalue:.9f}"])
        written.extend([dev_path, commits_path])
    else:
        raise ValueError(f"unknown report format {format!r}")
    return written
