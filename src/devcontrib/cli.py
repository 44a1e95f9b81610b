"""Command-line front end.

Three subcommands mirror the three activities the toolkit supports::

    devcontrib analyze <repo> [--branch B] [--config F] [--out run.json]
    devcontrib report <run.json> --format json|csv [--out DIR] [--inflated]
    devcontrib eval --labels labels.csv --run run.json

``analyze`` writes the run file (JSON, ``schema_version`` 2) with every
developer's inflated-commit flag set from the config's thresholds;
``report`` and ``eval`` read it back and refuse any other schema version.

Exit codes: 0 success, 1 usage error (including an unreadable config or
``report`` run file, and an ``analyze --out`` path that is a directory or
lies in a missing one, refused before the repository is read), 2
repository error (including a commit with neither author name nor email),
3 evaluation-input error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .config import AnalysisConfig, load_config
from .errors import (
    CorruptHistory,
    EvaluationInputError,
    MissingAuthor,
    MissingBlob,
    NotARepository,
    UsageError,
    ZeroVariance,
)
from .pipeline import AnalysisRun, analyze_repository
from .report import emit_report, spearman


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="devcontrib",
                             description="Measure developer contribution from a git history")
    sub = parser.add_subparsers(dest="command")

    p_analyze = sub.add_parser("analyze", help="analyze a repository")
    p_analyze.add_argument("repo", help="path to a git repository")
    p_analyze.add_argument("--branch", default=None, help="limit to one branch")
    p_analyze.add_argument("--config", default=None, help="config file (key = value lines)")
    p_analyze.add_argument("--out", default="run.json", help="run output file")

    p_report = sub.add_parser("report", help="emit reports from a finished run")
    p_report.add_argument("run", help="run file produced by analyze")
    p_report.add_argument("--format", choices=("json", "csv"), default="json")
    p_report.add_argument("--out", default=".", help="output directory")
    p_report.add_argument("--inflated", action="store_true",
                          help="list developers with inflated commit counts")

    p_eval = sub.add_parser("eval", help="rank-correlate a run against labels")
    p_eval.add_argument("--labels", required=True,
                        help="CSV of commit-id,score ground truth")
    p_eval.add_argument("--run", required=True, help="run file produced by analyze")
    return parser


def _cmd_analyze(args) -> int:
    out = Path(args.out)
    # checked first: a run that cannot be saved is lost after the whole walk
    if not out.parent.is_dir():
        raise UsageError(f"output directory does not exist: {out.parent}")
    if out.is_dir():
        raise UsageError(f"output path is a directory: {out}")
    cfg = AnalysisConfig()
    if args.config:
        try:
            cfg = load_config(args.config, base=cfg)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load config file: {exc}") from exc
    if args.branch:
        cfg.branch = args.branch
    run = analyze_repository(args.repo, cfg)
    run.save(args.out)
    flagged = sum(r.inflated for r in run.developers)
    total = sum(c.cvalue for c in run.commits)
    print(f"analyzed {len(run.commits)} commits, "
          f"{len(run.developers)} developers, total contribution {total:.3f}")
    print(f"{flagged} developer(s) with inflated commit counts")
    print(f"run written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    run = _load_run(args.run, UsageError)
    flagged = [r for r in run.developers if r.inflated]
    paths = emit_report(run, run.developers, format=args.format, out_dir=args.out)
    for path in paths:
        print(f"wrote {path}")
    if args.inflated:
        if flagged:
            for r in flagged:
                print(f"inflated: {r.email} commit_share={r.commit_share:.4f} "
                      f"cvalue_share={r.cvalue_share:.4f}")
        else:
            print("no inflated developers detected")
    return 0


def _read_labels(path: str) -> dict[str, float]:
    labels = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().lower() in ("commit", "commit_id", "id"):
                    continue
                if len(row) < 2:
                    raise EvaluationInputError(f"bad labels row: {row!r}")
                score = float(row[1])
                if not math.isfinite(score):  # ranks would put NaN above all
                    raise EvaluationInputError(f"score is not finite in row {row!r}")
                labels[row[0].strip()] = score
    except OSError as exc:
        raise EvaluationInputError(f"cannot read labels file: {exc}") from exc
    except ValueError as exc:
        raise EvaluationInputError(f"bad score in labels file: {exc}") from exc
    if not labels:
        raise EvaluationInputError("labels file is empty")
    return labels


def _load_run(path: str, error: type[Exception]) -> AnalysisRun:
    """``AnalysisRun.load``, with any unreadable file raised as ``error``."""
    try:
        return AnalysisRun.load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise error(f"cannot load run file: {exc}") from exc


def _cmd_eval(args) -> int:
    run = _load_run(args.run, EvaluationInputError)
    labels = _read_labels(args.labels)
    predictions = {c.id: c.cvalue for c in run.commits}
    matched = [cid for cid in labels if cid in predictions]
    if len(matched) < 2:
        raise EvaluationInputError(
            f"only {len(matched)} labeled commit(s) match the run; need at least 2")
    xs = [labels[cid] for cid in matched]
    ys = [predictions[cid] for cid in matched]
    try:
        r_s = spearman(xs, ys)
    except ZeroVariance as exc:
        raise EvaluationInputError(f"correlation undefined: {exc}") from exc
    print(f"spearman r_s = {r_s:.4f} over {len(matched)} commits")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "eval":
            return _cmd_eval(args)
        raise UsageError("missing subcommand (analyze | report | eval)")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NotARepository, CorruptHistory, MissingBlob, MissingAuthor) as exc:
        print(f"repository error: {exc}", file=sys.stderr)
        return 2
    except EvaluationInputError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if args is not None and args.command == "analyze" else 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
