"""Run configuration: defaults and the flat ``key = value`` config file format.

Config files are plain text, one dotted key per line::

    # weights for syntax edit actions
    ast.move = 0.2
    graph.decay = 0.5
    blacklist.patterns = log, logger, print
    bots.patterns = dependabot, [bot]

Lines starting with ``#`` or ``;``, blank lines and ``[section]`` lines
are ignored, so a section does not qualify the keys below it.  List-valued
keys take comma-separated entries.

A value that would break a run is refused with the file's name, and its
line for a single key: a number that is not finite, a
``normalize.lambda_step`` or ``graph.max_iter`` that is not above 0, and
a ``normalize.lambda_min`` that is not below ``normalize.lambda_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from pathlib import Path


DEFAULT_BLACKLIST = ("log", "logger", "print", "println", "System.out", "System.err")
DEFAULT_BOT_PATTERNS = ("dependabot", "[bot]")


@dataclass
class AnalysisConfig:
    """All tunables for one analysis run."""

    # edit-action weights for the syntax change size
    ast_add: float = 1.0
    ast_update: float = 1.0
    ast_move: float = 0.1
    ast_delete: float = 0.01
    ast_name_factor: float = 0.01

    # call-graph scoring
    graph_decay: float = 0.5
    graph_damping: float = 0.85
    graph_tol: float = 1e-8
    graph_max_iter: int = 200

    # normalization
    normalize_lambda_min: float = -5.0
    normalize_lambda_max: float = 5.0
    normalize_lambda_step: float = 0.01
    normalize_min_samples: int = 30

    # inflated-commit detection thresholds
    inflated_commit_share_min: float = 0.01
    inflated_ratio_max: float = 0.20

    # matcher
    diff_similarity_threshold: float = 0.5

    # repository walking
    branch: str | None = None
    bulk_file_threshold: int = 500

    blacklist_patterns: tuple[str, ...] = DEFAULT_BLACKLIST
    bot_patterns: tuple[str, ...] = DEFAULT_BOT_PATTERNS

    def to_dict(self) -> dict:
        d = asdict(self)
        d["blacklist_patterns"] = list(self.blacklist_patterns)
        d["bot_patterns"] = list(self.bot_patterns)
        return d


# config-file key -> (attribute, parser)
_KEY_MAP = {
    "ast.add": ("ast_add", float),
    "ast.update": ("ast_update", float),
    "ast.move": ("ast_move", float),
    "ast.delete": ("ast_delete", float),
    "ast.name_factor": ("ast_name_factor", float),
    "graph.decay": ("graph_decay", float),
    "graph.damping": ("graph_damping", float),
    "graph.tol": ("graph_tol", float),
    "graph.max_iter": ("graph_max_iter", int),
    "normalize.lambda_min": ("normalize_lambda_min", float),
    "normalize.lambda_max": ("normalize_lambda_max", float),
    "normalize.lambda_step": ("normalize_lambda_step", float),
    "normalize.min_samples": ("normalize_min_samples", int),
    "inflated.commit_share_min": ("inflated_commit_share_min", float),
    "inflated.ratio_max": ("inflated_ratio_max", float),
    "diff.similarity_threshold": ("diff_similarity_threshold", float),
    "repo.branch": ("branch", str),
    "repo.bulk_file_threshold": ("bulk_file_threshold", int),
    "blacklist.patterns": ("blacklist_patterns", "list"),
    "bots.patterns": ("bot_patterns", "list"),
}

# keys whose value must be above 0: a Box-Cox grid needs a step, and
# PageRank at least one iteration
_POSITIVE = frozenset({"normalize.lambda_step", "graph.max_iter"})


def load_config(path: str | Path, base: AnalysisConfig | None = None) -> AnalysisConfig:
    """Parse a config file on top of ``base`` (or the defaults).  Raises
    ``ValueError``, naming the file, for a line or value it refuses (see
    the module doc)."""
    cfg = base or AnalysisConfig()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")) or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_MAP:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        attr, conv = _KEY_MAP[key]
        if conv == "list":
            parsed = tuple(p.strip() for p in value.split(",") if p.strip())
        else:
            parsed = conv(value)
            if conv is float and not math.isfinite(parsed):
                raise ValueError(f"{path}:{lineno}: {key} must be finite, got {value!r}")
            if key in _POSITIVE and parsed <= 0:
                raise ValueError(f"{path}:{lineno}: {key} must be above 0, got {value!r}")
        setattr(cfg, attr, parsed)
    if cfg.normalize_lambda_min >= cfg.normalize_lambda_max:
        raise ValueError(f"{path}: normalize.lambda_min ({cfg.normalize_lambda_min}) "
                         f"must be below normalize.lambda_max ({cfg.normalize_lambda_max})")
    return cfg
