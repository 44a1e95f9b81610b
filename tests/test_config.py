import dataclasses

import pytest

from devcontrib.config import DEFAULT_BLACKLIST, AnalysisConfig, load_config


def test_list_keys_and_section_lines(tmp_path):
    path = tmp_path / "analysis.cfg"
    path.write_text("[weights]\n"
                    "ast.move = 0.2\n"
                    "; lists take comma-separated entries\n"
                    "[lists]\n"
                    "blacklist.patterns = audit, trace.log ,\n"
                    "bots.patterns = robot\n")
    cfg = load_config(path)
    assert cfg.blacklist_patterns == ("audit", "trace.log")
    assert cfg.bot_patterns == ("robot",)
    assert cfg.ast_move == 0.2
    changed = {"ast_move", "blacklist_patterns", "bot_patterns"}
    default = AnalysisConfig()
    for f in dataclasses.fields(AnalysisConfig):
        if f.name not in changed:
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name
    assert cfg.to_dict()["blacklist_patterns"] == ["audit", "trace.log"]
    assert default.blacklist_patterns == DEFAULT_BLACKLIST


@pytest.mark.parametrize("text, line", [
    ("ast.move = 0.2\ngraph.tol = nan\n", 2),
    ("ast.add = inf\n", 1),
    ("graph.damping = -Infinity\n", 1),
    ("normalize.lambda_step = 0\n", 1),
    ("normalize.lambda_step = -0.01\n", 1),
    ("graph.max_iter = 0\n", 1),
    ("normalize.lambda_min = 5\n", None),
    ("normalize.lambda_max = -1\nnormalize.lambda_min = 0\n", None),
], ids=["nan", "inf", "-inf", "zero-step", "negative-step", "no-iterations",
        "min-at-max", "min-above-max"])
def test_values_that_would_break_a_run_are_refused(tmp_path, text, line):
    path = tmp_path / "analysis.cfg"
    path.write_text(text)
    with pytest.raises(ValueError) as refused:
        load_config(path)
    message = str(refused.value)
    assert message.startswith(f"{path}:{line}: " if line else f"{path}: normalize.lambda_min")


def test_values_at_their_bounds_are_kept(tmp_path):
    path = tmp_path / "analysis.cfg"
    path.write_text("graph.max_iter = 1\nnormalize.lambda_step = 1e-9\n"
                    "normalize.lambda_min = 0\nnormalize.lambda_max = 1e-9\n")
    cfg = load_config(path)
    assert (cfg.graph_max_iter, cfg.normalize_lambda_step) == (1, 1e-9)
    assert (cfg.normalize_lambda_min, cfg.normalize_lambda_max) == (0, 1e-9)
