import dataclasses

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
