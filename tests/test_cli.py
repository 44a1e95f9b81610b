import json
import logging
import os
import re
import subprocess
from pathlib import Path

import pytest

from devcontrib.cli import main
from devcontrib.pipeline import AnalysisRun, analyze_repository
from devcontrib.report import spearman

JAVA = "class Service {{ int handle(int k) {{ return k * {n}; }} }}"
BOT = ("ci-bot[bot]", "ci-bot[bot]@example.com")


@pytest.fixture
def history(make_repo):
    """Three Java edits by one developer and three text-file commits by a
    bot, whose zero contribution marks it inflated at the default
    thresholds."""
    repo = make_repo()
    for i in range(3):
        repo.commit(f"edit{i}", 1000 + i, {"Service.java": JAVA.format(n=i + 2)})
        repo.commit(f"bump{i}", 2000 + i, {"deps.txt": str(i)}, author=BOT)
    return repo


def _analyze(repo, tmp_path, capsys, *extra):
    out = tmp_path / "run.json"
    code = main(["analyze", repo.path, "--out", str(out), *extra])
    return code, out, capsys.readouterr()


@pytest.mark.parametrize("config, flagged", [("", 1), ("inflated.ratio_max = 0\n", 0)])
def test_analyze_stores_the_inflated_flags_it_prints(history, tmp_path, capsys,
                                                     config, flagged):
    cfg = tmp_path / "analysis.cfg"
    cfg.write_text(config)
    code, out, captured = _analyze(history, tmp_path, capsys, "--config", str(cfg))
    assert code == 0
    count = int(re.search(r"(\d+) developer\(s\) with inflated", captured.out).group(1))
    developers = json.loads(out.read_text())["developers"]
    stored = {d["email"]: d["inflated"] for d in developers}
    assert count == sum(stored.values()) == flagged
    assert stored["ci-bot[bot]@example.com"] is bool(flagged)


def test_report_csv_lists_stored_inflated_developers(history, tmp_path, capsys):
    _, run_path, _ = _analyze(history, tmp_path, capsys)
    out_dir = tmp_path / "reports"
    code = main(["report", str(run_path), "--format", "csv", "--out", str(out_dir),
                 "--inflated"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "inflated: ci-bot[bot]@example.com" in printed
    assert (out_dir / "developers.csv").exists() and (out_dir / "commits.csv").exists()


def test_eval_needs_two_matched_labels(history, tmp_path, capsys):
    _, run_path, _ = _analyze(history, tmp_path, capsys)
    labels = tmp_path / "labels.csv"
    labels.write_text(f"commit,score\n{history.shas[0]},1.0\nnot-a-commit,2.0\n")
    assert main(["eval", "--labels", str(labels), "--run", str(run_path)]) == 3
    assert "only 1 labeled commit(s)" in capsys.readouterr().err


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_eval_refuses_a_score_that_is_not_finite(history, tmp_path, capsys, score):
    _, run_path, _ = _analyze(history, tmp_path, capsys)
    labels = tmp_path / "labels.csv"
    labels.write_text("commit,score\n" + "".join(
        f"{sha},{value}\n" for sha, value in zip(history.shas, ["1", score, "3"])))
    assert main(["eval", "--labels", str(labels), "--run", str(run_path)]) == 3
    err = capsys.readouterr().err
    assert "evaluation error: score is not finite" in err and "Traceback" not in err


def test_eval_prints_r_s_for_matching_labels(history, tmp_path, capsys):
    _, run_path, _ = _analyze(history, tmp_path, capsys)
    scores = [3.0, 0.0, 5.0, 1.0, 5.0, 0.0]  # tied, and one label per commit
    labels = tmp_path / "labels.csv"
    labels.write_text("commit,score\n" + "".join(
        f"{sha},{score}\n" for sha, score in zip(history.shas, scores)))
    cvalues = {c.id: c.cvalue for c in AnalysisRun.load(run_path).commits}
    expected = spearman(scores, [cvalues[sha] for sha in history.shas])
    assert main(["eval", "--labels", str(labels), "--run", str(run_path)]) == 0
    assert capsys.readouterr().out == f"spearman r_s = {expected:.4f} over 6 commits\n"


def test_report_json_holds_one_row_per_commit(history, tmp_path, capsys):
    _, run_path, _ = _analyze(history, tmp_path, capsys)
    out_dir = tmp_path / "reports"
    assert main(["report", str(run_path), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "report.json").read_text())
    run = json.loads(run_path.read_text())
    assert doc["schema_version"] == 1
    assert [c["id"] for c in doc["commits"]] == [c["id"] for c in run["commits"]]
    assert sorted(c["id"] for c in doc["commits"]) == sorted(history.shas)
    assert [d["email"] for d in doc["developers"]] == [d["email"] for d in run["developers"]]


def test_analyze_branch_limits_the_run_to_it(history, tmp_path, capsys):
    history._run("git", "checkout", "-q", "--orphan", "other")
    history._run("git", "rm", "-r", "-q", "-f", ".")
    other = [history.commit(f"other{i}", 3000 + i, {"Service.java": JAVA.format(n=i + 7)})
             for i in range(2)]
    code, out, _ = _analyze(history, tmp_path, capsys, "--branch", "other")
    assert code == 0
    assert [c["id"] for c in json.loads(out.read_text())["commits"]] == other
    code, out, _ = _analyze(history, tmp_path, capsys)
    assert len(json.loads(out.read_text())["commits"]) == 8


def test_config_lists_reach_the_run(make_repo, tmp_path, capsys):
    repo = make_repo()
    robot = ("robot", "robot@example.com")
    repo.commit("init", 1000, {"Service.java": JAVA.format(n=2)}, author=robot)
    audited = repo.commit("audit", 2000, {"Service.java": JAVA.format(n=2).replace(
        "return", "audit(k); return")})
    cfg = tmp_path / "analysis.cfg"
    cfg.write_text("[repo]\nbots.patterns = robot\n[diff]\nblacklist.patterns = audit, log\n")

    def commits(*extra):
        code, out, captured = _analyze(repo, tmp_path, capsys, *extra)
        assert code == 0, captured.err
        return {c["id"]: c for c in json.loads(out.read_text())["commits"]}

    default, configured = commits(), commits("--config", str(cfg))
    assert default[audited]["delta_ast_total"] > 0
    assert configured[audited]["delta_ast_total"] == 0
    assert [c["author_is_bot"] for c in default.values()] == [False, False]
    assert [c["author_is_bot"] for c in configured.values()] == [True, False]


def test_report_refuses_a_run_of_another_schema(history, tmp_path, capsys):
    _, run_path, _ = _analyze(history, tmp_path, capsys)
    doc = json.loads(run_path.read_text())
    doc["schema_version"] = 1
    run_path.write_text(json.dumps(doc))
    assert main(["report", str(run_path), "--out", str(tmp_path)]) == 1
    assert "schema version 1" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"schema_version": 2,',
    json.dumps({"schema_version": 2, "repository": "r", "config": {},
                "commits": [{"functions": [], "unknown_field": 1}],
                "developers": [], "boxcox": {}}),
], ids=["truncated-json", "unknown-field"])
def test_report_on_malformed_run_is_a_usage_error(tmp_path, capsys, text):
    run_path = tmp_path / "run.json"
    run_path.write_text(text)
    assert main(["report", str(run_path), "--out", str(tmp_path)]) == 1
    assert "cannot load run file" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--config", "CFG"], ["--cache", "dir"]],
                         ids=["unknown-config-key", "cache-flag"])
def test_analyze_usage_errors(history, tmp_path, capsys, extra):
    cfg = tmp_path / "analysis.cfg"
    cfg.write_text("repo.cache_dir = cache\n")
    extra = [str(cfg) if a == "CFG" else a for a in extra]
    code, out, captured = _analyze(history, tmp_path, capsys, *extra)
    assert code == 1
    assert "usage error" in captured.err
    assert not out.exists()


def test_an_out_of_range_config_value_exits_1_before_the_repository_is_read(
        tmp_path, capsys):
    plain = tmp_path / "plain"  # not a repository: reading it would exit 2
    plain.mkdir()
    cfg = tmp_path / "analysis.cfg"
    cfg.write_text("normalize.lambda_step = 0\n")
    out = tmp_path / "run.json"
    code = main(["analyze", str(plain), "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{cfg}:1: normalize.lambda_step must be above 0" in err
    assert "Traceback" not in err and not out.exists()


def test_analyze_non_repository_exits_2(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.mkdir()
    assert main(["analyze", str(plain), "--out", str(tmp_path / "run.json")]) == 2
    assert "not a git repository" in capsys.readouterr().err


@pytest.mark.parametrize("through_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("out_name", ["missing/run.json", "."], ids=["missing-dir", "a-dir"])
def test_analyze_unusable_out_exits_1_before_the_repository_is_read(
        tmp_path, capsys, monkeypatch, through_sys_argv, out_name):
    plain = tmp_path / "plain"  # not a repository: reading it would exit 2
    plain.mkdir()
    out = tmp_path / out_name
    argv = ["analyze", str(plain), "--out", str(out)]
    if through_sys_argv:  # as the console entry point calls it
        monkeypatch.setattr("sys.argv", ["devcontrib", *argv])
        code = main()
    else:
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error: output" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_analyze_skips_a_submodule_and_scores_the_rest(make_repo, tmp_path, capsys):
    repo = make_repo()
    # a gitlink names a commit of the submodule's repository, absent from this one
    for ts, (n, sub) in enumerate([(2, "1"), (3, "2")], start=1):
        (Path(repo.path) / "A.java").write_text(JAVA.format(n=n))
        repo._run("git", "add", "A.java")
        repo._run("git", "update-index", "--add", "--cacheinfo", f"160000,{sub * 40},lib")
        repo._run("git", "commit", "-q", "-m", f"commit {ts}", ts=1000 * ts)
    code, out, captured = _analyze(repo, tmp_path, capsys)
    assert code == 0, captured.err
    commits = json.loads(out.read_text())["commits"]
    assert [{f["file"] for f in c["functions"]} for c in commits] == [{"A.java"}] * 2


def test_analyze_skips_a_symlink_named_like_source(make_repo, caplog):
    repo = make_repo()
    # a symlink's blob is its target path, not source text
    (Path(repo.path) / "A.java").write_text(JAVA.format(n=2))
    os.symlink("A.java", Path(repo.path) / "B.java")
    repo._run("git", "add", "A.java", "B.java")
    repo._run("git", "commit", "-q", "-m", "init", ts=1000)
    with caplog.at_level(logging.WARNING):
        run = analyze_repository(repo.path)
    assert (run.parses, run.parse_errors) == (2, 0)
    assert "B.java" not in caplog.text
    assert {r.file for r in run.commits[0].records} == {"A.java"}


def test_analyze_commit_without_author_exits_2(make_repo, tmp_path, capsys):
    repo = make_repo()
    text = JAVA.format(n=2)
    stream = (f"commit refs/heads/main\nauthor  <> 1700000000 +0000\n"
              f"committer Core Dev <core@example.com> 1700000000 +0000\n"
              f"data 4\ninit\nM 100644 inline A.java\n"
              f"data {len(text.encode())}\n{text}\n")
    subprocess.run(["git", "-C", repo.path, "fast-import", "--quiet"],
                   input=stream.encode(), check=True, capture_output=True)
    code, out, captured = _analyze(repo, tmp_path, capsys)
    assert code == 2
    assert "repository error: commit has neither author email nor name" in captured.err
    assert not out.exists()
