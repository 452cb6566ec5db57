import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from isummary import summarizer, workload
from isummary.cli import main
from isummary.synth import SyntheticSpec

from conftest import UNIVERSITY_FILE, generate_synthetic


@pytest.fixture
def log_file():
    return UNIVERSITY_FILE


def test_summarize_golden_ntriples(log_file, tmp_path, capsys):
    out = tmp_path / "summary.nt"
    report = tmp_path / "summary.json"
    code = main([
        "summarize", "--log", str(log_file), "--seed", "Person", "--k", "2",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8") == "<Organization> <affiliatedOf> <Person> .\n"
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["k"] == 2
    assert payload["nodes"][0]["frequency"] == 3
    assert list(payload) == ["seeds", "k", "strategy", "nodes", "triples", "warnings"]


def test_summarize_to_stdout(log_file, capsys):
    assert main(["summarize", "--log", str(log_file), "--seed", "Person", "--k", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "<Organization> <affiliatedOf> <Person> .\n<Person> <advisor> <Professor> .\n"
    )


def test_summarize_unknown_seed_is_data_error(log_file, capsys):
    code = main(["summarize", "--log", str(log_file), "--seed", "Nowhere", "--k", "2"])
    assert code == 3
    assert "NoRelevantQueries" in capsys.readouterr().err


def test_summarize_missing_log_is_data_error(tmp_path, capsys):
    code = main([
        "summarize", "--log", str(tmp_path / "absent.txt"), "--seed", "X", "--k", "2",
    ])
    assert code == 3
    assert "IoError" in capsys.readouterr().err


def test_summarize_freezes_the_store_and_unfreezes_on_return(log_file, monkeypatch, capsys):
    during = []
    real = summarizer.summarize
    monkeypatch.setattr(summarizer, "summarize", lambda store, request: (
        during.append(gc.get_freeze_count()) or real(store, request)))
    argv = ["summarize", "--log", str(log_file), "--k", "2", "--seed"]
    assert gc.get_freeze_count() == 0
    assert main(argv + ["Person"]) == 0
    assert during[-1] > 0 and gc.get_freeze_count() == 0
    assert main(argv + ["Nowhere"]) == 3  # a data error after the load
    assert during[-1] > 0 and gc.get_freeze_count() == 0
    # a caller's own frozen objects: the command freezes and unfreezes nothing
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert main(argv + ["Person"]) == 0
        assert during[-1] == before == gc.get_freeze_count()
    finally:
        gc.unfreeze()


def test_usage_errors_exit_two(log_file, capsys):
    assert main(["summarize", "--log", str(log_file)]) == 2
    assert main(["no-such-command"]) == 2
    code = main([
        "summarize", "--log", str(log_file),
        "--seed", "Person", "--seed", "Organization", "--k", "1",
    ])
    assert code == 2
    assert "InvalidRequest" in capsys.readouterr().err


def test_base_prefix_applied(log_file, tmp_path):
    out = tmp_path / "summary.nt"
    code = main([
        "summarize", "--log", str(log_file), "--seed", "Person", "--k", "2",
        "--base-prefix", "http://ex.org/", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8") == (
        "<http://ex.org/Organization> <http://ex.org/affiliatedOf> <http://ex.org/Person> .\n"
    )


def test_malformed_base_prefix_is_a_bad_seed(log_file, capsys):
    code = main(["summarize", "--log", str(log_file), "--seed", "Person", "--k", "2",
                 "--base-prefix", "http://a b/"])
    assert code == 2
    err = capsys.readouterr().err
    assert "InvalidRequest: bad seed term" in err and "Traceback" not in err


def test_synth_then_evaluate_round_trip(tmp_path, capsys):
    workload = tmp_path / "synth.txt"
    code = main([
        "synth", "--n-queries", "400", "--classes", "12", "--predicates", "25",
        "--instances", "150", "--rng", "5", "--out", str(workload),
    ])
    assert code == 0
    results = tmp_path / "results.csv"
    code = main([
        "evaluate", "--log", str(workload), "--k", "2,3", "--folds", "2",
        "--sample-seeds", "2", "--rng", "17", "--out", str(results),
    ])
    assert code == 0
    lines = results.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "fold,seed,k,strategy,n,node_cov,edge_cov,coverage"
    assert len(lines) == 1 + 2 * 2 * 2 * 2


def test_synth_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["synth", "--n-queries", "200", "--classes", "8", "--predicates", "16",
            "--instances", "60", "--rng", "3"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_evaluate_deterministic_bytes(tmp_path):
    workload = tmp_path / "synth.txt"
    main(["synth", "--n-queries", "300", "--classes", "10", "--predicates", "20",
          "--instances", "80", "--rng", "2", "--out", str(workload)])
    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        code = main([
            "evaluate", "--log", str(workload), "--k", "2", "--folds", "1",
            "--sample-seeds", "2", "--rng", "6", "--out", str(path),
        ])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--trials", "25", "--rng", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "instance,nodes,k,exact_cost,chins_cost,ratio,status"
    assert len(lines) == 26


def test_oracle_reads_instance_directory(tmp_path):
    instances = tmp_path / "instances"
    instances.mkdir()
    (instances / "tiny.txt").write_text("3 2 1 2\n0 0.5 1\n0 1\n1 2\n0\n", encoding="utf-8")
    out = tmp_path / "oracle.csv"
    code = main([
        "oracle", "--instances", str(instances), "--trials", "0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("tiny.txt,3,2,")


@pytest.mark.parametrize("content", [
    pytest.param("3 2 1 2\n0 0.5 1\n0 1\n1 2\n", id="truncated"),
    pytest.param("3 2 1 2\n0 0.5 x\n0 1\n1 2\n0\n", id="non-numeric"),
    pytest.param("3 2 1 2\n0 0.5 1\n0 1\n1 2\n0 9\n", id="trailing"),
    pytest.param("3 2 1 4\n0 0.5 1\n0 1\n1 2\n0\n", id="k-above-n"),
    pytest.param("3 2 2 1\n0 0.5 1\n0 1\n1 2\n0 1\n", id="k-below-terminals"),
    pytest.param("3 2 1 2\n0 nan 1\n0 1\n1 2\n0\n", id="nan-weight"),
    pytest.param("3 2 1 2\n0 inf 1\n0 1\n1 2\n0\n", id="inf-weight"),
    pytest.param(None, id="unreadable"),
])
def test_oracle_malformed_instance_file_is_data_error(content, tmp_path, capsys):
    instances = tmp_path / "instances"
    instances.mkdir()
    bad = instances / "bad.txt"
    if content is None:
        bad.mkdir()  # reading a directory raises an OSError, even for root
    else:
        bad.write_text(content, encoding="utf-8")
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--instances", str(instances), "--trials", "0", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad.txt" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("options", [
    ["--skew", "-2"],
    ["--mean-patterns", "-1"],
    ["--mean-patterns", "0.5"],
    ["--n-queries", "0"],
    ["--skew", "nan"],
    ["--mean-patterns", "nan"],
    ["--skew", "inf"],
    ["--mean-patterns", "inf"],
])
def test_synth_bad_spec_exits_two_before_writing(options, tmp_path, capsys):
    out = tmp_path / "log.txt"
    code = main(["synth", "--n-queries", "10", *options, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_oracle_negative_trials_exits_two(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--trials", "-3", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options", [
    ["--format", "tsv"],
    ["--tsv-column", "1"],
    ["--format", "raw-lines", "--tsv-column", "0"],
    ["--format", "tsv", "--tsv-column", "-5"],
    ["--format", "tsv", "--tsv-column", "-1"],
])
def test_log_option_usage_errors_exit_two(options, tmp_path, capsys):
    # the log does not exist: a usage error must be reported before any load
    absent = str(tmp_path / "absent.tsv")
    for command in (
        ["summarize", "--seed", "Person", "--k", "2"],
        ["evaluate"],
    ):
        assert main(command + ["--log", absent] + options) == 2
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("budgets", ["", "0", "5,0", "5,-1", "5,,10", "x", "5,5", "5,10,5"])
def test_evaluate_bad_budget_list_exits_two_before_load(budgets, tmp_path, capsys):
    code = main(["evaluate", "--log", str(tmp_path / "absent.txt"), "--k", budgets])
    assert code == 2
    assert "IoError" not in capsys.readouterr().err


@pytest.mark.parametrize("strategies", ["", ",", "isummary,isummary", "random,isummary,random",
                                        "isummary,nope", "isummary,", "isummary,,random",
                                        ",random"])
def test_evaluate_bad_strategy_list_exits_two_before_load(strategies, tmp_path, capsys):
    code = main(["evaluate", "--log", str(tmp_path / "absent.txt"), "--strategies", strategies])
    assert code == 2
    err = capsys.readouterr().err
    assert "InvalidRequest" in err and "IoError" not in err


@pytest.mark.parametrize("options", [
    ["--split", "1.5"],
    ["--folds", "0"],
    ["--w-node", "0.7"],
])
def test_evaluate_bad_protocol_option_exits_two_before_load(options, tmp_path, capsys):
    code = main(["evaluate", "--log", str(tmp_path / "absent.txt"), *options])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "IoError" not in err


@pytest.mark.parametrize("options", [
    ["--k", "0"],
    ["--k", ","],
    ["--folds", "0"],
    ["--split", "1.5"],
    ["--sample-seeds", "0"],
    ["--format", "tsv"],
    ["--w-node", "0.5"],  # the weights are evaluate's alone
    ["--k", "5,5"],
])
def test_reference_protocol_usage_errors_exit_two_before_load(options, tmp_path):
    # the log does not exist, so exit 2 without a traceback shows the check ran first
    script = Path(__file__).resolve().parents[1] / "scripts" / "reference_protocol.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--log", str(tmp_path / "absent.txt"), *options],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


@pytest.mark.parametrize("command,option", [
    ("summarize", "--out"),
    ("summarize", "--report"),
    ("evaluate", "--out"),
    ("oracle", "--out"),
    ("synth", "--out"),
])
def test_unwritable_output_is_io_error(command, option, tmp_path, capsys):
    log = tmp_path / "log.txt"
    generate_synthetic(SyntheticSpec(n_queries=200, classes=8, predicates=16, instances=60), log)
    args = {
        "summarize": ["summarize", "--log", str(log), "--seed", "Class0", "--k", "2"],
        "evaluate": ["evaluate", "--log", str(log), "--k", "2", "--folds", "1",
                     "--sample-seeds", "2"],
        "oracle": ["oracle", "--trials", "1"],
        "synth": ["synth", "--n-queries", "5"],
    }[command]
    target = tmp_path / "missing" / "out.txt"
    assert main(args + [option, str(target)]) == 3
    assert f"IoError: cannot write {target}: " in capsys.readouterr().err
    assert not target.parent.exists()


@pytest.mark.parametrize("target", ["missing/out.csv", "a-file/out.csv", "a-directory"])
def test_evaluate_unwritable_out_fails_before_load(target, tmp_path, monkeypatch, capsys):
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    (tmp_path / "a-directory").mkdir()
    loads = []
    real_load = workload.load_workload
    monkeypatch.setattr(workload, "load_workload",
                        lambda *args, **kwargs: loads.append(args) or real_load(*args, **kwargs))
    out = tmp_path / target
    code = main(["evaluate", "--log", str(UNIVERSITY_FILE), "--k", "2", "--folds", "1",
                 "--sample-seeds", "1", "--out", str(out)])
    assert code == 3
    assert f"IoError: cannot write {out}: " in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "missing").exists() and (tmp_path / "a-file").is_file()


@pytest.mark.parametrize("option", ["--out", "--report"])
def test_summarize_unwritable_output_fails_before_load(option, tmp_path, monkeypatch, capsys):
    loads = []
    real_load = workload.load_workload
    monkeypatch.setattr(workload, "load_workload",
                        lambda *args, **kwargs: loads.append(args) or real_load(*args, **kwargs))
    target = tmp_path / "missing" / "x.nt"
    code = main(["summarize", "--log", str(UNIVERSITY_FILE), "--seed", "Person", "--k", "2",
                 option, str(target)])
    assert code == 3
    assert f"IoError: cannot write {target}: " in capsys.readouterr().err
    assert loads == []
    assert not target.parent.exists()


def test_reference_protocol_reports_mean_coverage_per_budget(tmp_path):
    log = tmp_path / "log.txt"
    generate_synthetic(SyntheticSpec(n_queries=200), log)
    script = Path(__file__).resolve().parents[1] / "scripts" / "reference_protocol.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--log", str(log),
         "--k", "2", "--folds", "1", "--sample-seeds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "loaded 200 queries (0 rejected)" in proc.stdout
    assert "k=2: mean coverage " in proc.stdout


def test_summarize_request_checked_before_load(tmp_path, capsys):
    code = main([
        "summarize", "--log", str(tmp_path / "absent.txt"),
        "--seed", "Person", "--seed", "Organization", "--k", "1",
    ])
    assert code == 2
    assert "InvalidRequest" in capsys.readouterr().err


def test_tsv_log_with_column(tmp_path, capsys):
    path = tmp_path / "log.tsv"
    path.write_text(
        "".join(f"{i}\t{line}\n" for i, line in enumerate(UNIVERSITY_FILE.read_text(
            encoding="utf-8").splitlines())),
        encoding="utf-8",
    )
    code = main(["summarize", "--log", str(path), "--format", "tsv", "--tsv-column", "1",
                 "--seed", "Person", "--k", "2"])
    assert code == 0
    assert capsys.readouterr().out == "<Organization> <affiliatedOf> <Person> .\n"
