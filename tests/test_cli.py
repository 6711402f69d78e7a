import json
import os
import subprocess
import sys

import pytest

from tracemdp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> learn -> build once for the whole module."""
    root = tmp_path_factory.mktemp("pipe")
    corpus = root / "corpus"
    config = root / "gen.json"
    config.write_text(json.dumps({"seed": 11, "n_baseline": 120, "n_anomalous": 60}))
    assert main(["gen", "--config", str(config), "--out", str(corpus)]) == 0
    tree = root / "tree.json"
    assert (
        main(["learn", "--log", str(corpus / "baseline.jsonl"), "--out", str(tree)]) == 0
    )
    store = root / "store"
    assert (
        main(
            [
                "build",
                "--log",
                str(corpus / "baseline.jsonl"),
                "--tree",
                str(tree),
                "--out",
                str(store),
            ]
        )
        == 0
    )
    return {"root": root, "corpus": corpus, "tree": tree, "store": store}


class TestPipeline:
    def test_store_artifacts_exist(self, pipeline):
        for name in ("tree.json", "model.tra", "model.lab", "manifest.json"):
            assert (pipeline["store"] / name).exists()

    def test_check_reports_value_in_range(self, pipeline, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--store", str(pipeline["store"]), "--prop", 'Pmax=? [F "success"]'
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["value"] <= 1.0
        assert payload["per_initial_state"]

    def test_check_violation_exit_code(self, pipeline, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--store",
            str(pipeline["store"]),
            "--prop",
            'Pmax<=0.001 [F "success"]',
        )
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_score_and_report(self, pipeline, capsys, tmp_path):
        scores = tmp_path / "scores.jsonl"
        code, _, _ = run_cli(
            capsys,
            "score",
            "--store",
            str(pipeline["store"]),
            "--log",
            str(pipeline["corpus"] / "anomalous.jsonl"),
            "--out",
            str(scores),
        )
        assert code == 0
        records = [json.loads(l) for l in scores.read_text().splitlines()]
        assert len(records) == 60
        for record in records:
            assert set(record) == {
                "trace_id",
                "loglik",
                "length",
                "verdict",
                "checkpoint_warnings",
                "unseen_transition_at",
            }
        code, out, _ = run_cli(
            capsys,
            "report",
            "--scores",
            str(scores),
            "--truth",
            str(pipeline["corpus"] / "anomalies.jsonl"),
            "--json",
        )
        assert code == 0
        summary = json.loads(out)
        counts = summary["counts"]["per_anomaly"]
        assert sum(row["n"] for row in counts.values()) == 60
        # Verdict accounting adds up: flagged = TP across classes (no negatives here).
        flagged = sum(1 for r in records if r["verdict"] == "anomalous")
        assert flagged == sum(row["flagged"] for row in counts.values())

    def test_monitor_once_matches_score(self, pipeline, capsys, tmp_path):
        target = pipeline["corpus"] / "anomalous.jsonl"
        scores = tmp_path / "scores.jsonl"
        run_cli(
            capsys,
            "score",
            "--store",
            str(pipeline["store"]),
            "--log",
            str(target),
            "--out",
            str(scores),
        )
        code, out, _ = run_cli(
            capsys,
            "monitor",
            "--store",
            str(pipeline["store"]),
            "--follow",
            str(target),
            "--once",
        )
        assert code == 0
        streamed: dict[str, list] = {}
        unseen: dict[str, int] = {}
        for line in out.splitlines():
            alert = json.loads(line)
            if alert["kind"] == "checkpoint":
                streamed.setdefault(alert["trace_id"], []).append(
                    {
                        "k": alert["k"],
                        "loglik_k": alert["loglik_k"],
                        "threshold": alert["threshold"],
                    }
                )
            else:
                unseen[alert["trace_id"]] = alert["step"]
        for record in (json.loads(l) for l in scores.read_text().splitlines()):
            assert streamed.get(record["trace_id"], []) == record["checkpoint_warnings"]
            assert unseen.get(record["trace_id"]) == record["unseen_transition_at"]

    def test_refine_trivially_verified(self, pipeline, capsys, tmp_path):
        itlog = tmp_path / "iters.jsonl"
        code, out, _ = run_cli(
            capsys,
            "refine",
            "--store",
            str(pipeline["store"]),
            "--prop",
            'Pmin<=0.05 [F "failure"]',
            "--max-iters",
            "5",
            "--iteration-log",
            str(itlog),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "verified"
        entries = [json.loads(l) for l in itlog.read_text().splitlines()]
        assert entries and {"iter", "leaves", "bound", "verdict", "action"} <= set(entries[0])

    def test_export_round_trip(self, pipeline, capsys, tmp_path):
        out_dir = tmp_path / "exported"
        code, _, _ = run_cli(
            capsys,
            "export",
            "--store",
            str(pipeline["store"]),
            "--format",
            "prism-explicit",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert (out_dir / "model.tra").read_bytes() == (
            pipeline["store"] / "model.tra"
        ).read_bytes()

    def test_gen_determinism_via_cli(self, pipeline, capsys, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"seed": 11, "n_baseline": 120, "n_anomalous": 60}))
        code, _, _ = run_cli(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "c2"))
        assert code == 0
        original = (pipeline["corpus"] / "baseline.jsonl").read_bytes()
        assert (tmp_path / "c2" / "baseline.jsonl").read_bytes() == original


class TestSavedStore:
    def test_changed_log_is_refused(self, pipeline, capsys, tmp_path):
        log = tmp_path / "train.jsonl"
        log.write_bytes((pipeline["corpus"] / "baseline.jsonl").read_bytes())
        store = tmp_path / "store"
        argv = ["build", "--log", str(log), "--tree", str(pipeline["tree"]), "--out", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        log.write_bytes((pipeline["corpus"] / "anomalous.jsonl").read_bytes())
        prop = 'Pmax=? [F "success"]'
        code, out, err = run_cli(capsys, "check", "--store", str(store), "--prop", prop)
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "StaleLog"
        assert str(store) in error["message"] and str(log) in error["message"]
        # Naming the log explicitly overrides the manifest's log and its hash.
        code, _, _ = run_cli(capsys, "check", "--store", str(store), "--prop", prop, "--log", str(log))
        assert code == 0

    def test_refine_builds_the_store_once(self, pipeline, capsys, monkeypatch):
        import tracemdp.linked_store as linked_store
        import tracemdp.refinement as refinement

        builds = []
        original = linked_store.build

        def counting_build(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(linked_store, "build", counting_build)
        monkeypatch.setattr(refinement, "build", counting_build)
        code, out, _ = run_cli(
            capsys, "refine", "--store", str(pipeline["store"]), "--prop", 'Pmin<=0.05 [F "failure"]'
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "verified"
        assert len(builds) == 1

    def test_score_routes_each_state_once(self, pipeline, capsys, monkeypatch, tmp_path):
        from tracemdp.predicate_tree import PredicateTree
        from tracemdp.trace_model import read_trace_log

        train = pipeline["corpus"] / "baseline.jsonl"
        target = pipeline["corpus"] / "anomalous.jsonl"
        states = sum(t.n_states for path in (train, target) for t in read_trace_log(str(path)))
        calls = []
        original = PredicateTree.abstract

        def counting_abstract(self, state):
            calls.append(state)
            return original(self, state)

        monkeypatch.setattr(PredicateTree, "abstract", counting_abstract)
        argv = ["score", "--store", str(pipeline["store"]), "--log", str(target)]
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "scores.jsonl"))
        assert code == 0
        assert len(calls) == states


class TestErrors:
    def test_bad_property_exit_2(self, pipeline, capsys):
        code, _, err = run_cli(
            capsys, "check", "--store", str(pipeline["store"]), "--prop", "gibberish"
        )
        assert code == 2
        assert json.loads(err)["error"] == "PropertySyntaxError"

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "learn", "--log", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "t")
        )
        assert code == 3
        assert "error" in json.loads(err)

    def test_malformed_log_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code, _, err = run_cli(
            capsys, "learn", "--log", str(bad), "--out", str(tmp_path / "t")
        )
        assert code == 3
        assert json.loads(err)["error"] == "MalformedRecord"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn"])  # missing required flags
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '[{"name":"x","mode":"all","atoms":[{"type":"text_eq","var":"lastFileRead","expected":"b"}]}]',
            '[{"name":"x","mode":"most","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":true}]}]',
            '[{"name":"x","mode":"all","atoms":[{"type":"num_gt","var":"iteration"}]}]',
            "not json",
        ],
        ids=["text_atom", "unknown_mode", "missing_threshold", "not_json"],
    )
    def test_malformed_labels_exit_3(self, pipeline, capsys, tmp_path, text):
        labels = tmp_path / "labels.json"
        labels.write_text(text)
        code, out, err = run_cli(
            capsys,
            "build",
            "--log",
            str(pipeline["corpus"] / "baseline.jsonl"),
            "--tree",
            str(pipeline["tree"]),
            "--labels",
            str(labels),
            "--out",
            str(tmp_path / "store"),
        )
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidConfig"
        assert str(labels) in error["message"]


def run_monitor(store, follow, *flags):
    """`tracemdp monitor` in a subprocess; a reader that hangs fails the test."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, "-m", "tracemdp.cli", "monitor", "--store", str(store), "--follow", str(follow)]
    return subprocess.run([*argv, *flags], capture_output=True, text=True, env=env, timeout=60)


class TestMonitorReaderErrors:
    def test_missing_file_exit_3(self, pipeline, tmp_path):
        proc = run_monitor(pipeline["store"], tmp_path / "nope.jsonl")
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "FileNotFoundError"

    def test_undecodable_file_exit_3(self, pipeline, tmp_path):
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(b'{"trace_id":"\xe9"}\n')
        proc = run_monitor(pipeline["store"], bad)
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "UnicodeDecodeError"

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf", "soon"])
    def test_bad_interval_exit_2(self, pipeline, interval):
        log = pipeline["corpus"] / "anomalous.jsonl"
        proc = run_monitor(pipeline["store"], log, "--interval", interval)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--interval" in proc.stderr
