import json
import os
import shutil
import subprocess
import sys

import pytest

from tracemdp.cli import main

# num_gt thresholds that Python's json reads as floats but JSON cannot hold, by test id.
NON_FINITE = {"nan_threshold": "nan", "infinite_threshold": "inf", "negative_infinite_threshold": "-inf"}


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
        for name in ("tree.json", "model.tra", "model.lab", "manifest.json", "runs.json"):
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
        """Each target state is routed once, and no training state is: they come from runs.json."""
        from tracemdp.predicate_tree import PredicateTree
        from tracemdp.trace_model import read_trace_log

        target = pipeline["corpus"] / "anomalous.jsonl"
        states = sum(t.n_states for t in read_trace_log(str(target)))
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

    def test_read_only_commands_never_parse_the_training_log(self, pipeline, capsys, monkeypatch, tmp_path):
        import tracemdp.cli as cli
        import tracemdp.linked_store as linked_store
        import tracemdp.trace_model as trace_model

        reads = []
        original = trace_model.read_trace_log

        def recording_read(path):
            reads.append(os.path.abspath(path))
            return original(path)

        for module in (trace_model, linked_store, cli):
            monkeypatch.setattr(module, "read_trace_log", recording_read)
        store = str(pipeline["store"])
        target = str(pipeline["corpus"] / "anomalous.jsonl")
        for argv in (
            ["check", "--store", store, "--prop", 'Pmax=? [F "success"]'],
            ["export", "--store", store, "--out", str(tmp_path / "exported")],
            ["monitor", "--store", store, "--follow", target, "--once"],
        ):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0, argv[0]
        assert reads == []
        argv = ["score", "--store", store, "--log", target, "--out", str(tmp_path / "scores.jsonl")]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert reads == [os.path.abspath(target)]

    def test_store_without_runs_file_exit_3(self, pipeline, capsys, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(pipeline["store"], store)
        (store / "runs.json").unlink()
        for argv in (
            ["check", "--store", str(store), "--prop", 'Pmax=? [F "success"]'],
            ["export", "--store", str(store), "--out", str(tmp_path / "exported")],
            ["score", "--store", str(store), "--log", str(pipeline["corpus"] / "anomalous.jsonl")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", argv[0]
            error = json.loads(err)
            assert error["error"] == "FileNotFoundError"
            assert "runs.json" in error["message"]

    def test_runs_file_is_deterministic(self, pipeline, capsys, tmp_path):
        stores = [tmp_path / "a", tmp_path / "b"]
        for store in stores:
            argv = ["build", "--log", str(pipeline["corpus"] / "baseline.jsonl")]
            assert main([*argv, "--tree", str(pipeline["tree"]), "--out", str(store)]) == 0
        text = (stores[0] / "runs.json").read_bytes()
        assert text == (stores[1] / "runs.json").read_bytes()
        assert text == (pipeline["store"] / "runs.json").read_bytes()
        saved = json.loads(text)
        assert text.decode("utf-8") == json.dumps(saved, sort_keys=True, separators=(",", ":")) + "\n"
        assert set(saved) == {"labels", "runs", "schema"}


class TestMonitorRouting:
    def test_routes_each_followed_snapshot_once(self, pipeline, capsys, monkeypatch):
        """One ``abstract`` call per snapshot, and the alerts of a per-trace reference."""
        from tracemdp.anomaly import DetectorConfig, RunMonitor, checkpoint_thresholds, prefix_stats
        from tracemdp.linked_store import load_store
        from tracemdp.predicate_tree import PredicateTree
        from tracemdp.trace_model import read_trace_log
        from tracemdp.predicate_tree import abstract_trace

        target = pipeline["corpus"] / "anomalous.jsonl"
        store = load_store(str(pipeline["store"]))
        cfg = DetectorConfig()
        thresholds = checkpoint_thresholds(prefix_stats(store.runs, store.model, cfg.checkpoints), cfg.alpha)
        expected = []
        target_log = read_trace_log(str(target))
        for trace in target_log:  # the generator writes each trace's events together
            monitor = RunMonitor(store.model, thresholds)
            for step in abstract_trace(store.tree, trace).steps():
                for alert in monitor.feed(*step):
                    record = {"trace_id": trace.trace_id, **alert}
                    expected.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        assert expected

        calls = []
        original = PredicateTree.abstract

        def counting_abstract(self, state):
            calls.append(state)
            return original(self, state)

        monkeypatch.setattr(PredicateTree, "abstract", counting_abstract)
        code, out, _ = run_cli(
            capsys, "monitor", "--store", str(pipeline["store"]), "--follow", str(target), "--once"
        )
        assert code == 0
        assert out == "".join(expected)
        assert len(calls) == sum(t.n_states for t in target_log)

    def test_once_reads_on_the_calling_thread(self, pipeline, capsys, monkeypatch):
        """`monitor --once` starts no thread: none is alive while a step is fed."""
        import threading

        from tracemdp.anomaly import RunMonitor

        counts = []
        original = RunMonitor.feed

        def recording_feed(self, *step):
            counts.append(threading.active_count())
            return original(self, *step)

        monkeypatch.setattr(RunMonitor, "feed", recording_feed)
        before = threading.active_count()
        target = pipeline["corpus"] / "anomalous.jsonl"
        code, _, _ = run_cli(
            capsys, "monitor", "--store", str(pipeline["store"]), "--follow", str(target), "--once"
        )
        assert code == 0 and counts
        assert set(counts) == {before}

    def test_pre_is_routed_only_when_it_is_new(self, pipeline, labeled_store, capsys, monkeypatch, tmp_path):
        """Steps are fed abstract(pre) whether pre is given, omitted, or differs from the last post."""
        import tracemdp.cli as cli
        from tracemdp.anomaly import RunMonitor
        from tracemdp.predicate_tree import PredicateTree
        from tracemdp.trace_model import ConcreteState

        store, _train = labeled_store
        tree = PredicateTree.load(str(store / "tree.json"))

        def route(snapshot):
            return tree.abstract(ConcreteState.from_json(snapshot))

        records = [json.loads(line) for line in (pipeline["corpus"] / "baseline.jsonl").open()]
        steps = [r for r in records if r["trace_id"] == records[0]["trace_id"] and r["kind"] == "tool_call"]
        first, second, third = steps[0], steps[1], steps[3]
        assert route(third["pre"]) != route(second["post"])
        events = [
            {"trace_id": "i", "seq": 0, "kind": "initial", "state": first["pre"]},
            {**{k: v for k, v in first.items() if k != "pre"}, "trace_id": "i", "seq": 1},
            {**second, "trace_id": "p", "seq": 0},
            {**third, "trace_id": "p", "seq": 1},  # pre differs from the last post
            {**{k: v for k, v in third.items() if k != "pre"}, "trace_id": "p", "seq": 2},
        ]
        follow = tmp_path / "follow.jsonl"
        follow.write_text("".join(json.dumps(event) + "\n" for event in events))
        fed = []

        class RecordingMonitor(RunMonitor):
            def feed(self, src, action, dst):
                fed.append((src, action, dst))
                return super().feed(src, action, dst)

        monkeypatch.setattr(cli, "RunMonitor", RecordingMonitor)
        code, _, _ = run_cli(capsys, "monitor", "--store", str(store), "--follow", str(follow), "--once")
        assert code == 0
        assert fed == [
            (route(first["pre"]), first["action"], route(first["post"])),
            (route(second["pre"]), second["action"], route(second["post"])),
            (route(third["pre"]), third["action"], route(third["post"])),
            (route(third["post"]), third["action"], route(third["post"])),
        ]

    def test_snapshot_table_stays_bounded(self, pipeline, capsys, monkeypatch, tmp_path):
        """A follow log with more distinct snapshots than the bound keeps the table below it."""
        import tracemdp.cli as cli

        records = [json.loads(line) for line in (pipeline["corpus"] / "baseline.jsonl").open()]
        template = next(r for r in records if r["kind"] == "tool_call")
        bound = cli.MONITOR_SNAPSHOTS
        lines = []
        for i in range(bound // 2 + 100):  # two new snapshots per line
            pre, post = json.loads(json.dumps(template["pre"])), json.loads(json.dumps(template["post"]))
            pre["state"]["iteration"], post["state"]["iteration"] = 2 * i, 2 * i + 1
            lines.append(json.dumps({**template, "trace_id": "m", "seq": i, "pre": pre, "post": post}) + "\n")
        follow = tmp_path / "follow.jsonl"
        follow.write_text("".join(lines))
        original = cli.parse_event_line
        sizes = []

        def counting(line, schema=None, table=None):
            sizes.append(len(table))
            return original(line, schema, table)

        def tableless(line, schema=None, table=None):
            return original(line, schema)

        argv = ("monitor", "--store", str(pipeline["store"]), "--follow", str(follow), "--once")
        monkeypatch.setattr(cli, "parse_event_line", counting)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(sizes) == len(lines)
        assert bound - 2 <= max(sizes) < bound
        assert sizes[-1] < max(sizes)  # emptied once full
        monkeypatch.setattr(cli, "parse_event_line", tableless)
        assert run_cli(capsys, *argv) == (code, out, "")


@pytest.fixture(scope="module")
def labeled_store(pipeline, tmp_path_factory):
    """A deep store on baseline + anomalous runs with two rule labels and non-default modes."""
    root = tmp_path_factory.mktemp("labeled")
    train = root / "train.jsonl"
    train.write_bytes(
        (pipeline["corpus"] / "baseline.jsonl").read_bytes()
        + (pipeline["corpus"] / "anomalous.jsonl").read_bytes()
    )
    tree = root / "tree.json"
    assert main(["learn", "--log", str(train), "--out", str(tree), "--gamma", "0", "--min-leaf", "1"]) == 0
    rules = root / "rules.json"
    done = {"type": "bool_eq", "var": "opsCompleted", "expected": True}
    rules.write_text(
        json.dumps(
            [
                {"name": "done", "mode": "all", "atoms": [done]},
                {"name": "open", "mode": "any", "atoms": [{**done, "expected": False}]},
            ]
        )
    )
    store = root / "store"
    argv = ["build", "--log", str(train), "--tree", str(tree), "--out", str(store)]
    flags = ["--labels", str(rules), "--success-mode", "any", "--failure-mode", "all"]
    assert main([*argv, *flags]) == 0
    return store, train


class TestLoadIdentity:
    """A loaded store answers exactly as the store rebuilt from its log."""

    @pytest.fixture(scope="class")
    def stores(self, pipeline, labeled_store):
        return {
            "labeled": (*labeled_store, ("done", "open", "success", "failure")),
            "no_failure": (pipeline["store"], pipeline["corpus"] / "baseline.jsonl", ("success", "failure")),
        }

    @pytest.mark.parametrize("name", ["labeled", "no_failure"])
    def test_labels_as_built(self, stores, name):
        from tracemdp.linked_store import load_store

        store, _log, labels = stores[name]
        loaded = load_store(str(store)).model.labels
        assert sorted(loaded) == sorted(labels)
        assert loaded["failure"] == set()  # declared in model.lab, though no state carries it
        assert all(loaded[label] for label in labels if label != "failure")

    @pytest.mark.parametrize("name", ["labeled", "no_failure"])
    def test_check_with_and_without_log(self, stores, name, capsys):
        store, log, labels = stores[name]
        for label in labels:
            for prop in (f'Pmax=? [F "{label}"]', f'Pmin>=0.5 [F "{label}"]'):
                argv = ["check", "--store", str(store), "--prop", prop]
                loaded = run_cli(capsys, *argv)
                rebuilt = run_cli(capsys, *argv, "--log", str(log))
                assert loaded == rebuilt, prop

    @pytest.mark.parametrize("name", ["labeled", "no_failure"])
    def test_load_equals_rebuild(self, stores, name):
        from tracemdp.linked_store import build, load_store, load_store_inputs

        store, _log, _labels = stores[name]
        loaded = load_store(str(store))
        rebuilt = build(*load_store_inputs(str(store)))
        assert loaded.model == rebuilt.model
        assert loaded.runs == rebuilt.runs
        saved = json.loads((store / "runs.json").read_text())
        assert [trace_id for trace_id, _states, _actions in saved["runs"]] == [t.trace_id for t in rebuilt.log]
        assert loaded.schema == rebuilt.log.schema

    @pytest.mark.parametrize("name", ["labeled", "no_failure"])
    def test_export_equals_built_model(self, stores, name, capsys, tmp_path):
        store, _log, _labels = stores[name]
        code, _, _ = run_cli(capsys, "export", "--store", str(store), "--out", str(tmp_path))
        assert code == 0
        for fname in ("model.tra", "model.lab"):
            assert (tmp_path / fname).read_bytes() == (store / fname).read_bytes(), fname


class TestErrors:
    def test_bad_property_exit_2(self, pipeline, capsys):
        code, _, err = run_cli(
            capsys, "check", "--store", str(pipeline["store"]), "--prop", "gibberish"
        )
        assert code == 2
        assert json.loads(err)["error"] == "PropertySyntaxError"

    @pytest.mark.parametrize("command", ["check", "refine"])
    @pytest.mark.parametrize(
        "prop",
        ['Pmax<=1.5 [F "success"]', 'Pmin>=-0.2 [F "failure"]', 'Pmax<=1e400 [F "success"]'],
        ids=["above_1", "negative", "overflow_to_inf"],
    )
    def test_bound_outside_unit_interval_exit_2(self, pipeline, capsys, command, prop):
        code, out, err = run_cli(capsys, command, "--store", str(pipeline["store"]), "--prop", prop)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "PropertySyntaxError"
        assert "outside [0, 1]" in error["message"]

    def test_printed_bound_is_the_checked_bound(self, pipeline, capsys):
        prop = 'Pmin<=0.0512345678 [F "failure"]'
        code, out, _ = run_cli(capsys, "check", "--store", str(pipeline["store"]), "--prop", prop)
        assert code in (0, 1)
        assert json.loads(out)["property"] == prop

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
        "text, reason",
        [
            ('[{"name":"x","mode":"all","atoms":[{"type":"text_eq","var":"lastFileRead","expected":"b"}]}]',
             "bool_eq / num_gt atoms only"),
            ('[{"name":"x","mode":"most","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":true}]}]',
             "unknown label mode"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"num_gt","var":"iteration"}]}]', "KeyError"),
            ("not json", "JSONDecodeError"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":"false"}]}]',
             "bool_eq expected must be bool, not 'false'"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"text_eq","var":"lastFileRead","expected":5}]}]',
             "text_eq expected must be str, not 5"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"num_gt","var":"iteration","threshold":"3"}]}]',
             "num_gt threshold must be int or float, not '3'"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"num_gt","var":"iteration","threshold":true}]}]',
             "num_gt threshold must be int or float, not True"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"num_gt","var":"iteration","threshold":1%s}]}]' % ("0" * 400),
             "num_gt threshold is too large for a float"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"num_gt","var":"iteration","threshold":-Infinity}]}]',
             "num_gt threshold must be finite, not -inf"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"coll_card_gt","var":"iteration","threshold":2.7}]}]',
             "coll_card_gt threshold must be int, not 2.7"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"bool_eq","var":5,"expected":true}]}]',
             "predicate var must be a non-empty string, not 5"),
            ('[{"name":"x","mode":"all","atoms":[{"type":"bool_eq","var":"","expected":true}]}]',
             "predicate var must be a non-empty string, not ''"),
            ('[{"name":5,"mode":"all","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":true}]}]',
             "label name must be"),
            ('[{"name":"with space","mode":"all","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":true}]}]',
             "label name must be"),
            ('[{"name":"init","mode":"all","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":true}]}]',
             "label name must be"),
            ('[{"name":"ok","mode":"all","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":true}]},'
             '{"name":"ok","mode":"all","atoms":[{"type":"bool_eq","var":"opsCompleted","expected":false}]}]',
             "duplicate label rule name 'ok'"),
        ],
        ids=["text_atom", "unknown_mode", "missing_threshold", "not_json", "bool_as_string", "text_as_number",
             "threshold_as_string", "threshold_as_bool", "threshold_too_large", "threshold_infinite", "fractional_card", "var_not_string", "var_empty",
             "name_not_string", "name_with_space", "name_init", "duplicate_name"],
    )
    def test_malformed_labels_exit_3(self, pipeline, capsys, tmp_path, text, reason):
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
        assert str(labels) in error["message"] and reason in error["message"]
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "bad, line",
        [
            ("scores", "not json"),
            ("scores", '["trace_id", "verdict"]'),
            ("scores", '{"trace_id": "b"}'),
            ("scores", '{"verdict": "normal"}'),
            ("truth", '{"trace_id": "b"}'),
            ("truth", '{"anomaly": "too_long"}'),
            ("truth", '{"trace_id": ["b"], "anomaly": "too_long"}'),
        ],
        ids=["not_json", "not_object", "no_verdict", "no_score_id", "no_anomaly", "no_truth_id", "list_id"],
    )
    def test_malformed_report_input_exit_3(self, capsys, tmp_path, bad, line):
        good = {
            "scores": '{"trace_id": "a", "verdict": "anomalous"}',
            "truth": '{"trace_id": "a", "anomaly": "too_long"}',
        }
        paths = {}
        for name, first in good.items():
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(first + "\n" + (line + "\n" if name == bad else ""))
        code, out, err = run_cli(
            capsys, "report", "--scores", str(paths["scores"]), "--truth", str(paths["truth"])
        )
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "MalformedRecord"
        assert f"{paths[bad]}:2:" in error["message"]

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"seed": 1, "n_traces": 5}',
            "[1, 2]",
            '{"n_baseline": "many"}',
            '{"seed": -1}',
            '{"n_baseline": 1.5}',
            "[]",
            '[["seed", 3]]',
            '{"skew_ratios": []}',
            '{"malformed_value": 5}',
            '{"malformed_value": "doc_2.txt"}',
            '{"anomaly_weights": [], "n_anomalous": 2}',
            '{"anomaly_weights": {"too_long": NaN}, "n_anomalous": 2}',
        ],
        ids=[
            "not_json", "unknown_key", "not_object", "bad_value", "negative_seed", "float_count",
            "empty_list", "pair_list", "empty_skew_ratios", "number_malformed_value", "pool_malformed_value",
            "list_weights", "nan_weight",
        ],
    )
    def test_malformed_gen_config_exit_3(self, capsys, tmp_path, text):
        config = tmp_path / "gen.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "gen", "--config", str(config), "--out", str(tmp_path / "corpus"))
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidConfig"
        assert str(config) in error["message"]
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--epsilon", "0"),
            ("check", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--epsilon", "nan"),
            ("check", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--epsilon", "inf"),
            ("check", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--epsilon", "1e300"),
            ("check", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--epsilon", "1"),
            ("score", "--store", "{store}", "--log", "{log}", "--alpha", "0.7"),
            ("score", "--store", "{store}", "--log", "{log}", "--checkpoints", "20,10"),
            ("score", "--store", "{store}", "--log", "{log}", "--checkpoints", "10,x"),
            ("score", "--store", "{store}", "--log", "{log}", "--checkpoints", "0"),
            ("monitor", "--store", "{store}", "--follow", "{log}", "--once", "--checkpoints=-5,10"),
            ("refine", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--max-iters", "-1"),
            ("learn", "--log", "{log}", "--out", "{out}", "--max-depth", "0"),
            ("learn", "--log", "{log}", "--out", "{out}", "--gamma", "-1"),
            ("learn", "--log", "{log}", "--out", "{out}", "--gamma", "nan"),
            ("refine", "--store", "{store}", "--prop", 'Pmax=? [F "success"]', "--gamma", "-1"),
        ],
        ids=[
            "epsilon_0",
            "epsilon_nan",
            "epsilon_inf",
            "epsilon_1e300",
            "epsilon_1",
            "alpha_0.7",
            "checkpoints_decreasing",
            "checkpoints_not_int",
            "checkpoints_zero",
            "checkpoints_negative",
            "max_iters_negative",
            "max_depth_0",
            "learn_gamma_negative",
            "learn_gamma_nan",
            "refine_gamma_negative",
        ],
    )
    def test_out_of_range_flag_exit_3(self, pipeline, capsys, tmp_path, argv):
        paths = {
            "store": str(pipeline["store"]),
            "log": str(pipeline["corpus"] / "baseline.jsonl"),
            "out": str(tmp_path / "tree.json"),
        }
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "InvalidConfig"

    @staticmethod
    def damage_tree(text: str, defect: str) -> str:
        raw = json.loads(text)
        leaves = [n for n in raw["nodes"] if n["kind"] == "leaf"]
        internal = next(n for n in raw["nodes"] if n["kind"] == "internal")
        if defect == "undefined_child":
            internal["ch1"] = max(n["id"] for n in raw["nodes"]) + 1
        elif defect == "shared_abstract_id":
            leaves[1]["abstract_state_id"] = leaves[0]["abstract_state_id"]
        elif defect == "next_abstract_id_in_use":
            raw["next_abstract_id"] = max(n["abstract_state_id"] for n in leaves)
        elif defect == "no_nodes":
            del raw["nodes"]
        elif defect in NON_FINITE:
            # json writes these floats as the bare tokens NaN, Infinity and -Infinity.
            internal["predicate"] = {"type": "num_gt", "var": "iteration", "threshold": float(NON_FINITE[defect])}
        else:
            return "not json"
        return json.dumps(raw)

    @pytest.mark.parametrize(
        "defect",
        ["undefined_child", "shared_abstract_id", "next_abstract_id_in_use", "no_nodes", "not_json", *NON_FINITE],
    )
    def test_malformed_tree_exit_3(self, pipeline, capsys, tmp_path, defect):
        tree = tmp_path / "tree.json"
        tree.write_text(self.damage_tree(pipeline["tree"].read_text(), defect))
        log = str(pipeline["corpus"] / "baseline.jsonl")
        store = tmp_path / "store"
        shutil.copytree(pipeline["store"], store)
        shutil.copy(tree, store / "tree.json")
        for argv in (
            ["build", "--log", log, "--tree", str(tree), "--out", str(tmp_path / "built")],
            ["check", "--store", str(store), "--prop", 'Pmax=? [F "success"]'],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", argv[0]
            error = json.loads(err)
            assert error["error"] == "InvalidConfig"
            assert "tree.json" in error["message"]
            if defect in NON_FINITE:
                assert f"num_gt threshold must be finite, not {float(NON_FINITE[defect])!r}" in error["message"]
        assert not (tmp_path / "built").exists()

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("runs.json", lambda text: text[: len(text) // 2]),
            ("runs.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "labels"})),
            ("manifest.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "tree_file"})),
            ("manifest.json", lambda text: text[: len(text) // 2]),
            ("runs.json", lambda text: json.dumps({**json.loads(text), "labels": {"success": [999]}})),
            ("runs.json", lambda text: json.dumps({**json.loads(text), "labels": ["success"]})),
        ],
        ids=[
            "truncated_runs", "runs_without_labels", "manifest_without_tree_file", "truncated_manifest",
            "label_outside_model", "labels_as_list",
        ],
    )
    def test_damaged_store_exit_3(self, pipeline, capsys, tmp_path, name, damage):
        store = tmp_path / "store"
        shutil.copytree(pipeline["store"], store)
        (store / name).write_text(damage((store / name).read_text()))
        for argv in (
            ["check", "--store", str(store), "--prop", 'Pmax=? [F "success"]'],
            ["score", "--store", str(store), "--log", str(pipeline["corpus"] / "anomalous.jsonl")],
            ["export", "--store", str(store), "--out", str(tmp_path / "exported")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", argv[0]
            error = json.loads(err)
            assert error["error"] == "DamagedStore"
            assert name in error["message"]

    @pytest.mark.parametrize(
        "labeling",
        [
            {"success_mode": "most"},
            {"failure_mode": "none"},
            {"terminal_labels": "false"},
            {"terminal_labels": 1},
            {"success_mode": "most", "terminal_labels": "false"},
            {"rules": [{"name": "ok", "mode": "all", "atoms": [
                {"type": "bool_eq", "var": "opsCompleted", "expected": expected}]} for expected in (True, False)]},
        ],
        ids=["success_mode", "failure_mode", "text_terminal_labels", "number_terminal_labels", "both",
             "duplicate_rule_names"],
    )
    def test_bad_manifest_labeling_exit_3(self, pipeline, capsys, tmp_path, labeling):
        """A manifest's labeling config is validated, not lifted permissively, by every store reader."""
        store = tmp_path / "store"
        shutil.copytree(pipeline["store"], store)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["labeling"].update(labeling)
        (store / "manifest.json").write_text(json.dumps(manifest))
        log = str(pipeline["corpus"] / "baseline.jsonl")
        for argv in (
            ["refine", "--store", str(store), "--prop", 'Pmax<=0.5 [F "failure"]'],
            ["check", "--store", str(store), "--prop", 'Pmax=? [F "success"]', "--log", log],
            ["check", "--store", str(store), "--prop", 'Pmax=? [F "success"]'],
            ["export", "--store", str(store), "--out", str(tmp_path / "exported")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", argv[0]
            error = json.loads(err)
            assert error["error"] == "DamagedStore"
            assert "manifest.json" in error["message"]

    def test_extra_variable_exit_3(self, pipeline, capsys, tmp_path):
        """`score` and `monitor` both refuse a log with a variable the training schema lacks."""
        records = [json.loads(line) for line in (pipeline["corpus"] / "anomalous.jsonl").open()]
        for record in records:
            for key in ("pre", "post", "state"):
                if key in record:
                    record[key]["state"]["bogus"] = 1
        log = tmp_path / "bogus.jsonl"
        log.write_text("".join(json.dumps(record) + "\n" for record in records))
        store = str(pipeline["store"])
        for argv in (
            ["score", "--store", store, "--log", str(log)],
            ["monitor", "--store", store, "--follow", str(log), "--once"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", argv[0]
            error = json.loads(err)
            assert error["error"] == "SchemaViolation"

    @staticmethod
    def huge_integer_log(path) -> str:
        """Three two-step traces over an integer ``n``; one snapshot's ``n`` is 10**400."""
        lines = []
        for t, values in enumerate(([0, 1, 2], [0, 10**400, 2], [3, 4, 5])):
            snapshots = [{"goal": {"task": "t"}, "check": {"ok": False}, "state": {"n": v}} for v in values]
            for seq, action in enumerate(("a", "b")):
                lines.append({"trace_id": f"t{t}", "seq": seq, "kind": "tool_call", "action": action,
                              "pre": snapshots[seq], "post": snapshots[seq + 1]})
            lines.append({"trace_id": f"t{t}", "seq": 2, "kind": "terminal", "status": "success"})
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return str(path)

    def test_integer_too_large_for_a_float_exit_3(self, capsys, tmp_path):
        """`learn` and a `build` that routes through `num_gt` on the variable both name it."""
        log = self.huge_integer_log(tmp_path / "huge.jsonl")
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "root": 0, "next_node_id": 3, "next_abstract_id": 2,
            "nodes": [
                {"id": 0, "kind": "internal", "predicate": {"type": "num_gt", "var": "n", "threshold": 0.5},
                 "ch0": 1, "ch1": 2},
                {"id": 1, "kind": "leaf", "abstract_state_id": 0},
                {"id": 2, "kind": "leaf", "abstract_state_id": 1},
            ],
        }))
        for argv in (
            ["learn", "--log", log, "--out", str(tmp_path / "learned.json"), "--min-leaf", "1", "--gamma", "0"],
            ["build", "--log", log, "--tree", str(tree), "--out", str(tmp_path / "store")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", argv[0]
            error = json.loads(err)
            assert error["error"] == "SchemaViolation"
            assert "'n'" in error["message"]
        assert not (tmp_path / "learned.json").exists()
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_number_exit_3(self, capsys, tmp_path, value):
        """JSON has no NaN or Infinity, though Python's ``json`` parses them; `learn` names the line."""
        lines = []
        for t, values in enumerate(([0.5, 1.5, 2.5], [0.5, value, 2.5], [3.5, 4.5, 5.5])):
            snapshots = [{"goal": {}, "check": {}, "state": {"x": v}} for v in values]
            for seq, action in enumerate(("a", "b")):
                lines.append({"trace_id": f"t{t}", "seq": seq, "kind": "tool_call", "action": action,
                              "pre": snapshots[seq], "post": snapshots[seq + 1]})
            lines.append({"trace_id": f"t{t}", "seq": 2, "kind": "terminal", "status": "success"})
        log = tmp_path / "non-finite.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out_tree = tmp_path / "learned.json"
        code, out, err = run_cli(capsys, "learn", "--log", str(log), "--out", str(out_tree), "--min-leaf", "1")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "MalformedRecord", "message": f"line 4: unsupported JSON value: {value!r}"}
        assert not out_tree.exists()

    def test_undeclared_label_exit_3(self, pipeline, capsys):
        code, out, err = run_cli(
            capsys, "check", "--store", str(pipeline["store"]), "--prop", 'Pmax=? [F "nolabel"]'
        )
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "UnknownLabel"
        assert "'nolabel'" in error["message"] and "'success'" in error["message"]


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

    def test_follow_completes_a_partial_line(self, tmp_path, monkeypatch):
        """Polling waits for the writer to end a partial line; ``once`` yields it as it stands."""
        import tracemdp.cli as cli

        path = tmp_path / "log.jsonl"
        path.write_text("one\ntw")
        assert list(cli._follow(str(path), True, 0.0)) == ["one\n", "tw"]

        def writer_finishes_the_line(_seconds):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("o\n")

        monkeypatch.setattr(cli.time, "sleep", writer_finishes_the_line)
        lines = cli._follow(str(path), False, 0.0)
        assert [next(lines), next(lines)] == ["one\n", "two\n"]
        lines.close()

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf", "soon"])
    def test_bad_interval_exit_2(self, pipeline, interval):
        log = pipeline["corpus"] / "anomalous.jsonl"
        proc = run_monitor(pipeline["store"], log, "--interval", interval)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--interval" in proc.stderr


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs each argv through cli.main in one process, then prints the loaded
# numpy and tracemdp modules as JSON on stderr.
LOADED_MODULES_SCRIPT = """
import json, sys
from tracemdp.cli import main
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version
        code = exc.code
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "tracemdp"))), file=sys.stderr)
"""


def loaded_modules(*argvs) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


class TestImports:
    def test_read_path_commands_do_not_load_numpy(self, pipeline, tmp_path):
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"trace_id": "a", "verdict": "anomalous"}\n')
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"trace_id": "a", "anomaly": "too_long"}\n')
        store = str(tmp_path / "store")
        anomalous = str(pipeline["corpus"] / "anomalous.jsonl")
        loaded = loaded_modules(
            ["build", "--log", str(pipeline["corpus"] / "baseline.jsonl"),
             "--tree", str(pipeline["tree"]), "--out", store],
            ["export", "--store", store, "--out", str(tmp_path / "export")],
            ["report", "--scores", str(scores), "--truth", str(truth), "--json"],
            ["--version"],
            ["check", "--store", store, "--prop", 'Pmin=? [F "failure"]'],
            ["check", "--store", store, "--prop", 'Pmax>=0.5 [F "success"]'],
            ["score", "--store", store, "--log", anomalous, "--out", str(tmp_path / "scored.jsonl")],
            ["monitor", "--store", store, "--follow", anomalous, "--once"],
        )
        assert (tmp_path / "export" / "model.tra").exists() and (tmp_path / "scored.jsonl").exists()
        assert {"tracemdp.linked_store", "tracemdp.checker", "tracemdp.anomaly"} <= set(loaded)
        assert not [m for m in loaded if m.split(".")[0] == "numpy"]

    def test_pipeline_commands_do_not_load_the_generator(self, pipeline, tmp_path):
        log = str(pipeline["corpus"] / "baseline.jsonl")
        anomalous = str(pipeline["corpus"] / "anomalous.jsonl")
        tree, store = str(tmp_path / "tree.json"), str(tmp_path / "store")
        loaded = loaded_modules(
            ["learn", "--log", log, "--out", tree],
            ["build", "--log", log, "--tree", tree, "--out", store],
            ["check", "--store", store, "--prop", 'Pmax=? [F "success"]'],
            ["score", "--store", store, "--log", anomalous, "--out", str(tmp_path / "scores.jsonl")],
            ["monitor", "--store", store, "--follow", anomalous, "--once"],
            ["refine", "--store", store, "--prop", 'Pmax>=0 [F "success"]', "--max-iters", "1"],
            ["export", "--store", store, "--out", str(tmp_path / "export")],
        )
        assert "tracemdp.refinement" in loaded
        assert "tracemdp.generator" not in loaded
        # learn and refine split by plain-Python class counts: only gen loads numpy.
        assert not [m for m in loaded if m.split(".")[0] == "numpy"]

    def test_cli_imports_every_traced_layer(self):
        """``import tracemdp.cli`` loads every traced layer that is a module of the package."""
        sys.path.insert(0, os.path.join(REPO, "perfbench"))
        try:
            from layers import LAYERS
        finally:
            sys.path.pop(0)
        package = os.path.join(REPO, "src", "tracemdp")
        present = [m for m in LAYERS if os.path.isfile(os.path.join(package, f"{m}.py"))]
        loaded = loaded_modules()
        assert present and not [m for m in present if f"tracemdp.{m}" not in loaded]
