import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemdp.errors import InvalidConfig
from tracemdp.generator import ANOMALY_KINDS, GeneratorConfig, _emit_trace, generate_corpus
from tracemdp.trace_model import TerminalStatus, read_trace_log


def read_sidecar(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                out[record["trace_id"]] = record["anomaly"]
    return out


class TestGenerateCorpus:
    def test_counts(self, tmp_path):
        cfg = GeneratorConfig(seed=1, n_baseline=20, n_anomalous=12)
        paths = generate_corpus(cfg, str(tmp_path))
        assert len(read_trace_log(paths.baseline)) == 20
        assert len(read_trace_log(paths.anomalous)) == 12

    def test_deterministic_bytes(self, tmp_path):
        cfg = GeneratorConfig(seed=7, n_baseline=15, n_anomalous=15)
        a = generate_corpus(cfg, str(tmp_path / "a"))
        b = generate_corpus(cfg, str(tmp_path / "b"))
        for x, y in (
            (a.baseline, b.baseline),
            (a.anomalous, b.anomalous),
            (a.sidecar, b.sidecar),
        ):
            assert open(x, "rb").read() == open(y, "rb").read()

    def test_schema_and_phases(self, tmp_path):
        cfg = GeneratorConfig(seed=3, n_baseline=10, n_anomalous=0)
        paths = generate_corpus(cfg, str(tmp_path))
        log = read_trace_log(paths.baseline)
        assert log.schema == (
            {"task": "text"},
            {"opsCompleted": "boolean"},
            {"filesWrittenCount": "integer", "iteration": "integer", "lastFileRead": "text"},
        )
        max_writes = max(2, round(cfg.write_ratio_max * cfg.length_max))
        for trace in log:
            assert 2 <= len(trace) <= cfg.read_cap + max_writes
            assert trace.terminal_status is TerminalStatus.SUCCESS
            ops = list(trace.actions)
            flip = ops.index("writeFile")
            assert all(op == "readFile" for op in ops[:flip])
            assert all(op == "writeFile" for op in ops[flip:])
            assert ops.count("writeFile") >= 2
            # Completion flag set exactly on the final snapshot.
            for i, state in enumerate(trace.states):
                done = state.value("opsCompleted")
                assert done == (i == trace.n_states - 1)

    def test_too_long_exceeds_baseline_max(self, tmp_path):
        cfg = GeneratorConfig(
            seed=5,
            n_baseline=0,
            n_anomalous=10,
            anomaly_weights={"too_long": 1.0},
        )
        paths = generate_corpus(cfg, str(tmp_path))
        log = read_trace_log(paths.anomalous)
        max_baseline = cfg.read_cap + max(2, round(cfg.write_ratio_max * cfg.length_max))
        for trace in log:
            assert len(trace) >= cfg.too_long_min > max_baseline
            assert trace.terminal_status is TerminalStatus.FAILURE  # budget busted

    def test_too_short_completes_prematurely(self, tmp_path):
        cfg = GeneratorConfig(
            seed=5,
            n_baseline=0,
            n_anomalous=10,
            anomaly_weights={"too_short": 1.0},
        )
        log = read_trace_log(generate_corpus(cfg, str(tmp_path)).anomalous)
        for trace in log:
            assert 1 <= len(trace) <= 2
            assert trace.states[-1].value("opsCompleted") is True
            assert trace.actions[-1] == "writeFile"

    def test_malformed_path_injects_unseen_value(self, tmp_path):
        cfg = GeneratorConfig(
            seed=5,
            n_baseline=0,
            n_anomalous=8,
            anomaly_weights={"malformed_path": 1.0},
        )
        log = read_trace_log(generate_corpus(cfg, str(tmp_path)).anomalous)
        for trace in log:
            values = {state.value("lastFileRead") for state in trace.states}
            assert cfg.malformed_value in values

    def test_sidecar_covers_each_anomalous_trace_once(self, tmp_path):
        cfg = GeneratorConfig(seed=9, n_baseline=5, n_anomalous=25)
        paths = generate_corpus(cfg, str(tmp_path))
        sidecar = read_sidecar(paths.sidecar)
        log = read_trace_log(paths.anomalous)
        assert sorted(sidecar) == sorted(t.trace_id for t in log)
        assert set(sidecar.values()) <= set(ANOMALY_KINDS)
        baseline_ids = {t.trace_id for t in read_trace_log(paths.baseline)}
        assert not baseline_ids & set(sidecar)


class TestConfigValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(anomaly_weights={"too_long": 0.5})

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(anomaly_weights={"weird": 1.0})

    def test_lengths(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(length_min=0)
        with pytest.raises(InvalidConfig):
            GeneratorConfig(length_min=10, length_max=5)

    def test_ratio_bounds(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(write_ratio_min=0.0)

    @pytest.mark.parametrize(
        "raw",
        [
            {"seed": True},
            {"length_max": 40.0},
            {"read_mean": "12"},
            {"skew_ratios": ("low", 0.98)},
            {"read_pool": 0},
            {"read_mean": float("nan")},
            [],
            [["seed", 3]],
            {"skew_ratios": []},
            {"malformed_value": 5},
            {"malformed_value": ""},
            {"malformed_value": "doc_2.txt"},
            {"malformed_value": "doc_4.txt", "read_pool": 5},
            {"anomaly_weights": []},
            {"anomaly_weights": {"too_long": float("nan")}},
        ],
        ids=[
            "bool_seed", "float_length", "text_mean", "text_ratio", "no_read_pool", "nan_mean",
            "empty_list", "pair_list", "empty_skew_ratios", "number_malformed_value",
            "empty_malformed_value", "pool_malformed_value", "wider_pool_malformed_value",
            "list_weights", "nan_weight",
        ],
    )
    def test_mistyped_or_degenerate_values(self, raw):
        with pytest.raises(InvalidConfig):
            GeneratorConfig.from_json_dict(raw)

    @pytest.mark.parametrize("value", ["doc_3.txt", "doc_01.txt", "doc_.txt", "doc_1.txt.bak"])
    def test_malformed_value_outside_the_read_pool(self, value):
        assert GeneratorConfig(malformed_value=value, read_pool=3).malformed_value == value

    def test_skew_ratios_unused_may_be_empty(self):
        cfg = GeneratorConfig(skew_ratios=(), anomaly_weights={"too_long": 0.5, "too_short": 0.5})
        assert cfg.skew_ratios == ()

    def test_from_json_round_trip(self):
        cfg = GeneratorConfig.from_json_dict({"seed": 4, "n_baseline": 7})
        assert cfg.seed == 4 and cfg.n_baseline == 7


def reference_lines(trace_id, ops, status, cfg, malformed_at=None):
    """The event records of one run as dicts, encoded by json.dumps.

    This is how the generator built its lines before the templates; the
    templates must give the same bytes.
    """

    def snapshot(iteration, files_written, last_read, done):
        return {
            "goal": {"task": "file-sync"},
            "check": {"opsCompleted": done},
            "state": {
                "filesWrittenCount": files_written,
                "iteration": iteration,
                "lastFileRead": last_read,
            },
        }

    def dumps(record):
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    lines = []
    iteration = files_written = reads_done = 0
    last_read = ""
    for seq, op in enumerate(ops):
        pre = snapshot(iteration, files_written, last_read, False)
        iteration += 1
        if op == "readFile":
            if malformed_at is not None and reads_done == malformed_at:
                last_read = cfg.malformed_value
            else:
                last_read = f"doc_{reads_done % cfg.read_pool}.txt"
            reads_done += 1
        else:
            files_written += 1
        post = snapshot(iteration, files_written, last_read, seq == len(ops) - 1)
        lines.append(dumps(
            {"trace_id": trace_id, "seq": seq, "kind": "tool_call", "action": op, "pre": pre, "post": post}
        ))
    lines.append(dumps({"trace_id": trace_id, "seq": len(ops), "kind": "terminal", "status": status}))
    return lines


# Any code point, lone surrogates included, plus the ones json must escape.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\n\t\x1f\x7f\u00fc\u2028\ud800\udfff'),
        st.characters(exclude_categories=()),
    )
)


@settings(max_examples=300, deadline=None)
@given(
    trace_id=_TEXT,
    ops=st.lists(st.one_of(st.sampled_from(["readFile", "writeFile"]), _TEXT), max_size=12),
    status=st.one_of(st.sampled_from(["success", "failure"]), _TEXT),
    malformed_value=_TEXT.filter(bool),
    read_pool=st.integers(1, 4),
    malformed_at=st.one_of(st.none(), st.integers(0, 12)),
)
def test_template_lines_equal_json_dumps_of_the_records(
    trace_id, ops, status, malformed_value, read_pool, malformed_at
):
    try:
        cfg = GeneratorConfig(malformed_value=malformed_value, read_pool=read_pool)
    except InvalidConfig:  # a baseline read path is not a malformed value
        cfg = GeneratorConfig(malformed_value=malformed_value + "!", read_pool=read_pool)
    expected = reference_lines(trace_id, ops, status, cfg, malformed_at)
    assert _emit_trace(trace_id, ops, status, cfg, malformed_at) == expected
