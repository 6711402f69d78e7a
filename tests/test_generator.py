import json

import pytest

from tracemdp.errors import InvalidConfig
from tracemdp.generator import ANOMALY_KINDS, GeneratorConfig, generate_corpus
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
        assert log.schema == {
            "task": ("goal", "text"),
            "opsCompleted": ("check", "boolean"),
            "filesWrittenCount": ("state", "integer"),
            "iteration": ("state", "integer"),
            "lastFileRead": ("state", "text"),
        }
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
                done = state.value("opsCompleted").data
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
            assert trace.states[-1].value("opsCompleted").data is True
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
            values = {state.value("lastFileRead").data for state in trace.states}
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
        "kwargs",
        [
            {"seed": True},
            {"length_max": 40.0},
            {"read_mean": "12"},
            {"skew_ratios": ("low", 0.98)},
            {"read_pool": 0},
            {"read_mean": float("nan")},
        ],
        ids=["bool_seed", "float_length", "text_mean", "text_ratio", "no_read_pool", "nan_mean"],
    )
    def test_mistyped_or_degenerate_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(**kwargs)

    def test_from_json_round_trip(self):
        cfg = GeneratorConfig.from_json_dict({"seed": 4, "n_baseline": 7})
        assert cfg.seed == 4 and cfg.n_baseline == 7
