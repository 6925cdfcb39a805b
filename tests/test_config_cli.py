from pathlib import Path

import pytest

from divergeflow.cli import main
from divergeflow.config import ConfigError, build_spec, config_hash, load_config
from divergeflow.harness import ExperimentKind

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_VERIFY = """\
model:
  kind: lebacque
  xi: [0.7, 0.3]
diagrams:
  - {kind: del_castillo_mainline}
  - {kind: del_castillo_mainline}
  - {kind: del_castillo_ramp}
simulation:
  cells_per_link: 20
  time_steps: 800
  link_length: 10.0
  horizon: 360.0
  initial_densities: [1.0, 1.0, 0.1]
  initial_proportions: 0.7
  snapshot_every: 50
verify:
  tolerance: 5.0e-3
"""


@pytest.fixture
def verify_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(SMALL_VERIFY, encoding="utf-8")
    return path


class TestConfig:
    def test_loads_and_builds(self, verify_config):
        doc = load_config(verify_config)
        spec = build_spec(doc, ExperimentKind.RIEMANN_VERIFY)
        assert spec.sim.cells_per_link == 20
        assert spec.sim.model.xi == (0.7, 0.3)
        assert spec.tolerance == 5e-3
        assert spec.config_hash == config_hash(doc)

    def test_hash_ignores_key_order(self):
        a = {"model": {"kind": "lebacque", "xi": [0.7, 0.3]}, "verify": {"tolerance": 1e-3}}
        b = {"verify": {"tolerance": 1e-3}, "model": {"xi": [0.7, 0.3], "kind": "lebacque"}}
        assert config_hash(a) == config_hash(b)

    def test_unknown_model_kind(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("model: {kind: roundabout}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_spec(load_config(path), ExperimentKind.PROPERTY_SUITE)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_fifo_boundary_sections(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        boundaries = """\
  boundaries:
    upstream_demand: {kind: constant, value: 0.2}
    downstream_supplies:
      - {kind: neumann}
      - {kind: time_varying, offset: 0.05, amplitude: 0.03, period: 60.0}
"""
        text = SMALL_VERIFY.replace("  snapshot_every: 50\n", "  snapshot_every: 50\n" + boundaries)
        path.write_text(text, encoding="utf-8")
        doc = load_config(path)
        spec = build_spec(doc, ExperimentKind.RIEMANN_VERIFY)
        bc = spec.sim.boundaries
        assert bc.upstream_demand.value == 0.2
        assert bc.downstream_supplies[1].offset == 0.05


class TestCli:
    def test_verify_run_writes_outputs(self, verify_config, tmp_path):
        out = tmp_path / "out"
        code = main(["riemann-verify", "--config", str(verify_config), "--out", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert report.startswith("divergeflow report: riemann-verify")
        assert "verdict: PASS" in report
        header = (out / "junction.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "step,q0,q1,q2,demand_upstream,supply_down1,supply_down2,proportion1"
        )
        fields_header = (out / "fields.csv").read_text(encoding="utf-8").splitlines()[0]
        assert fields_header == "step,link,cell,density,proportion"

    def test_reruns_are_byte_identical(self, verify_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["riemann-verify", "--config", str(verify_config), "--out", str(out_a)]) == 0
        assert main(["riemann-verify", "--config", str(verify_config), "--out", str(out_b)]) == 0
        for name in ("report.txt", "junction.csv", "fields.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_verification_failure_exits_one(self, tmp_path):
        cfg = tmp_path / "tight.yaml"
        cfg.write_text(SMALL_VERIFY.replace("5.0e-3", "1.0e-13"), encoding="utf-8")
        code = main(["riemann-verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_usage_error_exits_two(self, tmp_path):
        assert main(["riemann-verify", "--config", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["no-such-command"]) == 2

    def test_nan_initial_density_exits_two(self, tmp_path):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(
            SMALL_VERIFY.replace("initial_densities: [1.0, 1.0, 0.1]", "initial_densities: [.nan, 1.0, 0.1]"),
            encoding="utf-8",
        )
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_zero_sinusoid_period_exits_two(self, tmp_path):
        cfg = tmp_path / "period.yaml"
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        assert "period: 60.0" in text
        cfg.write_text(text.replace("period: 60.0", "period: 0.0"), encoding="utf-8")
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_constant_boundary_without_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "constant.yaml"
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        assert "      - {kind: neumann}\n" in text
        cfg.write_text(text.replace("      - {kind: neumann}\n", "      - {kind: constant}\n"), encoding="utf-8")
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["demand_upstream", "supply_1", "supply_2"])
    def test_flux_map_section_missing_an_axis_exits_two(self, tmp_path, capsys, axis):
        cfg = tmp_path / "map.yaml"
        lines = (CONFIGS / "flux_map.yaml").read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.lstrip().startswith(f"{axis}:")]
        assert len(kept) == len(lines) - 1
        cfg.write_text("".join(kept), encoding="utf-8")
        assert main(["flux-map", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert axis in capsys.readouterr().err

    def test_daganzo_with_all_traffic_on_one_route_runs(self, tmp_path):
        # the last upstream cell starts with junction proportions (1, 0):
        # Daganzo's S2/x2 term reads as +inf instead of aborting the run;
        # run() itself rejects a vehicle-count drift above 1e-8
        cfg = tmp_path / "routed.yaml"
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        for old, new in (
            ("kind: lebacque", "kind: daganzo_fifo"),
            ("initial_proportions: 0.7", "initial_proportions: 1.0\n  inflow_proportions: 0.7"),
            ("resolutions: [40, 80, 160]", "resolutions: [10, 20]"),
        ):
            assert old in text
            text = text.replace(old, new)
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        assert "verdict: PASS" in (out / "report.txt").read_text(encoding="utf-8")

    def test_flux_map_run(self, tmp_path):
        cfg = tmp_path / "map.yaml"
        cfg.write_text(
            """\
model: {kind: daganzo_fifo, xi: [0.7, 0.3]}
flux_map:
  demand_upstream: 0.2
  supply_1: {start: 0.0, stop: 0.3365, count: 5}
  supply_2: {start: 0.0, stop: 0.0841, count: 5}
""",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["flux-map", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "flux_map.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "demand_upstream,supply_1,supply_2,q0,q1,q2,region"
        assert len(lines) == 26

    def test_converge_run_writes_epsilon_series(self, tmp_path):
        cfg = tmp_path / "conv.yaml"
        cfg.write_text(
            SMALL_VERIFY
            + """\
convergence:
  resolutions: [10, 20]
""",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        for cells in (10, 20):
            lines = (out / f"epsilon_M{cells}.csv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == "step,epsilon"
            assert len(lines) > 2

    def test_props_run_records_seed(self, tmp_path):
        cfg = tmp_path / "props.yaml"
        cfg.write_text(
            """\
model: {kind: lebacque, xi: [0.7, 0.3]}
properties: {samples: 60, wave_samples: 15, oracle_grid: 2}
""",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["props", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "seed: 9" in report

    def test_twelve_significant_digits(self, verify_config, tmp_path):
        out = tmp_path / "out"
        main(["riemann-verify", "--config", str(verify_config), "--out", str(out)])
        line = (out / "junction.csv").read_text(encoding="utf-8").splitlines()[1]
        value = line.split(",")[1]
        digits = value.replace("-", "").replace(".", "").lstrip("0")
        assert 0 < len(digits) <= 12
