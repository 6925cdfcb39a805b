import ast
import csv
import hashlib
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from divergeflow import cli, config, ctm, del_castillo_mainline, del_castillo_ramp, greenshields, triangular, waves
from divergeflow.cli import _BLOCK_ROWS, _write_table, main
from divergeflow.config import ConfigError, build_spec, config_hash, load_config
from divergeflow.ctm import BoundaryCondition, BoundarySpec, SimConfig
from divergeflow.fundamental_diagram import DiagramKind, FundamentalDiagram
from divergeflow.harness import ExperimentKind, ExperimentSpec
from divergeflow.riemann import DivergeModel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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
# SMALL_VERIFY's simulation section, which some cases remove
SMALL_SIMULATION = SMALL_VERIFY[SMALL_VERIFY.index("simulation:"):SMALL_VERIFY.index("verify:")]


# Every shipped config and the experiment its header comment runs it with.
SHIPPED = {
    "convergence.yaml": ExperimentKind.CONVERGENCE,
    "diverge_verify.yaml": ExperimentKind.RIEMANN_VERIFY,
    "diverge_verify_interior.yaml": ExperimentKind.RIEMANN_VERIFY,
    "flux_map.yaml": ExperimentKind.FLUX_MAP,
    "props.yaml": ExperimentKind.PROPERTY_SUITE,
    "props_triangular.yaml": ExperimentKind.PROPERTY_SUITE,
}


# Every CSV file the data-writing experiments write on their shipped config.
SHIPPED_CSVS = {
    "riemann-verify": ("diverge_verify.yaml", ("fields.csv", "junction.csv")),
    "converge": ("convergence.yaml", ("epsilon_M40.csv", "epsilon_M80.csv", "epsilon_M160.csv")),
    "flux-map": ("flux_map.yaml", ("flux_map.csv",)),
}


# Every check name of the shipped reports, its link and resolution numbers
# read as *, and what makes it read FAIL: the tier-1 test that plants its
# defect (file::class::function), "by design" for a record that always
# passes, or "cannot fail today" with the CHANGES.md FOUND line that says why.
_HARNESS = "test_harness.py::"
_VERIFY = _HARNESS + "TestVerifyFailLines::"
_PROPS = _HARNESS + "TestPropsCounterexampleLines::"
_KERNEL_DEFECT = _HARNESS + "TestPropertySuite::test_first_counterexamples_follow_sample_then_case_order"
_SELF_COMPARED = "cannot fail today: FOUND: `src/divergeflow/harness.py` `_flux_battery`"
CHECK_DEFECTS = {
    "junction-flux-q0": _VERIFY + "test_junction_flux",
    "junction-flux-q1": _VERIFY + "test_junction_flux",
    "junction-flux-q2": _VERIFY + "test_junction_flux",
    "link*-adjacent-state": _VERIFY + "test_junction_cell_against_the_interior_state",
    "link*-adjacent-density": _VERIFY + "test_junction_cell_against_the_interior_state",
    "link*-stationary-state": _VERIFY + "test_next_cell_against_the_stationary_state",
    "link*-stationary-density": _VERIFY + "test_next_cell_against_the_stationary_state",
    "junction-cell-proportion": _VERIFY + "test_junction_cell_proportion",
    "upstream-proportions-constant": _VERIFY + "test_upstream_proportions_constant",
    "link*-wave-kind": "by design",
    "link*-shock-position": _VERIFY + "test_measured_shock_position",
    "link*-rarefaction-extent": _HARNESS + "TestWaveChecks::test_zone_wider_than_two_cells_beyond_the_fan_fails",
    "epsilon-final-M*": "by design",
    "epsilon-decreases-M*-to-M*": _HARNESS + "test_converge_reports_an_epsilon_that_does_not_decrease",
    "grid-evaluated": "by design",
    "region-labels-consistent": (
        _HARNESS + "TestFluxMap::test_region_check_compares_the_kernel_q0_with_the_minimum_term"
    ),
    "conservation-exact": _PROPS + "test_conservation_residual",
    "flux-bounds": _KERNEL_DEFECT,
    "fifo-split": _KERNEL_DEFECT,
    "daganzo-lebacque-equal": _SELF_COMPARED,
    "supply-proportional-is-capacity-priority": _SELF_COMPARED,
    "partial-reduces-to-daganzo": _KERNEL_DEFECT,
    "partial-reduces-to-priority": _SELF_COMPARED,
    "partial-route-guarantee": _PROPS + "test_partial_route_guarantee",
    "evacuation-optimality": _KERNEL_DEFECT,
    "invariance-at-interior-states": _KERNEL_DEFECT,
    "admissibility": _PROPS + "test_upstream_wave_sign",
    "wave-speed-signs": _PROPS + "test_upstream_wave_sign",
    "oracle-agreement": _PROPS + "test_oracle_survivor_count",
}


@pytest.fixture(scope="module")
def shipped_outputs(tmp_path_factory):
    """The output directory of each data-writing experiment run once on its
    shipped config."""
    outs = {}
    for command, (name, _) in SHIPPED_CSVS.items():
        outs[command] = tmp_path_factory.mktemp(command)
        assert main([command, "--config", str(CONFIGS / name), "--out", str(outs[command])]) == 0
    return outs


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

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_every_shipped_config_builds_for_its_experiment(self, name):
        assert sorted(path.name for path in CONFIGS.glob("*.yaml")) == sorted(SHIPPED)
        kind = SHIPPED[name]
        path = CONFIGS / name
        header = path.read_text(encoding="utf-8").split("\nmodel:")[0]
        assert f"divergeflow {kind.value} --config configs/{name} " in header
        spec = build_spec(load_config(path), kind)
        assert spec.kind is kind

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_every_shipped_config_loads_to_the_pure_python_document(self, name):
        """Whichever loader PyYAML offers, a shipped config reads as the
        document (and so the hash) of the pure-Python safe_load."""
        path = CONFIGS / name
        reference = yaml.safe_load(path.read_text(encoding="utf-8"))
        doc = load_config(path)
        assert doc == reference
        assert config_hash(doc) == config_hash(reference)

    def test_malformed_yaml_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "unclosed.yaml"
        cfg.write_text(SMALL_VERIFY.replace("xi: [0.7, 0.3]", "xi: [0.7, 0.3"), encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(cfg)
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "cannot parse config" in capsys.readouterr().err

    def test_number_string_reads_as_a_number(self, tmp_path):
        # PyYAML reads 5e-3 (no dot) as a string
        path = tmp_path / "cfg.yaml"
        path.write_text(SMALL_VERIFY.replace("tolerance: 5.0e-3", "tolerance: 5e-3"), encoding="utf-8")
        doc = load_config(path)
        assert doc["verify"]["tolerance"] == "5e-3"
        assert build_spec(doc, ExperimentKind.RIEMANN_VERIFY).tolerance == 0.005

    @pytest.mark.parametrize(
        "trio, factories",
        [
            (("del_castillo_mainline", "del_castillo_mainline", "del_castillo_ramp"),
             (del_castillo_mainline, del_castillo_mainline, del_castillo_ramp)),
            (("triangular", "triangular", "greenshields"), (triangular, triangular, greenshields)),
        ],
        ids=["del-castillo", "triangular"],
    )
    def test_omitted_keys_take_the_defaults_the_types_declare(self, tmp_path, trio, factories):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {kind: supply_proportional}\n"
            f"diagrams: [{', '.join(f'{{kind: {kind}}}' for kind in trio)}]\n"
            "simulation:\n  cells_per_link: 20\n  time_steps: 800\n"
            "  boundaries: {upstream_demand: {kind: time_varying}}\n",
            encoding="utf-8",
        )
        spec = build_spec(load_config(path), ExperimentKind.RIEMANN_VERIFY)

        def declared(cls, skip=()):
            return {
                f.name: f.default if f.default_factory is MISSING else f.default_factory()
                for f in fields(cls)
                if f.init and f.name not in skip and (f.default is not MISSING or f.default_factory is not MISSING)
            }

        def held(obj, names):
            return {name: getattr(obj, name) for name in names}

        want = declared(ExperimentSpec, skip=("sweep", "seed", "config_hash"))
        assert held(spec, want) == want
        want = declared(SimConfig, skip=("boundaries",))
        assert held(spec.sim, want) == want
        assert spec.sim.boundaries.downstream_supplies == BoundarySpec().downstream_supplies
        want = declared(BoundaryCondition)
        assert held(spec.sim.boundaries.upstream_demand, want) == want
        want = declared(DivergeModel)
        assert held(spec.sim.model, want) == want
        assert spec.sim.diagrams == tuple(factory() for factory in factories)

    def test_diagram_parameters_rebuild_the_factory_diagram(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            SMALL_VERIFY.replace("  - {kind: del_castillo_ramp}", "  - {kind: del_castillo_ramp, jam_density: 1.5}"),
            encoding="utf-8",
        )
        ramp = build_spec(load_config(path), ExperimentKind.RIEMANN_VERIFY).sim.diagrams[2]
        assert ramp == FundamentalDiagram(DiagramKind.DEL_CASTILLO_RAMP, 0.5, 1.5)
        assert ramp.capacity > del_castillo_ramp().capacity

    def test_numbers_are_read_in_one_place_and_no_default_is_restated(self):
        """config.py calls float only in its number reader, and states no
        number as a default of .get or _section: defaults live on the types
        it builds."""
        tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))

        def float_calls(node):
            return [n for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "float"]

        (reader,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_number"]
        assert float_calls(reader) and float_calls(tree) == float_calls(reader)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            defaults = call.args[1:2] if name == "get" else call.args[3:4] if name == "_section" else []
            defaults += [kw.value for kw in call.keywords if kw.arg == "default"]
            for default in defaults:
                numbers = [
                    n.value for n in ast.walk(default)
                    if isinstance(n, ast.Constant) and type(n.value) in (int, float)
                ]
                assert not numbers, f"line {call.lineno}: {name} default {ast.unparse(default)}"

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

    def test_boundaries_given_as_a_list_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "boundaries.yaml"
        text = SMALL_VERIFY.replace("  snapshot_every: 50\n", "  snapshot_every: 50\n  boundaries: []\n")
        cfg.write_text(text, encoding="utf-8")
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "boundaries must be a mapping" in capsys.readouterr().err

    def test_diagrams_given_as_a_number_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "diagrams.yaml"
        cfg.write_text("model: {kind: lebacque, xi: [0.7, 0.3]}\ndiagrams: 5\n", encoding="utf-8")
        assert main(["props", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "diagrams must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["riemann-verify", "converge"])
    @pytest.mark.parametrize(
        "model",
        [
            "kind: lebacque\n  xi: [0.7]",
            "kind: lebacque\n  xi: [.nan, 0.3]",
            "kind: lebacque\n  xi: 0.7",
            "kind: priority_based\n  alpha: [0.6, 0.4, 0.0]",
        ],
    )
    def test_malformed_model_parameters_exit_two(self, tmp_path, capsys, command, model):
        cfg = tmp_path / "model.yaml"
        text = SMALL_VERIFY.replace("kind: lebacque\n  xi: [0.7, 0.3]", model)
        cfg.write_text(text + "convergence:\n  resolutions: [10, 20]\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("initial_densities: [1.0, 1.0, 0.1]", "initial_densities: [1.0, 1.0]"),
            ("initial_densities: [1.0, 1.0, 0.1]", "initial_densities: [1.0, 1.0, 0.1, 0.5]"),
            ("initial_densities: [1.0, 1.0, 0.1]", "initial_densities: 0.5"),
            ("initial_proportions: 0.7", "initial_proportions: 0.7\n  inflow_proportions: [0.2, 0.3, 0.4]"),
            (
                "kind: lebacque\n  xi: [0.7, 0.3]",
                "kind: partial_evacuation\n  xi: [0.3, 0.2]\n  alpha: [0.55, 0.45]",
            ),
        ],
    )
    def test_malformed_initial_data_exit_two(self, tmp_path, capsys, old, new):
        # the last case tracks two commodities, so its scalar proportions
        # (initial 0.7, inflow defaulting to it) are not a pair
        cfg = tmp_path / "sim.yaml"
        assert old in SMALL_VERIFY
        text = SMALL_VERIFY.replace(old, new)
        cfg.write_text(text + "convergence:\n  resolutions: [10, 20]\n", encoding="utf-8")
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("cells_per_link", "20"),
            ("time_steps", "800"),
            ("link_length", "10.0"),
            ("horizon", "360.0"),
            ("snapshot_every", "50"),
        ],
    )
    def test_list_where_a_simulation_number_belongs_exits_two(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "sim.yaml"
        old = f"  {key}: {value}\n"
        assert old in SMALL_VERIFY
        cfg.write_text(SMALL_VERIFY.replace(old, f"  {key}: [{value}]\n"), encoding="utf-8")
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("demand_upstream: 0.25", "demand_upstream: [0.25]"),
            ("{start: 0.0, stop: 0.3365, count: 41}", "{start: [0.0], stop: 0.3365, count: 41}"),
        ],
    )
    def test_list_where_a_flux_map_number_belongs_exits_two(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "map.yaml"
        text = (CONFIGS / "flux_map.yaml").read_text(encoding="utf-8")
        assert old in text
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["flux-map", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["free_flow_speed", "jam_density"])
    def test_list_where_a_diagram_number_belongs_exits_two(self, tmp_path, capsys, key):
        cfg = tmp_path / "diagram.yaml"
        old = "  - {kind: del_castillo_ramp}\n"
        assert old in SMALL_VERIFY
        new = f"  - {{kind: del_castillo_ramp, {key}: [1.0]}}\n"
        cfg.write_text(SMALL_VERIFY.replace(old, new), encoding="utf-8")
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: del_castillo_ramp diagram:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "old, new, name",
        [
            ("upstream_demand: {kind: neumann}", "upstream_demand: {kind: constant, value: [0.1]}", "upstream_demand"),
            ("offset: 0.05,", "offset: {value: 0.05},", "downstream_supplies[1]"),
        ],
        ids=["constant-value-list", "sinusoid-offset-mapping"],
    )
    def test_malformed_boundary_parameter_exits_two(self, tmp_path, capsys, old, new, name):
        cfg = tmp_path / "boundary.yaml"
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        assert old in text
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}: bad boundary condition")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, base, old, new, message",
        [
            (
                "riemann-verify", None, "tolerance: 5.0e-3", "tolerance: true",
                "verify: tolerance must be a number, got True",
            ),
            (
                "riemann-verify", None, "horizon: 360.0", "horizon: true",
                "simulation: horizon must be a number, got True",
            ),
            (
                "riemann-verify", None, "initial_densities: [1.0, 1.0, 0.1]", "initial_densities: [true, 1.0, 0.1]",
                "simulation: initial_densities must be numbers, got True",
            ),
            (
                # xi = (1, 0) with alpha = (1, 0) would be a valid rule
                "flux-map", "flux_map.yaml", "kind: daganzo_fifo\n  xi: [0.7, 0.3]",
                "kind: partial_evacuation\n  xi: [true, 0.0]\n  alpha: [1.0, 0.0]",
                "model: xi must be numbers, got True",
            ),
            (
                "flux-map", "flux_map.yaml", "demand_upstream: 0.25", "demand_upstream: true",
                "flux_map: demand_upstream must be a number, got True",
            ),
            (
                "flux-map", "flux_map.yaml", "supply_1: {start: 0.0,", "supply_1: {start: false,",
                "supply_1 axis: start must be a number, got False",
            ),
            (
                "converge", "convergence.yaml", "offset: 0.05,", "offset: true,",
                "downstream_supplies[1]: bad boundary condition {'kind': 'time_varying', 'offset': True, "
                "'amplitude': 0.03, 'period': 60.0}: offset must be a number, got True",
            ),
            (
                "riemann-verify", None, "  - {kind: del_castillo_ramp}",
                "  - {kind: del_castillo_ramp, jam_density: true}",
                "del_castillo_ramp diagram: jam_density must be a number, got True",
            ),
        ],
        ids=["tolerance", "horizon", "initial-density", "model-xi", "flux-map-value", "flux-map-axis-start",
             "sinusoid-offset", "diagram-jam-density"],
    )
    def test_boolean_in_a_number_field_exits_two(self, tmp_path, capsys, command, base, old, new, message):
        # Python would read true as 1.0 and run on it
        text = SMALL_VERIFY if base is None else (CONFIGS / base).read_text(encoding="utf-8")
        assert text.count(old) == 1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_converge_rejects_data_it_cannot_rescale_before_a_step(self, tmp_path, capsys, monkeypatch):
        # per-cell data fit the configured 40 cells but not the 80 of the
        # second resolution: the config is rejected before --out is created
        from divergeflow import ctm

        def forbidden(*args):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(ctm, "run_batch", forbidden)
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        per_cell = "[" + ", ".join(["1.0"] * 40) + "]"
        for old, new in (
            ("initial_densities: [1.0, 1.0, 0.1]", f"initial_densities: [{per_cell}, 1.0, 0.1]"),
            ("resolutions: [40, 80, 160]", "resolutions: [40, 80]"),
        ):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "per_cell.yaml"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: converge at M=80: initial_densities[0] must be a scalar or an array of 80 cells, "
            "got shape (40,)\n"
        )
        assert not out.exists()

    def test_converge_rejects_an_evacuation_model_at_load(self, tmp_path, capsys):
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        old = "model:\n  kind: lebacque\n  xi: [0.7, 0.3]\n"
        assert old in text
        cfg = tmp_path / "evacuation.yaml"
        cfg.write_text(text.replace(old, "model: {kind: supply_proportional}\n"), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: convergence study compares the routed models, got supply_proportional\n"
        )
        assert not out.exists()

    def test_two_cell_proportion_list_is_read_per_cell(self, tmp_path):
        cfg = tmp_path / "two_cells.yaml"
        text = SMALL_VERIFY.replace("cells_per_link: 20", "cells_per_link: 2") + "convergence:\n  resolutions: [2]\n"
        cfg.write_text(text.replace("initial_proportions: 0.7", "initial_proportions: [0.3, 0.8]"), encoding="utf-8")
        sim = build_spec(load_config(cfg), ExperimentKind.PROPERTY_SUITE).sim
        assert sim.initial_mix.tolist() == [[0.3, 0.3, 0.8]]

    @pytest.mark.parametrize(
        "new, message",
        [
            ("initial_proportions: [0.6, 0.9]", "initial_proportions must be a scalar or one value per cell"),
            ("initial_proportions: 0.7\n  inflow_proportions: [0.6, 0.9]", "inflow_proportions must be a scalar"),
            ("initial_proportions: 0.7\n  inflow_proportions: [0.5]", "inflow_proportions must be a scalar"),
        ],
        ids=["initial-pair", "inflow-pair", "inflow-list-of-one"],
    )
    def test_one_commodity_proportion_pair_exits_two(self, tmp_path, capsys, new, message):
        cfg = tmp_path / "pair.yaml"
        cfg.write_text(SMALL_VERIFY.replace("initial_proportions: 0.7", new), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message} for one tracked commodity, got ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["lebacque", "daganzo_fifo"])
    @pytest.mark.parametrize(
        "new, name",
        [
            ("initial_proportions: 0.5", "initial_proportions"),
            ("initial_proportions: 0.7\n  inflow_proportions: 0.5", "inflow_proportions"),
            ("initial_proportions: [" + ", ".join(["0.7"] * 19 + ["0.5"]) + "]", "initial_proportions"),
        ],
        ids=["initial", "inflow", "per-cell"],
    )
    def test_verify_rejects_an_upstream_mix_other_than_the_model_x1(self, tmp_path, capsys, kind, new, name):
        # the CTM routes by the mix and solve by xi: with another mix the two
        # would answer different Riemann problems
        text = SMALL_VERIFY.replace("kind: lebacque", f"kind: {kind}")
        cfg = tmp_path / "mix.yaml"
        cfg.write_text(text.replace("initial_proportions: 0.7", new), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: riemann-verify solves with the model's x1 = 0.7, so {name} must equal it, got 0.5\n"
        )
        assert not out.exists()

    def test_verify_rejects_nonuniform_initial_densities_before_creating_the_output(self, tmp_path, capsys):
        cfg = tmp_path / "per_cell.yaml"
        per_cell = "[" + ", ".join(["1.0"] * 19 + ["0.5"]) + "]"
        cfg.write_text(SMALL_VERIFY.replace("[1.0, 1.0, 0.1]", f"[{per_cell}, 1.0, 0.1]"), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: riemann-verify needs initial_densities uniform on each link\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("riemann-verify", SMALL_VERIFY, "- 1\n- 2\n", "config must be a mapping"),
            ("riemann-verify", "  kind: lebacque\n", "", "model section needs a kind"),
            ("riemann-verify", "{kind: del_castillo_ramp}", "{jam_density: 1.0}", "each diagram needs a kind"),
            ("riemann-verify", "{kind: del_castillo_ramp}", "{kind: cubic}", "unknown diagram kind 'cubic'"),
            (
                "riemann-verify", "{kind: del_castillo_ramp}", "{kind: del_castillo_ramp, jam_density: -1.0}",
                "del_castillo_ramp diagram: jam_density must be positive and finite, got -1.0",
            ),
            (
                "riemann-verify", "verify:", "  boundaries: {upstream_demand: 5}\nverify:",
                "upstream_demand: a boundary condition must be a mapping, got 5",
            ),
            (
                "riemann-verify", "verify:", "  boundaries: {upstream_demand: {kind: bogus}}\nverify:",
                "upstream_demand: bad boundary condition {'kind': 'bogus'}",
            ),
            ("riemann-verify", "  time_steps: 800\n", "", "simulation section is missing time_steps"),
            (
                "riemann-verify", "verify:", "  boundaries: {downstream_supplies: [{kind: neumann}]}\nverify:",
                "downstream_supplies needs exactly two entries",
            ),
            (
                "flux-map", "verify:", "flux_map:\n  demand_upstream: 0.25\n  supply_1: {start: 0.0, stop: 0.3}\n"
                "  supply_2: 0.05\nverify:",
                "supply_1 axis needs start/stop/count, missing 'count'",
            ),
            ("riemann-verify", "  - {kind: del_castillo_ramp}\n", "", "diagrams must list exactly three entries"),
            ("flux-map", "verify:", "verify:", "flux-map needs a flux_map section"),
            (
                "riemann-verify", "verify:",
                "  boundaries: {downstream_supplies: [{kind: neumann}, {kind: constant, value: 0.5}]}\nverify:",
                "constant boundary supply outside [0, capacity]",
            ),
            ("riemann-verify", SMALL_SIMULATION, "", "riemann-verify needs a simulation config"),
            (
                "riemann-verify", "  cells_per_link: 20\n  time_steps: 800\n", "  cells_per_link: 1\n  time_steps: 40\n",
                "riemann-verify needs at least two cells per link, got 1",
            ),
            ("converge", SMALL_SIMULATION, "", "converge needs a simulation config"),
            (
                "flux-map", "  - {kind: del_castillo_ramp}\n" + SMALL_SIMULATION,
                "flux_map: {demand_upstream: 0.25, supply_1: 0.1, supply_2: 0.05}\n",
                "diagrams must list exactly three entries",
            ),
            (
                "props", "  - {kind: del_castillo_ramp}\n" + SMALL_SIMULATION, "",
                "diagrams must list exactly three entries",
            ),
            (
                "props", "  - {kind: del_castillo_mainline}\n  - {kind: del_castillo_mainline}\n",
                "  - {kind: greenshields, free_flow_speed: 1.0e-200, jam_density: 1.0e-200}\n"
                "  - {kind: del_castillo_mainline}\n",
                "greenshields diagram: capacity must be positive and finite, got 0.0",
            ),
            (
                "props", "  - {kind: del_castillo_mainline}\n  - {kind: del_castillo_mainline}\n",
                "  - {kind: greenshields, free_flow_speed: 1.0e-300, jam_density: 1.0e-10}\n"
                "  - {kind: del_castillo_mainline}\n",
                "greenshields diagram: capacity 2.5e-311 is not above the flux tolerance 1e-12",
            ),
            (
                "riemann-verify", "link_length: 10.0", "link_length: 5.0e-324",
                "dx = link_length / cells_per_link = 5e-324 / 20 rounds to 0",
            ),
            ("riemann-verify", "horizon: 360.0", "horizon: 5.0e-324", "dt = horizon / time_steps = 5e-324 / 800 rounds to 0"),
        ],
        ids=[
            "not-a-mapping", "model-without-kind", "diagram-without-kind", "unknown-diagram-kind",
            "diagram-parameter", "boundary-not-a-mapping", "unknown-boundary-kind", "simulation-missing-key",
            "one-downstream-supply", "axis-without-count", "two-diagrams", "no-flux-map-section",
            "supply-above-ramp-capacity", "verify-without-simulation", "verify-one-cell-per-link",
            "converge-without-simulation",
            "flux-map-two-diagrams", "props-two-diagrams", "zero-capacity",
            "capacity-within-flux-tolerance", "cell-length-rounds-to-zero", "time-step-rounds-to-zero",
        ],
    )
    def test_config_error_exits_two_with_one_line_and_no_output(self, tmp_path, capsys, command, old, new, message):
        # each case edits SMALL_VERIFY, which flux-map reads without a
        # flux_map section unless the case adds one
        assert old in SMALL_VERIFY
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SMALL_VERIFY.replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_props_on_a_capacity_within_the_flux_tolerance_exits_two(self, tmp_path, capsys):
        # C = 2.5e-311: every flux check of the battery would pass within
        # FLUX_TOL of the state (0, 0)
        text = (CONFIGS / "props.yaml").read_text(encoding="utf-8")
        old = "  - {kind: del_castillo_mainline}\n  - {kind: del_castillo_mainline}\n"
        assert text.count(old) == 1
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(text.replace(old, old.replace(
            "{kind: del_castillo_mainline}", "{kind: greenshields, free_flow_speed: 1.0e-300, jam_density: 1.0e-10}", 1
        )), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["props", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 2
        assert capsys.readouterr().err == (
            "config error: greenshields diagram: capacity 2.5e-311 is not above the flux tolerance 1e-12\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("old", ["link_length: 10.0", "horizon: 360.0"])
    def test_infinite_link_length_or_horizon_exits_two(self, tmp_path, capsys, old):
        cfg = tmp_path / "inf.yaml"
        cfg.write_text(SMALL_VERIFY.replace(old, old.split(":")[0] + ": .inf"), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: link_length and horizon must be positive and finite\n"
        assert not out.exists()

    def test_link_length_too_large_to_count_vehicles_exits_two(self, tmp_path, capsys):
        # finite, but a jam-full network's vehicle count overflows to inf
        text = (CONFIGS / "diverge_verify.yaml").read_text(encoding="utf-8")
        assert text.count("link_length: 10.0") == 1
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(text.replace("link_length: 10.0", "link_length: 1.0e+308"), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "error: link_length 1e+308 is too large" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "module, name, error",
        [(ctm, "run_batch", ctm.NumericalStabilityError), (waves, "link_waves", waves.WaveConsistencyError)],
        ids=["stability", "wave-consistency"],
    )
    def test_runtime_error_exits_one_with_one_line(self, verify_config, tmp_path, capsys, monkeypatch,
                                                   module, name, error):
        def raising(*args):
            raise error("the run stopped")

        monkeypatch.setattr(module, name, raising)
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(verify_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: the run stopped\n"
        assert not out.exists()

    def test_memory_error_exits_two_with_one_line(self, verify_config, tmp_path, capsys, monkeypatch):
        def raising(spec):
            raise MemoryError("Unable to allocate 201. GiB for an array with shape (3000, 3000, 3000)")

        monkeypatch.setattr(cli, "riemann_verify", raising)
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(verify_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: Unable to allocate 201. GiB for an array with shape (3000, 3000, 3000)\n"
        )
        assert not out.exists()

    def test_value_error_in_a_run_exits_two_with_one_line(self, verify_config, tmp_path, capsys, monkeypatch):
        def raising(spec):
            raise ValueError("the run met a bad value")

        monkeypatch.setattr(cli, "riemann_verify", raising)
        out = tmp_path / "o"
        assert main(["riemann-verify", "--config", str(verify_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: the run met a bad value\n"
        assert not out.exists()

    def test_converge_too_big_for_memory_exits_two_at_load(self, tmp_path, capsys, monkeypatch):
        # at M = 100000 a member holds 80,001 snapshots of 4 x 100000 floats;
        # the config is rejected while it loads, before a batch runs
        def forbidden(*args):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(ctm, "run_batch", forbidden)
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        assert text.count("resolutions: [40, 80, 160]") == 1
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(text.replace("resolutions: [40, 80, 160]", "resolutions: [40, 80, 100000]"), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: converge at M=100000: a run with M=100000 cells per link and "
                              "N=4000000 steps needs 239 GiB, more than the machine's ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_converge_batch_too_big_for_memory_exits_two_at_load(self, tmp_path, capsys, monkeypatch):
        # the six runs of the shipped config step as one batch, so their
        # bytes add up: with one byte less than the sum, every run fits on its
        # own but the batch is rejected while the config loads
        def forbidden(*args):
            raise AssertionError("a batch ran")

        config = CONFIGS / "convergence.yaml"
        spec = build_spec(load_config(config), ExperimentKind.CONVERGENCE)
        sizes = [ctm._run_bytes(cfg) for pair in spec.convergence_pairs for cfg in pair]
        assert len(sizes) == 6 and max(sizes) < sum(sizes) - 1
        monkeypatch.setattr(ctm, "_physical_memory", lambda: sum(sizes))
        assert build_spec(load_config(config), ExperimentKind.CONVERGENCE).convergence_pairs is not None
        monkeypatch.setattr(ctm, "_physical_memory", lambda: sum(sizes) - 1)
        monkeypatch.setattr(ctm, "run_batch", forbidden)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: converge's 6 runs, one batch, need {sum(sizes) / 2**30:.3g} GiB, "
                              "more than the machine's ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_each_experiment_is_called_through_the_cli_attribute(self, tmp_path, monkeypatch):
        """perfbench traces an experiment by replacing its name in cli, so
        the CLI must look the name up when it runs: each replaced experiment
        is called once and writes the report of the unpatched run."""
        configs = {
            "riemann-verify": SMALL_VERIFY,
            "converge": SMALL_VERIFY + "convergence:\n  resolutions: [10, 20]\n",
            "flux-map": "model: {kind: daganzo_fifo, xi: [0.7, 0.3]}\n"
                        "flux_map: {demand_upstream: 0.2, supply_1: 0.1,\n"
                        "           supply_2: {start: 0.0, stop: 0.08, count: 3}}\n",
            "props": "model: {kind: lebacque, xi: [0.7, 0.3]}\n"
                     "properties: {samples: 60, wave_samples: 15, oracle_grid: 2}\n",
        }

        def report(command, out):
            cfg = tmp_path / f"{command}.yaml"
            cfg.write_text(configs[command], encoding="utf-8")
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            return (out / "report.txt").read_bytes()

        unpatched = {command: report(command, tmp_path / f"{command}-plain") for command in configs}
        calls = dict.fromkeys(("riemann_verify", "convergence_study", "flux_map", "property_suite"), 0)

        def counting(name, experiment):
            def counted(spec):
                calls[name] += 1
                return experiment(spec)

            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        for ran, (command, name) in enumerate(zip(configs, calls), start=1):
            assert report(command, tmp_path / f"{command}-counted") == unpatched[command]
            assert calls[name] == 1 and sum(calls.values()) == ran

    def test_out_naming_an_existing_file_exits_two(self, verify_config, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main(["riemann-verify", "--config", str(verify_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:")
        assert len(err.splitlines()) == 1
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("key", ["samples", "wave_samples", "oracle_grid"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_property_counts_below_one_exit_two(self, tmp_path, capsys, key, value):
        counts = {"samples": 60, "wave_samples": 15, "oracle_grid": 2, key: value}
        cfg = tmp_path / "props.yaml"
        cfg.write_text(
            "model: {kind: lebacque, xi: [0.7, 0.3]}\n"
            f"properties: {{{', '.join(f'{k}: {v}' for k, v in counts.items())}}}\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["props", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, base, old, new, message",
        [
            ("props", "props.yaml", "  samples: 2000", "  sampels: 2000", "properties: unknown key 'sampels'"),
            (
                "converge", "convergence.yaml", "amplitude: 0.03", "amplitud: 0.03",
                "downstream_supplies[1]: unknown key 'amplitud'",
            ),
            ("riemann-verify", None, "verify:", "verfy:", "top level: unknown key 'verfy'"),
            ("riemann-verify", None, "  xi: [0.7, 0.3]", "  xi: [0.7, 0.3]\n  alpah: [0.5, 0.5]", "model: unknown key 'alpah'"),
            (
                "riemann-verify", None, "  - {kind: del_castillo_ramp}", "  - {kind: del_castillo_ramp, jam_densty: 1.0}",
                "diagrams[2]: unknown key 'jam_densty'",
            ),
            ("riemann-verify", None, "  snapshot_every: 50", "  snapshot_evry: 50", "simulation: unknown key 'snapshot_evry'"),
            (
                "riemann-verify", None, "  snapshot_every: 50", "  snapshot_every: 50\n  boundaries: {upstream: {kind: neumann}}",
                "boundaries: unknown key 'upstream'",
            ),
            (
                "riemann-verify", None, "  snapshot_every: 50",
                "  snapshot_every: 50\n  boundaries: {upstream_demand: {kind: neumann, value: 0.1}}",
                "upstream_demand: unknown key 'value'",
            ),
            ("riemann-verify", None, "  tolerance: 5.0e-3", "  tolerence: 5.0e-3", "verify: unknown key 'tolerence'"),
            ("converge", None, "  resolutions: [10, 20]", "  resolutions: [10, 20]\n  cells: 10", "convergence: unknown key 'cells'"),
            ("flux-map", "flux_map.yaml", "  demand_upstream: 0.25", "  demand_upstream: 0.25\n  supply_3: 0.1", "flux_map: unknown key 'supply_3'"),
            ("flux-map", "flux_map.yaml", "count: 41}", "count: 41, step: 0.01}", "supply_1: unknown key 'step'"),
        ],
        ids=[
            "properties", "ramp-sinusoid", "top-level", "model", "diagram", "simulation", "boundaries",
            "neumann-boundary", "verify", "convergence", "flux_map", "axis",
        ],
    )
    def test_unknown_key_exits_two(self, tmp_path, capsys, command, base, old, new, message):
        # a misspelt key would otherwise fall back to a default silently
        text = SMALL_VERIFY + "convergence:\n  resolutions: [10, 20]\n" if base is None else (CONFIGS / base).read_text(encoding="utf-8")
        assert old in text
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text.replace(old, new, 1), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message} (expected ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_verify_run_matches_golden(self, tmp_path):
        # pins the headline run bitwise: the CTM, the Newton inversions of
        # the stationary states and the wave classification all feed it
        out = tmp_path / "out"
        config = CONFIGS / "diverge_verify.yaml"
        assert main(["riemann-verify", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report.txt").read_bytes() == (GOLDEN_DIR / "verify_report.txt").read_bytes()
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("fields.csv", "junction.csv")
        }
        assert digests == {
            "fields.csv": "a8fcf9158345efcafbb0602f4e64788ca4f1ec45668e81f233e54ad96a9c1a6c",
            "junction.csv": "41e42ec4e292968e7881c6fc5cda41ad584122e3517bb4da136fb9ec76ce1fa8",
        }

    def test_interior_verify_run_matches_golden(self, tmp_path):
        # the ramp's junction cell holds the interior state and the cell
        # behind it the stationary state, two different states here
        out = tmp_path / "out"
        config = CONFIGS / "diverge_verify_interior.yaml"
        assert main(["riemann-verify", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report.txt").read_bytes() == (GOLDEN_DIR / "verify_interior_report.txt").read_bytes()
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("fields.csv", "junction.csv")
        }
        assert digests == {
            "fields.csv": "64390cd2757e5c697af0d3ef163173537bdf387b88c6361a6c98f9f3b7f689c6",
            "junction.csv": "e126fe15781bf8c5d7bb6ec78b92dc4ec5c9043cecd45ddcd6b721043a57b00d",
        }

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("{kind: daganzo_fifo, xi: [0.7, 0.3]}", "766f5a1efa3db58af0af0ed416761d9e4d98d0d864054ad3863db1d76bc75bfd"),
            ("{kind: lebacque, xi: [0.7, 0.3]}", "766f5a1efa3db58af0af0ed416761d9e4d98d0d864054ad3863db1d76bc75bfd"),
            ("{kind: supply_proportional}", "f4e143b07fbdfe4cd1d1d2f2312ff1c468eb79fe7dcc6cfb551567ae4f400ac1"),
            ("{kind: priority_based, alpha: [0.6, 0.4]}", "0fe330080d9d39173abb4cbaa2835729ed7014bf121487578c1aea2d470dab36"),
            (
                "{kind: partial_evacuation, xi: [0.3, 0.2], alpha: [0.55, 0.45]}",
                "cea3c441945b2f2100db87195c47b69824ed2bd6be6e017fe090a6393f8e0762",
            ),
        ],
        ids=["daganzo_fifo", "lebacque", "supply_proportional", "priority_based", "partial_evacuation"],
    )
    def test_flux_map_over_the_capacity_cube_matches_golden(self, tmp_path, model, digest):
        # the props oracle fixtures on a 9^3 cube over [0, C0] x [0, C1] x
        # [0, C2]: it reaches the zero faces and the ties between the terms,
        # so every region label and the CSV formatting are pinned bitwise
        caps = (del_castillo_mainline().capacity, del_castillo_mainline().capacity, del_castillo_ramp().capacity)
        names = ("demand_upstream", "supply_1", "supply_2")
        axes = "".join(f"  {name}: {{start: 0.0, stop: {cap!r}, count: 9}}\n" for name, cap in zip(names, caps))
        cfg = tmp_path / "cube.yaml"
        cfg.write_text(f"model: {model}\nflux_map:\n{axes}", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["flux-map", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "flux_map.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "model",
        [
            "{kind: daganzo_fifo, xi: [0.7, 0.3]}",
            "{kind: lebacque, xi: [0.7, 0.3]}",
            "{kind: supply_proportional}",
            "{kind: priority_based, alpha: [0.6, 0.4]}",
            "{kind: partial_evacuation, xi: [0.3, 0.2], alpha: [0.55, 0.45]}",
        ],
        ids=["daganzo_fifo", "lebacque", "supply_proportional", "priority_based", "partial_evacuation"],
    )
    def test_flux_map_rows_have_the_header_field_count(self, tmp_path, model):
        cfg = tmp_path / "map.yaml"
        cfg.write_text(
            f"model: {model}\nflux_map:\n"
            "  demand_upstream: {start: 0.0, stop: 0.3365, count: 4}\n"
            "  supply_1: {start: 0.0, stop: 0.3365, count: 4}\n"
            "  supply_2: {start: 0.0, stop: 0.0841, count: 4}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["flux-map", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "flux_map.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["demand_upstream", "supply_1", "supply_2", "q0", "q1", "q2", "region"]
        assert len(rows) == 64
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize(
        "command, name", [(command, name) for command, (_, names) in SHIPPED_CSVS.items() for name in names]
    )
    def test_shipped_csv_rows_have_the_header_field_count(self, shipped_outputs, command, name):
        with open(shipped_outputs[command] / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows
        assert all(len(row) == len(header) for row in rows)
        if name == "fields.csv":
            # the downstream links' proportion is an empty last field
            assert {row[-1] == "" for row in rows} == {True, False}

    def test_every_report_check_names_what_makes_it_fail(self, shipped_outputs):
        reports = [out / "report.txt" for out in shipped_outputs.values()]
        reports += [GOLDEN_DIR / name for name in ("verify_report.txt", "verify_interior_report.txt")]
        reports += sorted(GOLDEN_DIR.glob("props_seed*.txt"))
        names = {
            re.sub(r"(link|M)\d+", r"\1*", line[len("check "):].split(":")[0])
            for path in reports for line in path.read_text(encoding="utf-8").splitlines() if line.startswith("check ")
        }
        assert sorted(names - set(CHECK_DEFECTS)) == [], "a check the table lacks"
        assert sorted(set(CHECK_DEFECTS) - names) == [], "a table entry no report holds"
        tests_dir = Path(__file__).resolve().parent
        found = [line for line in (tests_dir.parent / "CHANGES.md").read_text(encoding="utf-8").splitlines()
                 if line.startswith("FOUND: ")]
        for name, entry in CHECK_DEFECTS.items():
            if entry.startswith("cannot fail today: "):
                cited = entry[len("cannot fail today: "):]
                assert any(line.startswith(cited) for line in found), f"{name}: no CHANGES.md line {cited}"
            elif entry != "by design":
                path, *scope, test = entry.split("::")
                tree = ast.parse((tests_dir / path).read_text(encoding="utf-8"))
                for owner in scope:
                    tree = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == owner)
                functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
                assert test in functions, f"{name}: no test {entry}"

    @pytest.mark.parametrize(
        "command, key, old, value",
        [
            ("riemann-verify", "cells_per_link", "20", "20.9"),
            ("riemann-verify", "time_steps", "800", "800.5"),
            ("riemann-verify", "snapshot_every", "50", "50.0"),
            ("props", "samples", "60", "60.7"),
            ("props", "wave_samples", "15", "15.2"),
            ("props", "oracle_grid", "2", "2.5"),
            # YAML reads True as a bool, which Python makes an int
            ("riemann-verify", "cells_per_link", "20", "True"),
            ("props", "samples", "60", "True"),
        ],
    )
    def test_fractional_count_exits_two_instead_of_truncating(self, tmp_path, capsys, command, key, old, value):
        props = "properties: {samples: 60, wave_samples: 15, oracle_grid: 2}\n"
        text = SMALL_VERIFY + props
        line = f"{key}: {old}"
        assert text.count(line) == 1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text.replace(line, f"{key}: {value}"), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be an integer, got {value}\n"
        assert not out.exists()

    def test_converge_epsilon_series_match_golden(self, tmp_path):
        cfg = tmp_path / "conv.yaml"
        text = (CONFIGS / "convergence.yaml").read_text(encoding="utf-8")
        assert "resolutions: [40, 80, 160]" in text
        cfg.write_text(text.replace("resolutions: [40, 80, 160]", "resolutions: [10, 20]"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("epsilon_M10.csv", "epsilon_M20.csv")
        }
        assert digests == {
            "epsilon_M10.csv": "790a3895e8ebe89660a0f415c27db6e7a219ce1b5b143c4eccef561c9614870b",
            "epsilon_M20.csv": "1807c67421eca2dd294fe7103aa14b02efe419017e4adc29a2da081c240ec347",
        }

    def test_shipped_converge_run_matches_golden(self, tmp_path):
        # the shipped study as it is: three batched pairs of CTM runs
        out = tmp_path / "out"
        assert main(["converge", "--config", str(CONFIGS / "convergence.yaml"), "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("epsilon_M40.csv", "epsilon_M80.csv", "epsilon_M160.csv")
        }
        assert digests == {
            "epsilon_M40.csv": "87a5aca729a6c41006ec45412da9f13032e577e35b759b8d46edfb98c28a81a7",
            "epsilon_M80.csv": "fe6d1079e8751aa7ee5c095a281fd0e4f36a030f376932e95baa9b4fefea6301",
            "epsilon_M160.csv": "567b33624eab375487029e417b4905d0f0b9cb6f4827a1ad13f2b02a6d813aaf",
        }

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("{kind: daganzo_fifo, xi: [0.7, 0.3]}", "6b35a92a6463049f33615aef5fd16e8fdd6e63121d0d4593b3fa1181d3d69b20"),
            ("{kind: lebacque, xi: [0.7, 0.3]}", "6b35a92a6463049f33615aef5fd16e8fdd6e63121d0d4593b3fa1181d3d69b20"),
            ("{kind: supply_proportional}", "52fd439b48c2ec596dec81e1dd8b563ef505611ef791ea13f60db268181edb14"),
            ("{kind: priority_based, alpha: [0.6, 0.4]}", "e85943e180c1f24ede1f8f85796effb2a1c736fb64deb9cdaa626f6b59788a49"),
            (
                "{kind: partial_evacuation, xi: [0.3, 0.2], alpha: [0.55, 0.45]}",
                "42e71153f8022afe4ff3db42003fa796668ecddda8f8f4fd39e088903958af8f",
            ),
        ],
        ids=["daganzo_fifo", "lebacque", "supply_proportional", "priority_based", "partial_evacuation"],
    )
    def test_shipped_flux_map_matches_golden_for_each_rule(self, tmp_path, model, digest):
        # the shipped sweep with the model swapped for each props oracle fixture
        text = (CONFIGS / "flux_map.yaml").read_text(encoding="utf-8")
        shipped = "model:\n  kind: daganzo_fifo\n  xi: [0.7, 0.3]\n"
        assert text.count(shipped) == 1
        cfg = tmp_path / "map.yaml"
        cfg.write_text(text.replace(shipped, f"model: {model}\n"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["flux-map", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "flux_map.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("riemann-verify", "tolerance: 5.0e-3", "tolerance: .nan", "tolerance must be finite and positive, got nan"),
            ("riemann-verify", "tolerance: 5.0e-3", "tolerance: .inf", "tolerance must be finite and positive, got inf"),
            (
                "converge", "resolutions: [10, 20]", "resolutions: [10, 0]",
                "convergence resolutions must be strictly increasing positive integers, got [10, 0]",
            ),
            (
                "converge", "resolutions: [10, 20]", "resolutions: [20, 20]",
                "convergence resolutions must be strictly increasing positive integers, got [20, 20]",
            ),
            ("converge", "resolutions: [10, 20]", "resolutions: 40", "resolutions must be a list, got 40"),
            (
                "converge", "resolutions: [10, 20]", "resolutions: [40]",
                "converge compares at least two resolutions, got [40]",
            ),
            (
                "converge", "resolutions: [10, 20]", "resolutions: [true, 20]",
                "convergence resolutions must be strictly increasing positive integers, got [True, 20]",
            ),
        ],
        ids=[
            "tolerance-nan", "tolerance-inf", "resolution-zero", "resolution-repeated", "resolutions-not-a-list",
            "one-resolution", "resolution-boolean",
        ],
    )
    def test_bad_tolerance_or_resolutions_exit_two_before_running(self, tmp_path, capsys, command, old, new, message):
        cfg = tmp_path / "cfg.yaml"
        text = SMALL_VERIFY + "convergence:\n  resolutions: [10, 20]\n"
        assert old in text
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "count, message",
        [
            ("0", "sweep counts must be integers of at least 1, got [1, 41, 0]"),
            ("-2", "sweep counts must be integers of at least 1, got [1, 41, -2]"),
            ("2.7", "sweep counts must be integers of at least 1, got [1, 41, 2.7]"),
            ("true", "sweep counts must be integers of at least 1, got [1, 41, True]"),
        ],
        ids=["zero", "negative", "fractional", "boolean"],
    )
    def test_flux_map_count_below_one_or_fractional_exits_two(self, tmp_path, capsys, count, message):
        cfg = tmp_path / "map.yaml"
        old = "supply_2: {start: 0.0, stop: 0.0841, count: 41}"
        text = (CONFIGS / "flux_map.yaml").read_text(encoding="utf-8")
        assert old in text
        cfg.write_text(text.replace(old, old.replace("count: 41", f"count: {count}")), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["flux-map", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["flux-map", "props"])
    def test_fast_diagram_passes_where_no_grid_is_stepped(self, tmp_path, command):
        # flux-map and props build a one-step placeholder grid they never
        # step, with CFL number 1 at any free-flow speed
        cfg = tmp_path / "fast.yaml"
        cfg.write_text(
            """\
model: {kind: daganzo_fifo, xi: [0.7, 0.3]}
diagrams:
  - {kind: del_castillo_mainline, free_flow_speed: 2.0e+9}
  - {kind: del_castillo_mainline}
  - {kind: del_castillo_ramp}
flux_map:
  demand_upstream: 0.2
  supply_1: {start: 0.0, stop: 0.3365, count: 5}
  supply_2: {start: 0.0, stop: 0.0841, count: 5}
properties: {samples: 20, wave_samples: 5, oracle_grid: 2}
""",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text(encoding="utf-8").endswith("verdict: PASS\n")

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_props_run_on_another_diagram_trio_passes(self, tmp_path, seed):
        cfg = CONFIGS / "props_triangular.yaml"
        trio = "  - {kind: triangular}\n  - {kind: triangular}\n  - {kind: greenshields}\n"
        assert trio in cfg.read_text(encoding="utf-8")
        out = tmp_path / "out"
        assert main(["props", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        assert "verdict: PASS" in (out / "report.txt").read_text(encoding="utf-8")

    def test_twelve_significant_digits(self, verify_config, tmp_path):
        out = tmp_path / "out"
        main(["riemann-verify", "--config", str(verify_config), "--out", str(out)])
        line = (out / "junction.csv").read_text(encoding="utf-8").splitlines()[1]
        value = line.split(",")[1]
        digits = value.replace("-", "").replace(".", "").lstrip("0")
        assert 0 < len(digits) <= 12


def reference_csv(table):
    """The CSV of `table` formatted row by row and field by field: floats at
    12 significant digits and NaN as an empty field, the rest as str."""
    def field(value, floats):
        return ("" if value != value else "%.12g" % value) if floats else "%s" % value

    kinds = [column.dtype.kind == "f" for column in table.values()]
    lines = [",".join(table)]
    for row in zip(*(column.tolist() for column in table.values())):
        lines.append(",".join(field(value, floats) for value, floats in zip(row, kinds)))
    return "\n".join(lines) + "\n"


class TestWriteTable:
    """_write_table writes the bytes the field-by-field reference writes,
    whichever way each block of each column is formatted."""

    ROWS = 2 * _BLOCK_ROWS + 1
    TABLES = {
        "signed-zeros": {"x": np.array([0.0, -0.0, 0.0, -0.0, 1.5, -0.0])},
        "nan": {"x": np.array([np.nan, 0.25, np.nan, -0.0, 0.25, 1e300]), "n": np.array([3, -1, 3, 0, 7, 3])},
        "all-nan-block": {
            "x": np.concatenate([np.full(_BLOCK_ROWS, np.nan), [0.1, np.nan, -0.0]]),
            "step": np.arange(_BLOCK_ROWS + 3),
        },
        "int-and-str": {
            "i": np.array([5, -2, 5, 5, 0, -2]), "region": np.array(["I", "II/III", "I", "", "I", "II/III"]),
        },
        "repeats-across-blocks": {
            "x": np.arange(ROWS) % 7 * 0.1 - 0.3,
            "zero": np.where(np.arange(ROWS) % 3 == 0, -0.0, 0.0),
            "nan": np.where(np.arange(ROWS) % 5 == 0, np.nan, 1.0 / 3.0),
            "i": np.arange(ROWS) % 11,
            "region": np.array(["I", "II", "III/IV"])[np.arange(ROWS) % 3],
        },
        "all-distinct": {
            "x": np.random.default_rng(0).random(ROWS),
            "nan": np.where(np.arange(ROWS) % 9 == 0, np.nan, np.random.default_rng(1).random(ROWS)),
            "i": np.arange(ROWS),
            "s": np.arange(ROWS).astype(str),
        },
        "empty": {"x": np.array([]), "i": np.array([], dtype=int), "s": np.array([], dtype=str)},
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_matches_the_field_by_field_reference(self, tmp_path, name):
        table = self.TABLES[name]
        _write_table(tmp_path / "t.csv", table)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(table).encode("utf-8")

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        _write_table(tmp_path / "t.csv", self.TABLES["signed-zeros"])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8").split() == ["x", "0", "-0", "0", "-0", "1.5", "-0"]
