"""Tests of the benchmark's own parts: input generation, output checks,
timing summaries, metric names and the tracing wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import pytest

import percentiles
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _yaml_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.yaml"))}


# ---------------------------------------------------------------------------
# inputs


def test_flux_map_cube_is_deterministic_per_seed(tmp_path):
    (first,) = workloads.variants("flux_map", ROOT, 7, tmp_path / "a")
    (again,) = workloads.variants("flux_map", ROOT, 7, tmp_path / "b")
    (other,) = workloads.variants("flux_map", ROOT, 8, tmp_path / "c")
    assert _yaml_files(tmp_path / "a") == _yaml_files(tmp_path / "b")
    assert _yaml_files(tmp_path / "a") != _yaml_files(tmp_path / "c")
    assert len(_yaml_files(tmp_path / "a")) == len(workloads.FLUX_MAP_RULES)
    cube = workloads.FLUX_MAP_CUBE**3
    for calls in (first, again, other):
        assert [c.expected_rows for c in calls] == [{"flux_map.csv": cube}] * len(workloads.FLUX_MAP_RULES)


def test_flux_map_cube_sweeps_demand_and_keeps_supply_ranges():
    base = {
        "model": {"kind": "daganzo_fifo", "xi": [0.7, 0.3]},
        "flux_map": {
            "demand_upstream": 0.25,
            "supply_1": {"start": 0.0, "stop": 0.3, "count": 41},
            "supply_2": {"start": 0.0, "stop": 0.08, "count": 41},
        },
    }
    docs = workloads.flux_map_docs(base, 0.33, seed=3, cube=4)
    assert list(docs) == list(workloads.FLUX_MAP_RULES)
    low = 1.0 - workloads.FLUX_MAP_JITTER
    for rule, doc in docs.items():
        assert doc["model"]["kind"] == rule
        sweep = doc["flux_map"]
        for axis, top in (("demand_upstream", 0.33), ("supply_1", 0.3), ("supply_2", 0.08)):
            assert sweep[axis]["start"] == 0.0
            assert low * top <= sweep[axis]["stop"] <= top
            assert sweep[axis]["count"] == 4
    assert base["flux_map"]["demand_upstream"] == 0.25  # the base document is not modified


def _argvs(workload, seed, tmp_path):
    return [[c.argv for c in calls] for calls in workloads.variants(workload, ROOT, seed, tmp_path)]


def test_props_seeds_are_derived_deterministically(tmp_path):
    argvs = _argvs("props", 11, tmp_path)
    assert argvs == _argvs("props", 11, tmp_path)
    seeds = [calls[0][-1] for calls in argvs]
    assert seeds == [str(11 * workloads.PROPS_SEED_STRIDE + i) for i in range(workloads.PROPS_VARIANTS)]
    assert all(calls[0][-2] == "--seed" for calls in argvs)
    assert not set(seeds) & {calls[0][-1] for calls in _argvs("props", 12, tmp_path)}


@pytest.mark.parametrize("workload", ["verify", "converge"])
def test_simulation_workloads_ignore_the_seed(workload, tmp_path):
    first = workloads.variants(workload, ROOT, 1, tmp_path)
    second = workloads.variants(workload, ROOT, 2, tmp_path)
    assert [(c.argv, c.expected_rows) for c in first[0]] == [(c.argv, c.expected_rows) for c in second[0]]
    assert len(first) == 1


def test_expected_rows_follow_the_shipped_configs(tmp_path):
    ((verify,),) = workloads.variants("verify", ROOT, 0, tmp_path)
    assert verify.expected_rows == {"fields.csv": 129 * 3 * 160, "junction.csv": 6400}
    ((converge,),) = workloads.variants("converge", ROOT, 0, tmp_path)
    assert converge.expected_rows == {"epsilon_M40.csv": 33, "epsilon_M80.csv": 65, "epsilon_M160.csv": 129}


def test_snapshot_count_includes_the_final_step():
    assert workloads.snapshot_count(100, 50) == 3
    assert workloads.snapshot_count(101, 50) == 4
    assert workloads.snapshot_count(1, 50) == 2


# ---------------------------------------------------------------------------
# output checks


def _write_outputs(out, verdict="PASS", rows=3, extra=None):
    out.mkdir(parents=True)
    (out / "report.txt").write_text(f"divergeflow report: x\nverdict: {verdict}\n", encoding="utf-8")
    (out / "flux_map.csv").write_text("h\n" + "1\n" * rows, encoding="utf-8")
    if extra:
        (out / extra).write_text("h\n", encoding="utf-8")


def test_check_call_accepts_a_correct_run(tmp_path):
    _write_outputs(tmp_path / "ok")
    call = workloads.Call(["flux-map"], {"flux_map.csv": 3})
    assert workloads.check_call(call, tmp_path / "ok", 0) == []


@pytest.mark.parametrize(
    "code, outputs, fragment",
    [
        (1, {}, "exit status 1"),
        (0, {"verdict": "FAIL"}, "verdict"),
        (0, {"rows": 2}, "has 2 rows, expected 3"),
        (0, {"extra": "epsilon_M40.csv"}, "wrote"),
    ],
)
def test_check_call_rejects(code, outputs, fragment, tmp_path):
    _write_outputs(tmp_path / "out", **outputs)
    call = workloads.Call(["flux-map"], {"flux_map.csv": 3})
    problems = workloads.check_call(call, tmp_path / "out", code)
    assert any(fragment in p for p in problems), problems


def test_rerun_check_flags_a_report_that_changes(tmp_path):
    counter = iter(range(100))

    def unstable_main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "report.txt").write_text(f"run {next(counter)}\nverdict: PASS\n", encoding="utf-8")
        return 0

    variant = [workloads.Call(["props"])]
    runs = worker.timed_runs([variant], unstable_main, tmp_path / "run", seconds=0)
    assert len(runs) == worker.MIN_RUNS
    assert runs[0].problems == []
    assert runs[1].problems == ["report.txt differs from the first run with the same seed"]


def test_every_session_reruns_a_variant(tmp_path):
    seen = []

    def main(argv):
        seen.append(argv[0])
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "report.txt").write_text(f"{argv[0]}\nverdict: PASS\n", encoding="utf-8")
        return 0

    variants = [[workloads.Call([f"seed{i}"])] for i in range(4)]
    runs = worker.timed_runs(variants, main, tmp_path / "run", seconds=0)
    assert seen == ["seed0", "seed1", "seed0"]
    assert [r.variant for r in runs] == [0, 1, 0]
    assert all(r.problems == [] for r in runs)


def test_a_raising_call_fails_instead_of_stopping(tmp_path):
    def broken_main(argv):
        raise ZeroDivisionError("period")

    (run,) = worker.timed_runs([[workloads.Call(["converge"])]], broken_main, tmp_path / "run", 0, min_runs=1, rerun=False)
    assert any("ZeroDivisionError: period" in p for p in run.problems)


# ---------------------------------------------------------------------------
# summaries and metric names


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert percentiles.tail(list(range(1000)))[0] == 99.0
    assert percentiles.tail(list(range(100)))[0] == 90.0
    assert percentiles.tail(list(range(20))) == (50.0, 9)
    assert percentiles.tail(list(range(19))) == (100.0, 18)
    assert percentiles.summary([]) == {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    assert percentiles.summary([3.0, 1.0, 2.0])["p50"] == 2.0


def test_metric_names_are_well_formed_and_declared():
    emitted, _ = spans.layer_metrics(spans.Tracer(), 1.0, 1.0, 0)
    bench = _benchmark()
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {name: unit for name, (_, unit) in emitted.items()} == declared
    names = list(declared) + [m["name"] for m in bench["end_to_end"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_layer_metric_has_a_prediction():
    table = json.loads((ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8"))
    prefixes = [p for row in table["predictions"] for p in row["layer_metrics"]] + list(table["bookkeeping"])
    names = [m["name"] for m in _benchmark()["per_layer"]]
    for name in names:
        assert any(name.startswith(p) for p in prefixes), name
    for prefix in prefixes:
        assert any(name.startswith(prefix) for name in names), prefix
    workload_names = {w["name"] for w in _benchmark()["workloads"]}
    assert set(table["workloads"]) == workload_names == set(workloads.WORKLOADS)
    for row in table["predictions"]:
        assert set(row["moves_on"]) | set(row["flat_on"]) <= workload_names


# ---------------------------------------------------------------------------
# tracing


def test_wrapper_returns_exactly_what_the_function_returns():
    tracer = spans.Tracer()
    sentinel = object()
    traced = tracer.wrap("riemann.solve", lambda *args, **kwargs: sentinel)
    assert traced(1, key=2) is sentinel
    (span,) = tracer.spans
    assert span[0] == "riemann.solve" and span[2] == -1 and span[4] >= span[3]


def test_wrapper_passes_exceptions_through_and_closes_the_span():
    tracer = spans.Tracer()

    def fails():
        raise ValueError("bad input")

    with pytest.raises(ValueError, match="bad input"):
        tracer.wrap("ctm.run", fails)()
    assert tracer.spans[0][4] >= tracer.spans[0][3]
    assert tracer.wrap("waves.link_waves", lambda: 5)() == 5
    assert tracer.spans[1][2] == -1  # the stack unwound


def test_nested_spans_and_self_times():
    tracer = spans.Tracer()
    inner = tracer.wrap("fundamental_diagram.demand", lambda: "x")
    outer = tracer.wrap("ctm.run", lambda: inner() + inner())
    assert outer() == "xx"
    assert [s[2] for s in tracer.spans] == [-1, 0, 0]
    own = spans.self_times(tracer.spans)
    total = tracer.spans[0][4] - tracer.spans[0][3]
    assert sum(own) == total and min(own) >= 0


def test_traced_divergeflow_calls_return_the_untraced_values():
    from divergeflow import harness, waves
    from divergeflow.fundamental_diagram import del_castillo_mainline, del_castillo_ramp
    from divergeflow.riemann import RiemannInput, lebacque

    def evaluate():
        diagrams = (del_castillo_mainline(), del_castillo_mainline(), del_castillo_ramp())
        inp = RiemannInput.from_densities(diagrams, (1.0, 1.0, 0.1))
        model = lebacque((0.7, 0.3))
        sol = harness.solve(model, inp)
        return (
            diagrams,
            sol,
            harness.solve_fluxes(model, inp),
            waves.link_waves(sol, inp),
            harness.brute_force_fluxes(model, inp),
            diagrams[0].demand(0.5),
            diagrams[2].supply(0.1),
        )

    targets = spans.divergeflow_targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    plain = evaluate()
    tracer = spans.Tracer()
    with tracer.patched(targets):
        assert all(owner.__dict__[attr] is not o for (owner, attr, _, _), o in zip(targets, originals))
        traced = evaluate()
    assert traced == plain
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == originals
    names = {s[0] for s in tracer.spans}
    assert {"riemann.solve", "riemann.solve_fluxes", "waves.link_waves", "oracle.brute_force_fluxes"} <= names
    assert "fundamental_diagram.construct" in names


def test_traced_flux_map_run_is_consistent_and_matches_untraced(tmp_path):
    from divergeflow import cli
    import yaml

    base = yaml.safe_load((ROOT / "configs" / "flux_map.yaml").read_text(encoding="utf-8"))
    calls = []
    for rule, doc in workloads.flux_map_docs(base, 0.3365, seed=5, cube=4).items():
        path = tmp_path / f"{rule}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        calls.append(workloads.Call(["flux-map", "--config", str(path)], {"flux_map.csv": 64}))
    runs, metrics = worker.traced_session([calls], cli.main, tmp_path / "run", 0.0, tmp_path / "spans.json")
    assert [r.problems for r in runs] == [[], []]
    assert [r.traced for r in runs] == [False, True]
    assert metrics["riemann.solve_fluxes.calls"][0] == 5 * 64
    assert metrics["ctm.run.calls"][0] == 0
    assert metrics["harness.flux_map_self_s"][0] > 0.0
    assert 0.0 <= metrics["trace.untraced_s"][0] <= spans.CONSISTENCY_TOL * metrics["trace.wall_s"][0]
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]
