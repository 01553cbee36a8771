"""Seeded inputs, metric arithmetic, span folding and output checks."""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import metrics as M
import run
import workloads
from tracer import ROOT, Totals, fold

REPO = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_gives_identical_inputs(workload):
    for seed in (0, 1, 12345):
        assert workloads.make_ops(workload, seed) == workloads.make_ops(workload, seed)


@pytest.mark.parametrize("workload", ["elementary", "lngamma", "cli-exact"])
def test_seeds_change_values_but_not_the_mix(workload):
    def mix(ops):
        return [(o["family"], o.get("mode"), o.get("dir"), o["check"],
                 o.get("x", [0, 0])[1] != 0, o.get("fmt")) for o in ops]

    a, b = workloads.make_ops(workload, 1), workloads.make_ops(workload, 2)
    assert a != b
    assert mix(a) == mix(b)


def test_known_failures_do_not_depend_on_the_seed():
    def fails(seed):
        return [o for o in workloads.make_ops("lngamma", seed) if o["check"] == "known_fail"]

    assert fails(3) == fails(4)
    assert len(fails(3)) == 2


def test_intervals_have_noninteger_length():
    for seed in range(20):
        for op in workloads.make_ops("elementary", seed):
            length = complex(*op["y"]) - complex(*op["x"]) + 1
            assert length.imag != 0 or abs(length.real - round(length.real)) >= 0.08


# ---------------------------------------------------------------------------
# metric arithmetic


def test_percentile_matches_inclusive_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.5]
    q = statistics.quantiles(xs, n=10, method="inclusive")
    assert M.percentile(xs, 90) == pytest.approx(q[8])
    assert M.median(xs) == statistics.median(xs)
    assert M.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert M.percentile([3.0], 90) == 3.0


def test_end_to_end_arithmetic():
    times = [0.010, 0.030, 0.008, 0.020, 0.009, 0.025]
    out = M.end_to_end(times, [0.2, 0.1, 0.3], [9.0, 12.0], 2048)
    assert out["throughput_ops_per_s"][0] == pytest.approx(6 / 0.102)
    assert out["latency_p50_ms"][0] == pytest.approx(15.0)
    assert out["latency_p90_ms"][0] == pytest.approx(25.0 + 0.5 * 5.0)
    assert out["setup_s"][0] == 0.2
    assert out["accuracy_digits_min"][0] == 9.0
    assert out["peak_rss_mb"][0] == 2.0
    assert M.throughput(10, 2.0) == 5.0


def test_normalization_to_the_reference_speed():
    # an operation timed while the calibration loop ran twice as slow as the
    # reference counts half its wall time
    assert M.normalized(0.010, 2 * M.CAL_REF_S) == pytest.approx(0.005)
    assert M.normalized(0.010, M.CAL_REF_S) == pytest.approx(0.010)


def test_accuracy_digits_cap_and_scale():
    assert M.accuracy_digits(1.0, 1.0) == 16.0
    assert M.accuracy_digits(100.0 + 1e-6, 100.0) == pytest.approx(8.0)
    # below 1 in magnitude the error is measured on the scale 1
    assert M.accuracy_digits(1e-3 + 1e-9, 1e-3) == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# spans


def _span(name, start, end, parent, n=0):
    return [name, start, end, parent, n]


def test_self_time_subtracts_direct_children():
    spans = [
        _span(ROOT, 0, 100, -1),
        _span("engine.frac_sum_right", 5, 95, 0, 64),
        _span("summands.eval", 10, 30, 1, 48),
        _span("specialfn.log_gamma", 12, 20, 2),
        _span("summands.eval", 40, 50, 1, 48),
        _span("polycore.poly_sum", 60, 90, 1),
    ]
    t = fold(spans)
    assert t.root_ns == 100
    assert t.self_ns == {"bench": 10, "engine": 90 - 60, "summands": 12 + 10,
                         "specialfn": 8, "polycore": 30}
    assert sum(t.self_ns.values()) == t.root_ns
    assert t.calls["summands.eval"] == 2 and t.incl_ns["summands.eval"] == 30
    assert t.count["summands.eval"] == 96
    assert t.engine_points == 96 and t.engine_useful == 96
    assert t.spans == 6


def test_recursion_is_counted_once_and_useful_points_are_capped():
    spans = [
        _span(ROOT, 0, 50, -1),
        _span("engine.frac_sum_left", 0, 50, 0, 16),
        _span("summands.eval", 1, 41, 1, 100),
        _span("specialfn.log_gamma", 2, 12, 2),
        _span("specialfn.log_gamma", 4, 9, 3),
    ]
    t = fold(spans)
    assert t.calls["specialfn.log_gamma"] == 1
    assert t.incl_ns["specialfn.log_gamma"] == 10
    assert t.self_ns["specialfn"] == 10
    assert t.engine_points == 100 and t.engine_useful == 32


def test_totals_add_and_per_layer_normalise_per_operation():
    t = Totals()
    one = fold([_span(ROOT, 0, 2_000_000, -1), _span("cli.parse_args", 0, 1_000_000, 0)])
    t.add(one)
    t.add(one)
    out = M.per_layer(t, 0, 0.0)
    assert out["cli.parse_ms"][0] == pytest.approx(1.0)
    assert out["cli.self_share"][0] == pytest.approx(50.0)
    assert out["catalog.GOSPER_ms"][0] == 0.0
    assert out["trace.spans_per_op"][0] == 2.0


def test_overhead_from_per_operation_medians():
    c = M.CAL_REF_S
    rows = [[0, 0, 1.0, c], [1, 0, 2.0, c], [0, 1, 1.5, c / 2], [1, 1, 3.0, c],
            [0, 1, 9.0, c], [0, 1, 1.4, c]]
    assert run.overhead_pct(rows) == pytest.approx(100.0 * (1.5 + 3.0) / 3.0 - 100.0)


# ---------------------------------------------------------------------------
# output checks


def test_check_counts_failures_and_flags_silent_errors():
    ops = workloads.make_ops("lngamma", 0)
    refs = {"ops": {str(i): [repr(1.0), "0"] for i in range(len(ops))}}
    rows = []
    for i, op in enumerate(ops):
        conv = op["check"] != "known_fail"
        rows.append([i, 0, 0.01, M.CAL_REF_S, [1.0, 0.0, 1e-12, conv], None])
    rows[1] = [1, 0, 0.01, M.CAL_REF_S, None, "DomainError: at a pole"]
    chk = run.Check(ops, refs)
    chk.rows(rows)
    assert chk.correct and chk.failed == 3
    bad = [list(r) for r in rows]
    bad[0] = [0, 0, 0.01, M.CAL_REF_S, [1.5, 0.0, 1e-12, True], None]
    chk = run.Check(ops, refs)
    chk.rows(bad)
    assert not chk.correct and chk.failed == 4


def test_tracer_wraps_every_binding_and_restores_them():
    code = (
        "import json, tracer, fracsum\n"
        "from fracsum import catalog, engine, specialfn, summands\n"
        "t = tracer.Tracer(); b = tracer.install(t)\n"
        "names = ('log_gamma', 'digamma', 'hurwitz_zeta_sderiv')\n"
        "mods = (specialfn, summands, catalog, fracsum)\n"
        "def traced():\n"
        "    return [getattr(getattr(m, n), 'perfbench_traced', False)\n"
        "            for m in mods for n in names if hasattr(m, n)]\n"
        "before = traced(); b.switch(True); on = traced()\n"
        "t.run_op(lambda: engine.frac_sum_right(summands.lnfact(), 1.0, 0.5)); t.end_op()\n"
        "b.switch(False)\n"
        "print(json.dumps([not any(before) and all(on) and not any(traced()), t.totals.calls]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    ok, calls = json.loads(out.stdout)
    assert ok
    assert calls["engine.frac_sum_right"] == 1
    assert calls["summands.eval"] == 16
    assert calls["specialfn.log_gamma"] >= 16384
