"""Identity catalog: registry, reports, closed-form helpers, figure data.

The bd/zpp closed-form reference literals were frozen from a 30-digit
arbitrary-precision evaluation of the same expressions during development.
"""

import cmath
import csv
import json
import math

import pytest

from fracsum import catalog, cli
from fracsum.catalog import (
    Identity,
    bd_closed_form,
    figure_csv,
    get_identity,
    gosper_series_coeffs,
    identity_ids,
    run_all,
    run_identity,
    zpp_closed_form,
    zpp_closed_sum,
)
from fracsum.errors import DomainError, ParameterError, UnknownIdentityError

ALL_IDS = (
    "GEO",
    "BINOM",
    "SERMUL",
    "GAMMA",
    "TANH",
    "HARM",
    "REFL",
    "HURW",
    "ZHALF",
    "VLNV",
    "LNGAM",
    "LEFTP",
    "MIRROR",
    "ODDP",
    "BD",
    "ZPP",
    "G2",
    "XPROD",
    "GOSPER",
)


@pytest.fixture(scope="module")
def all_reports():
    return run_all()


def test_registry_lists_every_identity_in_order():
    assert identity_ids() == ALL_IDS
    for iid in ALL_IDS:
        ident = get_identity(iid)
        assert ident.id == iid
        assert ident.kind in ("theorem", "experiment")
    assert get_identity("GOSPER").kind == "experiment"


def test_unknown_identity_is_rejected():
    with pytest.raises(UnknownIdentityError) as info:
        get_identity("NOPE")
    # still a KeyError, whose message is printed as it is, without quotes
    assert isinstance(info.value, KeyError)
    assert str(info.value).startswith("unknown identity 'NOPE'; known: GEO, ")
    with pytest.raises(UnknownIdentityError):
        run_identity("NOPE")


def test_every_theorem_passes_at_defaults(all_reports):
    assert tuple(r.identity for r in all_reports) == ALL_IDS
    for rep in all_reports:
        if rep.kind == "theorem":
            failing = [r for r in rep.records if not r.passed]
            assert rep.all_pass is True, (
                f"{rep.identity}: {[(r.point, r.abs_err) for r in failing]}"
            )
        else:
            assert rep.all_pass is None


def test_convergence_headroom(all_reports):
    # every theorem clears half its registered tolerance, not just the
    # tolerance itself
    for rep in all_reports:
        ident = get_identity(rep.identity)
        if ident.kind != "theorem":
            continue
        for rec in rep.records:
            bound = 0.5 * ident.tol * max(1.0, abs(rec.rhs))
            assert rec.abs_err <= bound, (
                f"{rep.identity} at {rec.point}: {rec.abs_err} > {bound}"
            )


def test_odd_powers_identity_is_absolute(all_reports):
    rep = next(r for r in all_reports if r.identity == "ODDP")
    for rec in rep.records:
        assert rec.rhs == 0j
        assert rec.abs_err <= 1e-10


def test_report_text_format(all_reports):
    rep = next(r for r in all_reports if r.identity == "ZHALF")
    lines = rep.to_text().splitlines()
    assert lines[0] == "identity ZHALF kind=theorem"
    body = [ln for ln in lines if ln.startswith("record ")]
    assert len(body) == len(rep.records)
    for ln, rec in zip(body, rep.records):
        fields = dict(part.split("=", 1) for part in ln.split()[1:] if "=" in part)
        assert fields["id"] == "ZHALF"
        assert float(fields["abs_err"]) == rec.abs_err
        assert float(fields["lhs_re"]) == rec.lhs.real
        assert fields["pass"] in ("true", "false")
    summary = [ln for ln in lines if ln.startswith("summary ")]
    assert len(summary) == 1
    assert "all_pass=true" in summary[0]
    assert f"points={len(rep.records)}" in summary[0]


def test_engine_error_is_recorded_on_its_point(monkeypatch, capsys):
    def evaluate(x):
        if x == 2:
            raise DomainError("no sum at x = 2")
        return 1.0, 1.0 + 1e-9, ""

    points = ((("x", 1 + 0j),), (("x", 2 + 0j),))
    monkeypatch.setitem(catalog._REGISTRY, "ERR", Identity(
        id="ERR", kind="theorem", formula="1 = 1", tol=1e-6, points=points, evaluate=evaluate,
    ))
    rep = run_identity("ERR")
    good, bad = rep.records
    assert cmath.isnan(bad.lhs) and cmath.isnan(bad.rhs)
    assert bad.abs_err == bad.rel_err == math.inf
    assert bad.passed is False and bad.note == "error: no sum at x = 2"
    assert good.passed is True and good.note == ""
    assert rep.all_pass is False
    assert rep.max_rel_err == good.rel_err > 0
    # the text line and the CSV row carry the same nine fields
    line = next(ln for ln in rep.to_text().splitlines() if ln.startswith("record id=ERR point=x=2 "))
    assert line.endswith(" note=error: no sum at x = 2")
    text_fields = [part.split("=", 1)[1] for part in line.split()[1:10]]
    assert cli.main(["identity-run", "--id", "ERR", "--output", "csv"]) == 2
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[2] == text_fields == list(bad.fields())
    assert text_fields[2:] == ["nan", "nan", "nan", "nan", "inf", "inf", "false"]


def test_experiment_summary_reads_not_applicable(all_reports):
    rep = next(r for r in all_reports if r.identity == "GOSPER")
    assert "all_pass=n/a" in rep.to_text()


def test_report_dict_is_json_serializable(all_reports):
    rep = next(r for r in all_reports if r.identity == "HARM")
    d = rep.to_dict()
    assert d["identity"] == "HARM"
    assert d["summary"]["all_pass"] is True
    assert d["summary"]["points"] == len(rep.records)
    assert len(d["records"]) == len(rep.records)
    json.dumps(d)


def test_gosper_routes_agree_and_support_is_noted(all_reports):
    rep = next(r for r in all_reports if r.identity == "GOSPER")
    assert all(r.passed for r in rep.records)
    by_b = {}
    for rec in rep.records:
        b = dict(kv.split("=") for kv in rec.point.split(","))["b"]
        by_b.setdefault(b, []).append(rec.lhs)
    assert set(by_b) == {"0.5", "1", "2", "5"}
    for b, vals in by_b.items():
        assert len(vals) == 3
        spread = max(abs(u - v) for u in vals for v in vals)
        assert spread <= 1e-6 * max(1.0, max(abs(v) for v in vals)), b
    assert any("support" in note for note in rep.notes)


def test_gosper_routes_match_the_closed_form(all_reports):
    # the series route extrapolates its partial sums in 1/N, so it is not
    # left with the 1/(pi N) truncation of a direct sum
    rep = next(r for r in all_reports if r.identity == "GOSPER")
    for rec in rep.records:
        b = float(dict(kv.split("=") for kv in rec.point.split(","))["b"])
        assert abs(rec.lhs - math.pi * math.sin(b) / (2.0 * b)) <= 1e-12, rec.point


def test_reports_are_deterministic(all_reports):
    first = next(r for r in all_reports if r.identity == "HURW")
    again = run_identity("HURW")
    assert again.to_text() == first.to_text()


def test_bd_closed_form_reference_values():
    assert abs(bd_closed_form(1.0) - 0.577863674895460858955) < 5e-12
    assert abs(bd_closed_form(0.25) - 0.9395927741744526778589) < 5e-12


def test_zpp_closed_sum_reference_values():
    assert abs(zpp_closed_sum(0.5) - 0.09391692426192379140099) < 2e-12
    assert abs(zpp_closed_sum(1.0) - 0.05450382584850478882748) < 2e-12
    assert zpp_closed_form(0.5) == pytest.approx(math.exp(zpp_closed_sum(0.5)))


def test_gosper_series_leading_coefficient():
    for b in (0.5, 2.0):
        d = gosper_series_coeffs(b)
        assert d[0] == pytest.approx(math.sin(b) / (2.0 * b), rel=1e-12)


@pytest.mark.parametrize(
    "which, header, closed",
    [
        ("bd", "x,closed_form,n=1,n=10,n=50", bd_closed_form),
        ("zeta2", "x,closed_form,n=10,n=100,n=1000", zpp_closed_form),
    ],
)
def test_figure_csv_structure(which, header, closed):
    lines = figure_csv(which).splitlines()
    assert lines[0] == header
    assert len(lines) == 42
    xs = []
    for ln in lines[1:]:
        cols = ln.split(",")
        assert len(cols) == 5
        x = float(cols[0])
        xs.append(x)
        # closed_form column is definitionally the special-function value
        assert float(cols[1]) == closed(x)
    assert xs[0] == pytest.approx(0.1)
    assert xs[-1] == pytest.approx(2.0)
    assert len(xs) == 41


def test_emit_figure_unknown_name():
    with pytest.raises(ParameterError):
        figure_csv("nope")
