"""Command-line front end: parsing, exit codes, output formats."""

import csv
import io
import json
import math
from dataclasses import replace

import pytest

from fracsum import catalog
from fracsum.catalog import figure_csv, format_complex, get_identity, identity_ids
from fracsum.cli import main


def run(capsys, argv):
    """main(argv) with its output; stderr is one error line on exit 1, and
    empty otherwise."""
    rc = main(argv)
    captured = capsys.readouterr()
    if rc == 1:
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.err.endswith("\n")
    else:
        assert captured.err == ""
    return rc, captured.out, captured.err


def value_line(out: str) -> str:
    return out.splitlines()[0]


def test_sum_reciprocal_half_interval(capsys):
    rc, out, err = run(capsys, ["sum", "--f", "recip", "--from", "1", "--to", "-0.5"])
    assert rc == 0
    assert err == ""
    assert value_line(out).startswith("value -1.3862943611")
    got = float(value_line(out).split()[1])
    assert abs(got - (-2.0 * math.log(2.0))) < 1e-9
    assert "converged true" in out


def test_prod_identity_factor_is_factorial(capsys):
    rc, out, _ = run(capsys, ["prod", "--f", "id", "--from", "1", "--to", "4"])
    assert rc == 0
    got = float(value_line(out).split()[1])
    assert abs(got - 24.0) < 1e-9


def test_identity_run_zhalf(capsys):
    rc, out, _ = run(capsys, ["identity-run", "--id", "ZHALF"])
    assert rc == 0
    assert "record id=ZHALF point=a=1 lhs_re=-0.125 " in out
    assert "all_pass=true" in out


def test_identity_run_all_default(capsys):
    rc, out, _ = run(capsys, ["identity-run"])
    assert rc == 0
    for iid in identity_ids():
        assert f"identity {iid} " in out
    assert "all_pass=n/a" in out  # the experiment entry


def test_identity_run_json_and_csv_match_plain(capsys):
    # the machine formats carry the records of the plain output, in order,
    # and are as deterministic as it is
    _, plain, _ = run(capsys, ["identity-run"])
    records = [dict(kv.split("=", 1) for kv in line.split()[1:7])
               for line in plain.splitlines() if line.startswith("record ")]
    outs = {}
    for fmt in ("json", "csv"):
        rc, first, _ = run(capsys, ["identity-run", "--output", fmt])
        _, second, _ = run(capsys, ["identity-run", "--output", fmt])
        assert rc == 0 and first == second, fmt
        outs[fmt] = first
    reports = json.loads(outs["json"])["reports"]
    assert len(reports) == len(identity_ids()) == 19
    got = [{"id": rep["identity"], "point": r["point"],
            "lhs_re": repr(r["lhs"][0]), "lhs_im": repr(r["lhs"][1]),
            "rhs_re": repr(r["rhs"][0]), "rhs_im": repr(r["rhs"][1])}
           for rep in reports for r in rep["records"]]
    assert got == records
    # a CSV row is a CSV row: two-axis labels such as q=0.1,x=-0.5 are quoted
    rows = list(csv.reader(io.StringIO(outs["csv"])))
    assert ",".join(rows[0]) == "identity,point,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,pass"
    assert all(len(row) == 9 for row in rows)
    assert [dict(zip(("id", "point", "lhs_re", "lhs_im", "rhs_re", "rhs_im"), row))
            for row in rows[1:]] == records


def test_unknown_family_exits_one(capsys):
    rc, out, err = run(capsys, ["sum", "--f", "nosuch", "--from", "1", "--to", "2"])
    assert rc == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_bad_complex_literal_exits_one(capsys):
    rc, _, err = run(capsys, ["sum", "--f", "recip", "--from", "2+", "--to", "1"])
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["sum", "--f", "geom:q=0.5", "--from", "nan", "--to", "1"],
    ["sum", "--f", "recip", "--from", "1", "--to=inf"],
    ["sum", "--f", "pow:a=nan", "--from", "1", "--to", "2"],
    ["sum", "--f", "recip", "--from", "1", "--to", "-0.5", "--tol", "inf"],
])
def test_non_finite_literal_exits_one(capsys, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--f", "geom:q=0.5", "--from", "1", "--to", "0.5"],
    ["--f", "binom:c=2.5:x=0.3", "--from", "0.3+0.2i", "--to", "1.7"],
    ["--f", "geom:q=0.5", "--from", "0.3+0.2i", "--to", "1.7"],
])
def test_overflowing_left_sum_exits_one(capsys, argv):
    rc, out, err = run(capsys, ["sum", *argv, "--direction", "left"])
    assert rc == 1
    assert out == ""
    # the one error line, and no numpy warning before it
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_overflowing_product_prints_inf(capsys):
    # Gamma(201.5), 300! and 2^(2001000.75) overflow on the limit route, the
    # classical loop and the exact polynomial: inf, not converged
    for spec, to in (("id", "200.5"), ("id", "300"), ("geom:q=2", "2000.5")):
        rc, out, err = run(capsys, ["prod", "--f", spec, "--from", "1", "--to", to])
        assert rc == 0
        assert err == ""
        assert out.splitlines()[:2] == ["value inf", "err_estimate inf"]
        assert "converged false" in out


def test_left_tail_of_finite_parts_past_the_float_range_exits_one(capsys):
    # the tail's parts are finite, its modulus is not: the one error line
    rc, out, err = run(capsys, ["sum", "--f", "geom:q=0.5+0.5i", "--from=1e-16", "--to=1i",
                                "--direction", "left"])
    assert (rc, out) == (1, "")
    assert err == "error: the classical tail is not finite at level n = 4096\n"


def test_product_of_finite_parts_past_the_float_range_is_not_converged(capsys):
    # Gamma(z + 1) has finite parts whose modulus passes the float range
    rc, out, _ = run(capsys, ["prod", "--f", "id", "--from", "1",
                              "--to=170.63+0.15264258751037685i", "--output", "json"])
    assert rc == 0
    data = json.loads(out)
    assert all(math.isfinite(part) for part in data["value"])
    assert math.hypot(*data["value"]) == math.inf
    assert (data["err_estimate"], data["converged"]) == (math.inf, False)


@pytest.mark.parametrize("argv", [
    ["--f", "pow:a=60", "--from", "1", "--to", "1e10"],
    ["--f", "geom:q=0.5", "--from", "-2000", "--to", "-900"],
])
def test_closed_sum_past_the_float_range_exits_one(capsys, argv):
    rc, out, err = run(capsys, ["sum", *argv])
    assert rc == 1
    assert out == ""
    assert "not finite" in err


def test_closed_route_prints_no_levels(capsys):
    rc, out, _ = run(capsys, ["sum", "--f", "poly:0,1", "--from", "1", "--to", "0.5",
                              "--output", "json"])
    assert rc == 0
    data = json.loads(out)
    assert (data["n_used"], data["levels"]) == (0, [])


def test_format_complex_non_finite():
    assert format_complex(math.inf) == "inf"
    assert format_complex(-math.inf) == "-inf"
    assert format_complex(math.nan) == "nan"
    assert format_complex(complex(1, math.inf)) == "1+infi"


def test_bad_flag_exits_one(capsys):
    rc, _, err = run(capsys, ["sum", "--f", "recip", "--no-such-flag", "1"])
    assert rc == 1
    assert err != ""
    # the level schedule is the engine's, and identity-run takes no tol
    spec = ["--f", "recip", "--from", "1", "--to", "-0.5"]
    for argv in (["sum", *spec, "--levels", "9"], ["sum", *spec, "--n-start", "32"],
                 ["prod", "--f", "id", "--from", "1", "--to", "0.5", "--order", "2"],
                 ["identity-run", "--tol", "1e-3"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, ""), argv
        assert "unrecognized arguments" in err, argv


def test_unknown_identity_exits_one(capsys):
    rc, _, err = run(capsys, ["identity-run", "--id", "NOPE"])
    assert rc == 1
    # one plain error line: a KeyError's message is not quoted
    known = ", ".join(identity_ids())
    assert err == f"error: unknown identity 'NOPE'; known: {known}\n"


def test_missing_command_exits_one(capsys):
    rc, _, err = run(capsys, [])
    assert rc == 1
    assert "error:" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "sum" in out


def test_crippled_config_exits_two(capsys, monkeypatch):
    # a HURW route that misses its closed form by 1e-3, far past its tol
    ident = get_identity("HURW")

    def off(**params):
        lhs, rhs, note = ident.evaluate(**params)
        return lhs + 1e-3, rhs, note

    monkeypatch.setitem(catalog._REGISTRY, "HURW", replace(ident, evaluate=off))
    rc, out, _ = run(capsys, ["identity-run", "--id", "HURW"])
    assert rc == 2
    assert "pass=false" in out
    assert "all_pass=false" in out


def test_json_round_trip_matches_plain(capsys):
    argv = ["sum", "--f", "geom:q=0.5", "--from", "0", "--to", "0.5"]
    _, plain, _ = run(capsys, argv)
    rc, j, _ = run(capsys, argv + ["--output", "json"])
    assert rc == 0
    data = json.loads(j)
    v = complex(data["value"][0], data["value"][1])
    lines = plain.splitlines()
    assert lines[0] == f"value {format_complex(v)}"
    assert lines[1] == f"err_estimate {data['err_estimate']!r}"
    assert lines[2] == f"n_used {data['n_used']}"
    assert lines[3] == f"converged {'true' if data['converged'] else 'false'}"
    assert len(data["levels"]) > 0
    assert all(len(entry) == 2 for entry in data["levels"])


def test_csv_output_shape(capsys):
    rc, out, _ = run(
        capsys,
        ["sum", "--f", "recip", "--from", "1", "--to", "-0.5", "--output", "csv"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "value_re,value_im,err_estimate,n_used,converged"
    assert len(lines) == 2
    cols = lines[1].split(",")
    assert abs(float(cols[0]) - (-2.0 * math.log(2.0))) < 1e-9
    assert cols[4] in ("true", "false")


def test_identical_argv_identical_bytes(capsys):
    argv = ["identity-run", "--id", "REFL"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("bound", ["-0.5+1i", "-1e-1"])
def test_negative_literal_bounds(capsys, bound):
    # a bound that starts with '-' but is no plain decimal is still a value
    head = ["sum", "--f", "recip", "--from", "1"]
    rc, out, err = run(capsys, head + ["--to", bound])
    assert (rc, err) == (0, "")
    rc, joined, _ = run(capsys, head + [f"--to={bound}"])
    assert rc == 0
    assert out == joined
    rc, out, err = run(capsys, ["sum", "--f", "recip", "--from", bound, "--to", "2"])
    assert (rc, err) == (0, "")


def test_overflowing_negative_literal_is_a_value(capsys):
    # the literal grammar makes -1e400 a value, and parse_complex rejects it
    rc, out, err = run(capsys, ["sum", "--f", "recip", "--from", "1", "--to", "-1e400"])
    assert (rc, out) == (1, "")
    assert err == "error: complex literal '-1e400' is not finite\n"


def test_figure_to_path_and_stdout(capsys, tmp_path):
    out_file = tmp_path / "bd.csv"
    rc, _, _ = run(capsys, ["figure", "--which", "bd", "--path", str(out_file)])
    assert rc == 0
    assert out_file.read_text() == figure_csv("bd")
    rc, out, _ = run(capsys, ["figure", "--which", "zeta2"])
    assert rc == 0
    assert out.splitlines()[0] == "x,closed_form,n=10,n=100,n=1000"


def test_figure_to_unwritable_path_exits_one(capsys):
    rc, out, err = run(capsys, ["figure", "--which", "bd",
                                "--path", "/nonexistent-dir/out.csv"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_identity_list_formats(capsys):
    rc, out, _ = run(capsys, ["identity-list"])
    assert rc == 0
    assert out.splitlines()[0].startswith("GEO kind=theorem")
    assert any(ln.startswith("GOSPER kind=experiment") for ln in out.splitlines())

    rc, out, _ = run(capsys, ["identity-list", "--output", "csv"])
    assert out.splitlines()[0] == "id,kind,tol,points"
    assert len(out.splitlines()) == 1 + len(identity_ids())

    rc, out, _ = run(capsys, ["identity-list", "--output", "json"])
    data = json.loads(out)
    assert [d["id"] for d in data] == list(identity_ids())


def test_prod_rejects_sum_only_families(capsys):
    rc, _, err = run(capsys, ["prod", "--f", "recip", "--from", "1", "--to", "2"])
    assert rc == 1
    assert "prod" in err or "product" in err


def test_prod_power_matches_identity_route(capsys):
    argv_pow = ["prod", "--f", "pow:a=1", "--from", "1", "--to", "0.5"]
    argv_id = ["prod", "--f", "id", "--from", "1", "--to", "0.5"]
    _, out_pow, _ = run(capsys, argv_pow)
    _, out_id, _ = run(capsys, argv_id)
    v_pow = float(value_line(out_pow).split()[1])
    v_id = float(value_line(out_id).split()[1])
    assert abs(v_pow - v_id) < 1e-10
    assert abs(v_id - math.sqrt(math.pi) / 2.0) < 1e-8


def test_prod_power_with_complex_exponent(capsys):
    # exp(a ln Gamma(3/2)); the principal log of nu^a would wrap on the orbit
    rc, out, _ = run(capsys, ["prod", "--f", "pow:a=0.3+0.5i", "--from", "1", "--to", "0.5"])
    assert rc == 0
    got = complex(value_line(out).split()[1].replace("i", "j"))
    assert abs(got - (0.9626558301955944 - 0.0582066413989268j)) < 1e-12
    assert "converged true" in out


def test_huge_integer_power(capsys):
    # nu^(1e19) is a polynomial past the degree cap: one error line; the
    # factor nu^100 is summed as 100 ln nu and builds no polynomial
    rc, out, err = run(capsys, ["sum", "--f", "pow:a=1e19", "--from", "1", "--to", "2.5"])
    assert (rc, out) == (1, "")
    assert "exceeds cap" in err
    rc, out, _ = run(capsys, ["prod", "--f", "pow:a=100", "--from", "1", "--to", "2.5"])
    assert rc == 0
    assert value_line(out) == "value 1.4375429895280758e+52"


@pytest.mark.parametrize("a", ["64.5", "62.5+1i"])
def test_noninteger_power_past_the_degree_cap(capsys, a):
    # its degree of p_n passes the poly_sum cap: one error line naming a
    rc, out, err = run(capsys, ["sum", "--f", f"pow:a={a}", "--from", "1", "--to", "2.5"])
    assert (rc, out) == (1, "")
    assert f"pow:a={a}: degree of p_n" in err and "exceeds cap 64" in err


def test_prod_geometric_is_exact(capsys):
    rc, out, _ = run(capsys, ["prod", "--f", "geom:q=2", "--from", "1", "--to", "3"])
    assert rc == 0
    assert abs(float(value_line(out).split()[1]) - 64.0) < 1e-12
    assert "err_estimate 0.0" in out


def test_sum_of_id_family_is_linear(capsys):
    rc, out, _ = run(capsys, ["sum", "--f", "id", "--from", "1", "--to", "7"])
    assert rc == 0
    assert value_line(out) == "value 28"


def test_left_direction(capsys):
    rc, out, _ = run(
        capsys,
        ["sum", "--f", "poly:0,1", "--direction", "left", "--from", "1", "--to", "-0.5"],
    )
    assert rc == 0
    assert value_line(out) == "value -0.125"


# cmd -> the mpmath value of the left sum of ln nu over [1 - i/2, 2.3 - i/2],
# ln Gamma(-x + 1) - ln Gamma(-y) - i pi (y - x + 1), or of its exp
LEFT_BELOW_THE_CUT = {
    "sum --f log": 1.19234004015542 - 0.72348987349357j,
    "prod --f id": 2.46943915162539 - 2.181160119989725j,
}


@pytest.mark.parametrize("cmd", LEFT_BELOW_THE_CUT)
def test_left_sum_below_the_cut(capsys, cmd):
    # the orbit runs below the cut of ln nu, and the value is that branch's,
    # not 2 pi i (y - x + 1) off as a read on the upper branch would be
    argv = [*cmd.split(), "--direction", "left", "--from=1-0.5i", "--to=2.3-0.5i"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and "converged true" in out
    got = complex(value_line(out).split()[1].replace("i", "j"))
    err = float(next(ln for ln in out.splitlines() if ln.startswith("err_estimate")).split()[1])
    assert abs(got - LEFT_BELOW_THE_CUT[cmd]) <= 10.0 * err
