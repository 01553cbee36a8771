"""Command-line front end: parsing, exit codes, output formats."""

import json
import math

import pytest

from fracsum.catalog import figure_csv, format_complex, identity_ids
from fracsum.cli import main


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
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
    ["sum", "--f", "recip", "--from", "1", "--to", "-0.5", "--tol", "inf",
     "--levels", "2", "--order", "1"],
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
    # Gamma(201.5) overflows: the engine returns inf, not converged
    rc, out, err = run(capsys, ["prod", "--f", "id", "--from", "1", "--to", "200.5"])
    assert rc == 0
    assert err == ""
    assert value_line(out) == "value inf"
    assert "converged false" in out


def test_format_complex_non_finite():
    assert format_complex(math.inf) == "inf"
    assert format_complex(-math.inf) == "-inf"
    assert format_complex(math.nan) == "nan"
    assert format_complex(complex(1, math.inf)) == "1+infi"


def test_bad_flag_exits_one(capsys):
    rc, _, err = run(capsys, ["sum", "--f", "recip", "--no-such-flag", "1"])
    assert rc == 1
    assert err != ""


def test_unknown_identity_exits_one(capsys):
    rc, _, err = run(capsys, ["identity-run", "--id", "NOPE"])
    assert rc == 1
    assert "error:" in err


def test_missing_command_exits_one(capsys):
    rc, _, err = run(capsys, [])
    assert rc == 1
    assert "error:" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "sum" in out


def test_crippled_config_exits_two(capsys):
    rc, out, _ = run(
        capsys,
        [
            "identity-run",
            "--id",
            "HURW",
            "--n-start",
            "1",
            "--levels",
            "3",
            "--order",
            "1",
        ],
    )
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
