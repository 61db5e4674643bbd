import json
import subprocess
import sys

import pytest

from zmeasures.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_zmeasure_hand_values(capsys):
    code, out = capture(capsys, ["zmeasure", "--z", "1,0", "--theta", "0.5", "--n", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,measure"
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert table["2"] == pytest.approx(8 / 9)
    assert table["1 1"] == pytest.approx(1 / 9)
    assert table["TOTAL"] == pytest.approx(1.0)


def test_partitions_csv(capsys):
    code, out = capture(capsys, ["partitions", "--n", "3", "--theta", "0.5"])
    assert code == 0
    assert out.splitlines()[0] == "partition,rows,negatives,positives"
    assert len(out.strip().splitlines()) == 4  # header + p(3)


def test_kernel_matrix_diagonal(capsys):
    code, out = capture(
        capsys, ["kernel", "matrix", "--z", "0.5,0", "--x", "1.0", "--y", "1.0"]
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    header = out.strip().splitlines()[0].split(",")
    vals = dict(zip(header, row))
    assert float(vals["S"]) == 0.0
    assert float(vals["S_xy"]) == 0.0


def test_whittaker_json(capsys):
    code, out = capture(
        capsys,
        ["whittaker", "--k", "1.0", "--m", "0.5,0", "--x", "2.0", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    import math

    assert float(rows[0]["W"]) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)


def test_pairings(capsys):
    code, out = capture(capsys, ["pairings", "--n", "2", "--t", "1.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for row in lines[1:]:
        assert float(row.rsplit(",", 1)[1]) == pytest.approx(1 / 3)


def test_gelfand_coset_type(capsys):
    code, out = capture(
        capsys, ["gelfand", "--n", "4", "--g", "1,3,5;6,7;2,4,8"]
    )
    assert code == 0
    assert "3 1" in out


def test_lattice_corr(capsys):
    code, out = capture(
        capsys,
        [
            "lattice-corr",
            "--z", "0.5,0",
            "--xi", "0.5",
            "--x", "3/2",
            "--nmax", "30",
        ],
    )
    assert code == 0
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["value"]) > 0
    assert float(vals["truncation_bound"]) >= 0


def test_lattice_corr_readme_line_golden(capsys):
    code, out = capture(
        capsys, ["lattice-corr", "--z", "0.5,0", "--xi", "0.5", "--x", "3/2", "--nmax", "30"]
    )
    assert code == 0
    assert out == (
        "points,value,truncation_bound,n_max_used,terms_summed\n"
        "3/2,0.29289321874798424,6.546830108159877e-11,30,30\n"
    )


def test_verify_limit_readme_line_golden(capsys):
    code, out = capture(
        capsys,
        ["verify-limit", "--z", "0.5,0", "--u", "1.0", "--xi", "0.8,0.85,0.9", "--nmax", "80"],
    )
    assert code == 0
    assert out == (
        "xi,lattice_points,rescaled_lattice,truncation_bound,continuum,"
        "deviation,relative_deviation,inconclusive\n"
        "0.8,9/2,0.0,9.66576211451636e-09,0.0,0.0,0.0,True\n"
        "0.85,13/2,0.0,2.0017365442110665e-06,0.0,0.0,0.0,True\n"
        "0.9,19/2,0.0,0.00037060937097164136,0.0,0.0,0.0,True\n"
    )


def test_kernel_matrix_readme_line_golden(capsys):
    # the reference (mpmath) route, numpy reprs included as the README line prints them
    code, out = capture(
        capsys, ["kernel", "matrix", "--z", "0.3,0.4", "--x", "1.0", "--y", "2.0"]
    )
    assert code == 0
    assert out == (
        "x,y,S,S_y,S_x,S_xy,error_bound\n"
        "1.0,2.0,np.float64(0.002356835009721155),np.float64(-0.00036785229026203587),"
        "np.float64(-0.005923980219378912),0.003376710012686591,"
        "np.float64(3.2867998175463502e-12)\n"
    )


def test_corr_readme_line_golden(capsys):
    code, out = capture(capsys, ["corr", "--z", "0.3,0.4", "--u", "1.0,2.0"])
    assert code == 0
    assert out == "points,value\n1.0 2.0,np.float64(1.750301880888032e-09)\n"


def test_parameter_error_exit_code(capsys):
    assert run(["zmeasure", "--z", "0,0", "--n", "2"]) == 2
    assert run(["bogus-subcommand"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["zmeasure", "--z", "nan,0", "--n", "3"],
        ["zmeasure", "--z", "1,0", "--theta", "inf", "--n", "3"],
        ["lattice-corr", "--z", "nan,0", "--xi", "0.5", "--x", "3/2", "--nmax", "10"],
        ["kernel", "matrix", "--z", "nan,0", "--x", "1", "--y", "2"],
        ["corr", "--z", "nan,0", "--u", "1.0"],
        ["verify-limit", "--z", "nan,0", "--u", "1.0", "--xi", "0.8", "--nmax", "10"],
        ["whittaker", "--k", "nan", "--m", "0.5,0", "--x", "2.0"],
        ["whittaker", "--k", "1", "--m", "nan,0", "--x", "2.0"],
        ["partitions", "--n", "5", "--theta", "nan"],
    ],
)
def test_non_finite_parameters_exit_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "g",
    ["1,2;2,3", "0,1", "1,2,3,4,5", "1,x"],
)
def test_malformed_permutation_exit_2(g):
    proc = subprocess.run(
        [sys.executable, "-m", "zmeasures.cli", "gelfand", "--n", "2", "--g", g],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_determinism_across_workers(capsys):
    argv = [
        "lattice-corr",
        "--z", "1,1",
        "--xi", "0.6",
        "--x", "3/2",
        "--nmax", "15",
    ]
    _, out1 = capture(capsys, argv)
    _, out2 = capture(capsys, argv)
    assert out1 == out2


def test_repeated_run_byte_identical(capsys):
    argv = ["corr", "--z", "0.5,0", "--u", "1.0,2.0"]
    _, out1 = capture(capsys, argv)
    _, out2 = capture(capsys, argv)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    code = run(["partitions", "--n", "2", "--out", str(dest)])
    assert code == 0
    assert dest.read_text().startswith("partition,")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zmeasures.cli", "partitions", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("partition,")
