import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zmeasures.cli import _COMMANDS, build_parser, run
from zmeasures.partitions import iter_partition_tuples

ROOT = Path(__file__).resolve().parent.parent


def cli_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m zmeasures.cli`` in a fresh interpreter that imports the
    package from ``src``, so that no install is needed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "zmeasures.cli", *argv], capture_output=True, text=True, env=env)


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


@pytest.mark.parametrize("line", ["zmeasure", "partitions", "pairings", "gelfand"])
def test_readme_line_prints_reference(capsys, line):
    # the stdout stored for the README line in the benchmark's reference
    reference = json.loads((ROOT / "perfbench" / "reference" / "cli.json").read_text())
    op = next(op for op in reference["ops"] if op["id"] == line)
    code, out = capture(capsys, op["argv"])
    assert (code, out) == (op["expect"]["returncode"], op["expect"]["stdout"])


def _readme_command_block() -> list[str]:
    """The lines of the README's first command block, after ``zmeasures``."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def test_readme_names_every_command():
    named = {argv[0] for argv in _readme_command_block()}
    assert [name for name, *_ in _COMMANDS if name not in named] == []
    assert {"scalar", "matrix"} <= {argv[1] for argv in _readme_command_block() if argv[0] == "kernel"}


def test_readme_holds_the_benchmark_lines():
    # the README lines whose stdout the benchmark's reference stores
    reference = json.loads((ROOT / "perfbench" / "reference" / "cli.json").read_text())
    lines = _readme_command_block()
    assert [op["id"] for op in reference["ops"] if op["argv"] not in lines] == []


@pytest.mark.parametrize(
    "command",
    ["zmeasures", "partitions", "zmeasure", "mixed", "lattice-corr", "pairings", "gelfand", "whittaker", "kernel",
     "corr", "verify-limit"],
)
def test_help_is_byte_identical(capsys, monkeypatch, command):
    # argparse wraps help at the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"] if command == "zmeasures" else [command, "--help"]) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "help" / f"{command}.txt").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        ("mixed --z 1.5,0 --xi 0.5 --n 6", "mixed_z1.5_0_xi0.5_n6.csv"),
        # xi = 0: every size above 0 weighs 0, as mixed_z_measure forms it
        ("mixed --z 1,0 --xi 0 --n 4", "mixed_z1_0_xi0_n4.csv"),
        ("zmeasure --z 1,1 --theta 0.5 --n 12", "zmeasure_z1_1_theta0.5_n12.csv"),
    ],
)
def test_table_golden(capsys, argv, golden):
    # stdout recorded from the per-diagram z_measure loop the tables replaced
    assert capture(capsys, argv.split()) == (0, (ROOT / "tests" / "golden" / golden).read_text())


@pytest.mark.parametrize(
    "argv, message",
    [
        ("zmeasure --z 1,0 --n 0", "z-measure requires |lam| >= 1"),
        ("zmeasure --z 1,0 --n -1", "n must be nonnegative, got -1"),
        ("zmeasure --z 1,0 --n 101", "partition enumeration capped at n <= 100, got 101"),
        ("mixed --z 1,0 --xi 0.5 --n -1", "n must be nonnegative, got -1"),
        ("mixed --z 1,0 --xi 0.5 --n 101", "partition enumeration capped at n <= 100, got 101"),
        # p(61) = 1,121,505 partitions: over the table budget, refused
        # before the first byte, for mixed before its smaller sizes
        ("zmeasure --z 1,0 --n 61", "a table of the partitions of 61 holds 1121505 diagrams, capped at 1000000"),
        ("mixed --z 1,0 --xi 0.5 --n 61", "a table of the partitions of 61 holds 1121505 diagrams, capped at 1000000"),
    ],
)
def test_table_size_refused_before_any_weighing(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("zmeasures.measures._weigh", None)
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_whittaker_exact_zero_exits_3():
    # W_{2,1/2}(2) = 0: mpmath's terminating 2F0 sums to zero and cannot
    # reach a relative accuracy, which it reports with a bare ValueError
    proc = cli_process("whittaker", "--k", "2.0", "--m", "0.5,0", "--x", "2.0")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical error: ")
    assert proc.stderr.count("\n") == 1


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
    proc = cli_process("gelfand", "--n", "2", "--g", g)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "lam",
    ["4,-1", "1,2", "2,0", "0", "1,3"],
)
def test_gelfand_non_partition_lam_exit_2(capsys, lam):
    # zonal functions are indexed by partitions: the others print nothing
    assert run(["gelfand", "--n", "3", "--g", "1,2", "--lam", lam]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parts must be" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # |z|^2, or t^(circles-1) / ((t+2) ... (t+2n-2)), overflows
        "zmeasure --z 1e300,0 --n 2",
        "mixed --z 1e200,0 --xi 0.5 --n 2",
        "gelfand --n 2 --g 1,2 --z 1e300,0",
        "lattice-corr --z 1e200,0 --xi 0.5 --x 3/2 --nmax 5",
        "pairings --n 4 --t 1e200",
        # a = |z|^2/theta is inf
        "zmeasure --z 1e154,0 --n 2",
        "zmeasure --z 1,0 --theta 1e-320 --n 2",
        # a above measures.A_MAX: the table's TOTAL read 5.3e-63 and 8.0e60
        "zmeasure --z 1e8,0 --n 3",
        "zmeasure --z 1e10,0 --n 3",
        # |z|^2 below the normal floats: a = 0, and a TOTAL of 1.00001
        "zmeasure --z 1e-200,0 --n 2",
        "zmeasure --z 1e-160,0 --n 2",
    ],
)
def test_out_of_range_parameters_exit_2(argv):
    proc = cli_process(*argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "t, masses",
    [
        # t/(t+2) for the two-circle matching, where t (t+2) underflowed to 0
        ("1e-320", [5e-321, 0.5, 0.5]),
        # 1/(t+2) and t/(t+2), where t^2 overflowed and the command was refused
        ("1e200", [1e-200, 1e-200, 1.0]),
    ],
)
def test_pairings_extreme_t_prints_the_finite_quotients(capsys, t, masses):
    code, out = capture(capsys, ["pairings", "--n", "2", "--t", t])
    assert code == 0
    got = sorted(float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:])
    assert got == pytest.approx(masses, rel=1e-3, abs=0)


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--n", "3"],
        ["zmeasure", "--z", "1,0", "--n", "2"],
        ["mixed", "--z", "1,0", "--xi", "0.5", "--n", "2"],
        ["lattice-corr", "--z", "0.5,0", "--xi", "0.5", "--x", "3/2"],
    ],
    ids=lambda argv: argv[0],
)
def test_theta_is_read_exactly_in_every_command(argv):
    assert build_parser().parse_args(argv + ["--theta", "0.3"]).theta == Fraction(3, 10)
    assert build_parser().parse_args(argv).theta == Fraction(1, 2)


def test_verify_limit_huge_xi_message_is_short(capsys):
    assert run(["verify-limit", "--z", "0.3,0.4", "--u", "1.0", "--xi", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1e+300" in captured.err
    assert len(captured.err) < 200


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
    proc = cli_process("partitions", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("partition,")


@pytest.mark.parametrize(
    "argv, where",
    [
        (["verify-limit", "--z", "0.3,0.4", "--u", "1.0", "--xi", "0.8,abc"], "xi"),
        (["verify-limit", "--z", "0.3,0.4", "--u", "1.0", "--xi", "nan"], "xi"),
        (["verify-limit", "--z", "0.3,0.4", "--u", "1.0", "--xi", "inf"], "xi"),
        (["verify-limit", "--z", "0.3,0.4", "--u", "nan", "--xi", "0.8"], "u"),
    ],
)
def test_verify_limit_bad_ladder_or_u_exit_2(capsys, argv, where):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where} must be a finite number")


def test_corr_non_finite_point_names_the_points(capsys):
    assert run(["corr", "--z", "0.3,0.4", "--u", "1.0,nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points must be positive and finite, got [1.0, nan]\n"


@pytest.mark.parametrize("x", ["1/3", "abc", "nan", "inf", "1/0"])
def test_lattice_corr_malformed_point_exit_2(capsys, x):
    argv = ["lattice-corr", "--z", "0.5,0", "--xi", "0.5", "--x", "3/2", x, "--nmax", "5"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected a half-integer")


def test_lattice_corr_prints_exact_points(capsys):
    code, out = capture(capsys, ["lattice-corr", "--z", "0.5,0", "--xi", "0.5", "--x", "1.5", "--nmax", "5"])
    assert code == 0
    assert out.splitlines()[1].startswith("3/2,")


def test_unwritable_out_exit_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.csv"
    assert run(["zmeasure", "--z", "1,0", "--n", "2", "--out", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not dest.exists()


# Every subcommand with cheap valid values for its numeric arguments.  The
# fuzz test below replaces at least one of them with a value from _BAD, so
# no slow mpmath-route computation runs.
_FUZZ_COMMANDS = {
    "partitions": (["partitions"], {"--n": "3", "--theta": "0.5", "--max-rows": "2"}),
    "zmeasure": (["zmeasure"], {"--z": "1,0", "--theta": "0.5", "--n": "2"}),
    "mixed": (["mixed"], {"--z": "1,0", "--theta": "0.5", "--xi": "0.5", "--n": "2"}),
    "lattice-corr": (
        ["lattice-corr"],
        {"--z": "0.5,0", "--theta": "0.5", "--xi": "0.5", "--x": "3/2", "--nmax": "5"},
    ),
    "pairings": (["pairings"], {"--n": "2", "--t": "1.0"}),
    "gelfand": (["gelfand", "--g", "1,2;3,4"], {"--n": "2", "--z": "1,0"}),
    "whittaker": (["whittaker"], {"--k": "1.0", "--m": "0.5,0", "--x": "2.0"}),
    "kernel scalar": (["kernel", "scalar"], {"--z": "0.3,0.4", "--x": "1.0", "--y": "2.0"}),
    "kernel matrix": (["kernel", "matrix"], {"--z": "0.3,0.4", "--x": "1.0", "--y": "2.0"}),
    "corr": (["corr"], {"--z": "0.3,0.4", "--u": "1.0"}),
    "verify-limit": (
        ["verify-limit"],
        {"--z": "0.3,0.4", "--u": "1.0", "--xi": "0.5", "--nmax": "5"},
    ),
}
_BAD = ("nan", "inf", "-inf", "", "abc", "-1", "1e400", "0", "1e300", "1e-320")


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    head, numeric = _FUZZ_COMMANDS[command]
    bad = draw(st.dictionaries(st.sampled_from(sorted(numeric)), st.sampled_from(_BAD), min_size=1))
    # "--opt=value", so that values such as "-inf" are not read as options
    return head + [f"{opt}={bad.get(opt, value)}" for opt, value in numeric.items()]


@settings(max_examples=120, deadline=None)
@given(_fuzzed_argv())
@example(["partitions", "--n=3", "--theta=0.5", "--max-rows=-1"])
def test_fuzzed_numeric_arguments_keep_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv


# --g cycles and --lam parts: small integers, some out of range, repeated or
# negative, mixed with malformed tokens
_INT_TOKENS = st.one_of(st.integers(-1, 9).map(str), st.sampled_from(_BAD + ("1.5", "a", " 2")))
_POINT_TOKENS = ("1/2", "3/2", "5/2", "1.5", "7/2", "-1/2", "0", "1/3", "abc", "nan", "inf", "1/0", "")


@st.composite
def _fuzzed_list_argv(draw):
    if draw(st.booleans()):
        cycles = draw(st.lists(st.lists(_INT_TOKENS, max_size=4).map(",".join), max_size=4))
        argv = ["gelfand", f"--n={draw(st.sampled_from(['1', '2', '3']))}", f"--g={';'.join(cycles)}"]
        if draw(st.booleans()):
            argv.append("--z=1,0")
        lam = draw(st.none() | st.lists(_INT_TOKENS, max_size=4).map(",".join))
        return argv if lam is None else argv + [f"--lam={lam}"]
    points = draw(st.lists(st.sampled_from(_POINT_TOKENS), min_size=2, max_size=4))
    theta = draw(st.sampled_from(["0.5", "1"]))
    return ["lattice-corr", "--z=0.5,0", f"--theta={theta}", "--xi=0.5", "--nmax=5", "--x", *points]


@settings(max_examples=150, deadline=None)
@given(_fuzzed_list_argv())
@example(["gelfand", "--n=2", "--g=1,2;2,3", "--lam=2,1"])
@example(["lattice-corr", "--z=0.5,0", "--xi=0.5", "--nmax=5", "--x", "3/2", "3/2"])
def test_fuzzed_list_arguments_keep_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv


# valid indices where the hypergeometric parameters of W are integers or
# half-integers: terminating series, perturbed hypercomb, exact zeros
_WHITTAKER_K = tuple(str(k / 2) for k in range(-2, 7))
_WHITTAKER_M = ("0,0", "0.5,0", "1,0", "1.5,0", "0,2")
_WHITTAKER_X = ("0.5", "1", "2", "4", "6")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_WHITTAKER_K),
    st.sampled_from(_WHITTAKER_M),
    st.lists(st.sampled_from(_WHITTAKER_X), min_size=1, max_size=3).map(",".join),
)
@example("2.0", "0.5,0", "2.0")
def test_fuzzed_whittaker_degenerate_indices_keep_exit_contract(k, m, x):
    argv = ["whittaker", f"--k={k}", f"--m={m}", f"--x={x}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv


def test_csv_rows_are_written_as_they_are_formatted(monkeypatch):
    from zmeasures import cli

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)

    def rows():
        for i in range(3):
            # the header and every earlier row are out before row i is formed
            assert out.getvalue().count("\n") == (i + 1 if i else 0)
            yield {"i": i}

    cli._emit(rows(), "csv", None)
    assert out.getvalue() == "i\n0\n1\n2\n"


@pytest.mark.parametrize("argv", ["partitions --n 101", "partitions --n -1", "partitions --n 3 --max-rows -1"])
def test_streamed_partitions_refused_before_the_first_byte(capsys, argv):
    assert run(argv.split()) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        ("pairings --n 0", "n must be >= 1, got 0"),
        ("pairings --n 9", "matching enumeration capped at n <= 8, got 9"),
        ("pairings --n 3 --t 0", "t must be positive, got 0.0"),
        ("pairings --n 3 --t nan", "t must be positive, got nan"),
        # t^2 overflows only for the matching of three circles, the last row
        ("pairings --n 3 --t 1e200", "t = 1e+200 overflows t^(circles-1) or (t+2) ... (t+4)"),
    ],
)
def test_streamed_pairings_refused_before_the_first_byte(capsys, argv, message):
    assert run(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_pairings_writes_each_row_before_forming_the_next(monkeypatch):
    from zmeasures import cli

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    real = cli.cycle_count
    written = []

    def spy(x):
        written.append(out.getvalue().count("\n"))
        return real(x)

    monkeypatch.setattr(cli, "cycle_count", spy)
    assert run(["pairings", "--n", "3"]) == 0
    # the first row is formed before the header, which names its keys
    assert written == [0] + [i + 1 for i in range(1, 15)]


def test_mixed_weighs_each_size_after_the_rows_before_it(monkeypatch):
    # the table streams size by size: when size n is weighed, the header,
    # the n = 0 row and every row of the sizes below n are written
    from zmeasures import cli

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    real = cli.z_measure_table
    written = []

    def spy(n, p):
        written.append((n, out.getvalue().count("\n")))
        return real(n, p)

    monkeypatch.setattr(cli, "z_measure_table", spy)
    assert run(["mixed", "--z", "1.5,0", "--xi", "0.5", "--n", "6"]) == 0
    rows = [sum(1 for _ in iter_partition_tuples(k)) for k in range(1, 7)]
    assert written == [(n, 2 + sum(rows[:n - 1])) for n in range(1, 7)]
    assert out.getvalue() == (ROOT / "tests" / "golden" / "mixed_z1.5_0_xi0.5_n6.csv").read_text()
