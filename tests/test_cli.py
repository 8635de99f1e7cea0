"""The command-line surface: outputs, exit codes, syntax, help, determinism."""

import json
import os
import subprocess
import sys

import pytest

import linkcensus
from linkcensus import cli, flype, oracle, series


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def usage_error(capsys, argv) -> str:
    """The one stderr line of a usage error, which exits 2 and prints nothing on stdout."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, captured.err)
    return lines[0]


def test_series_reduced_tangles(capsys):
    code, out = run_cli(capsys, "series", "--model", "reduced", "--what", "tangles",
                        "--order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"var": "g", "order": 6,
                       "coeffs": ["0", "1", "2", "6", "22", "91", "408"]}


def test_series_flype_classes(capsys):
    code, out = run_cli(capsys, "series", "--model", "flype", "--what", "tangles",
                        "--order", "5")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "1", "2", "4", "10", "29"]


def test_series_loop_weight(capsys):
    code, out = run_cli(capsys, "series", "--model", "on", "--n", "2", "--order", "3")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "1", "5/2", "11"]


def test_series_csv_output(capsys):
    code, out = run_cli(capsys, "series", "--model", "raw", "--order", "2",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[:3] == ["p,count", "0,0", "1,1/2"]


def test_enumerate_csv(capsys):
    code, out = run_cli(capsys, "enumerate", "--vertices", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "V,vertex_type_counts,genus,strands,connected,count"
    assert "1,crossing=1,0,1,true,2" in lines


def test_enumerate_json(capsys):
    code, out = run_cli(capsys, "enumerate", "--vertices", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["V"] == 1
    assert {"genus": 1, "strands": 2, "connected": True, "count": 1} in payload["cells"]


def test_enumerate_mixed_model(capsys):
    code, out = run_cli(capsys, "enumerate", "--vertices", "2", "--tangencies", "1")
    assert code == 0
    assert "crossing=1;tangency=1" in out


def test_enumerate_mixed_model_at_four_vertices(capsys):
    code, out = run_cli(capsys, "enumerate", "--vertices", "4", "--tangencies", "2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(row.startswith("4,crossing=2;tangency=2,") for row in rows)
    assert sum(int(row.rsplit(",", 1)[1]) for row in rows) == 15 * 13 * 11 * 9 * 7 * 5 * 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_threads_option_is_accepted_and_ignored(capsys, threads):
    # --threads is kept so that older invocations parse; enumeration is single-process
    _, plain = run_cli(capsys, "enumerate", "--vertices", "3")
    code, threaded = run_cli(capsys, "--threads", threads, "enumerate", "--vertices", "3")
    assert code == 0
    assert threaded == plain
    for argv in (["--help"], ["enumerate", "--help"]):
        code, text = run_cli(capsys, *argv)
        assert code == 0
        assert "--threads" not in text


def test_threads_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("LINKCENSUS_THREADS", "abc")
    code, out = run_cli(capsys, "enumerate", "--vertices", "2")
    assert code == 0
    assert "2,crossing=2," in out


@pytest.mark.parametrize("failure", [
    flype.BranchMismatchError("no quintic factor matches the series branch"),
    ArithmeticError("residual out of range"),
])
def test_library_self_check_failure_exits_three(capsys, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(flype, "flype_singularity", fail)
    code = cli.main(["constants", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(failure) in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_newton_residual_failure_exits_three(capsys, monkeypatch):
    # a halved Newton step cannot cancel the residual: the library's own
    # check fails, which is not a usage error
    exact_div = series.div
    monkeypatch.setattr(series, "div", lambda a, b: exact_div(a, b) / 2)
    code = cli.main(["series", "--model", "reduced", "--what", "tangles"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ArithmeticError: Newton iteration failed")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.fixture
def corrupt_two_leg_table(monkeypatch):
    """Every count of the one-vertex two-leg table doubled for the test's
    duration, with the tangle cells cached before it or built under it
    dropped."""
    cached = oracle._cached_cells

    def corrupt(legs, species, planar_only, twopi):
        cells = cached(legs, species, planar_only, twopi)
        if legs == 2 and sum(count for _, count in species) == 1:
            return {key: 2 * count for key, count in cells.items()}
        return cells

    monkeypatch.setattr(oracle, "_cached_cells", corrupt)
    oracle._gamma_cells.cache_clear()
    yield
    oracle._gamma_cells.cache_clear()


def test_negative_tangle_cell_exits_three(capsys, corrupt_two_leg_table):
    # too many disconnected four-leg diagrams are taken off: the tangle
    # cells' own check fails
    with pytest.raises(ArithmeticError, match="negative connected four-point count at V = 1"):
        oracle._gamma_cells(oracle._strand_offsets(oracle.CROSSING), 1)
    code = cli.main(["crosscheck", "--vmax", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ArithmeticError: negative connected four-point")
    assert len(captured.err.strip().splitlines()) == 1


def test_two_color_reduced_order_zero(capsys):
    code, out = run_cli(capsys, "series", "--model", "two-color", "--reduced",
                        "--order", "0")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0"]


def test_constants_table(capsys):
    code, out = run_cli(capsys, "constants", "--format", "csv")
    assert code == 0
    assert "flype-growth" in out
    assert "6.14793" in out


def test_crosscheck_passes(capsys):
    code, out = run_cli(capsys, "crosscheck", "--vmax", "3")
    assert code == 0
    assert "ok connected-four-point" in out
    assert "MISMATCH" not in out


def test_crosscheck_refuses_vmax_zero(capsys):
    # vmax 0 would compare no coefficient and still report four "ok" lines
    code = cli.main(["crosscheck", "--vmax", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--vmax >= 1" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_asymptotics_json(capsys):
    code, out = run_cli(capsys, "asymptotics", "--sequence", "reduced-links",
                        "--terms", "12")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["growth"] - 6.75) / 6.75 < 0.02
    assert len(payload["diagnostics"]) >= 1
    assert len(payload["ratios"]) == 11


def test_asymptotics_refuses_an_unsettled_fit(capsys):
    # at 12 terms the flype-class fit reads growth 6.862 and exponent -10.99
    # (6.148 and -2.5 at 30): its last two extrapolants differ by 5 %
    code = cli.main(["asymptotics", "--sequence", "flype-classes", "--terms", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--terms" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    code, out = run_cli(capsys, "asymptotics", "--sequence", "flype-classes")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 30
    assert abs(payload["growth"] - 6.148) < 1e-3
    assert abs(payload["exponent"] + 2.5) < 1e-2


def test_usage_error_exits_two(capsys):
    # a usage error is reported like every other exit-2 path: one error line
    for argv in (
        [],
        ["no-such-command"],
        ["series", "--model", "bogus"],
        ["series", "--order", "x"],
        ["series", "--model", "on", "--n", "1/0", "--order", "2"],
        ["series", "--order"],
        ["series", "--no-such-option", "1"],
        ["series", "stray"],
        ["enumerate"],
        ["enumerate", "--vertices", "2", "--planar=yes"],
        ["enumerate", "--vert", "3"],  # abbreviations are refused
        ["--threads", "x", "enumerate", "--vertices", "2"],
        ["series", "--threads", "2"],  # --threads goes before the command
    ):
        usage_error(capsys, argv)


def test_option_syntax(capsys):
    spaced = run_cli(capsys, "series", "--model", "raw", "--order", "5")
    assert spaced[0] == 0
    assert run_cli(capsys, "series", "--model=raw", "--order=5") == spaced
    assert run_cli(capsys, "--threads=2", "series", "--model", "raw", "--order", "5") == spaced
    # a repeated option keeps its last value
    assert run_cli(capsys, "series", "--model", "on", "--model", "raw", "--order", "9",
                   "--order=5") == spaced
    # a value word may start with "-"
    code, out = run_cli(capsys, "series", "--model", "on", "--n", "-1/2", "--order", "3")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "-1/4", "-15/32", "-3/2"]


HELP_LISTS = {
    None: ["series", "enumerate", "constants", "crosscheck", "asymptotics"],
    "series": ["--model {raw,reduced,flype,on,two-color}", "--what {links,tangles}", "--n",
               "--reduced", "--order", "--format {json,csv}"],
    "enumerate": ["--vertices", "--planar", "--connected", "--tangencies",
                  "--format {csv,json}"],
    "constants": ["--format {json,csv}"],
    "crosscheck": ["--vmax"],
    "asymptotics": ["--sequence {raw-links,reduced-links,reduced-tangles,flype-classes}",
                    "--terms"],
}


@pytest.mark.parametrize("command", list(HELP_LISTS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_option(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    code, text = run_cli(capsys, *argv)
    assert code == 0
    assert capsys.readouterr().err == ""
    for item in HELP_LISTS[command]:
        assert item in text, item
    assert "--threads" not in text


def test_module_entry_point_reads_sys_argv(capsys):
    # `python -m linkcensus.cli` calls main() with no argv, so it parses sys.argv
    src = os.path.dirname(os.path.dirname(linkcensus.__file__))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "linkcensus.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})

    bare = run()
    assert bare.returncode == 2
    assert bare.stdout == ""
    assert len(bare.stderr.splitlines()) == 1 and bare.stderr.startswith("error: ")
    argv = ["series", "--model", "raw", "--order", "2"]
    result = run(*argv)
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == run_cli(capsys, *argv)[1]


@pytest.mark.parametrize("argv, message", [
    (["series", "--model", "two-color", "--n", "3"], "--n sets the loop weight of --model on only"),
    (["series", "--model", "reduced", "--n", "1/2"], "--n sets the loop weight of --model on only"),
    (["series", "--model", "flype", "--what", "tangles", "--n", "0"],
     "--n sets the loop weight of --model on only"),
    (["series", "--model", "on", "--reduced"], "--reduced applies to --model two-color only"),
    (["series", "--model", "raw", "--reduced"], "--reduced applies to --model two-color only"),
])
def test_flags_the_model_would_ignore_are_refused(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_loop_weight_is_a_loop_weight(capsys):
    # every closed diagram has a loop, so n = 0 weighs the free energy to zero
    code, out = run_cli(capsys, "series", "--model", "on", "--n", "0", "--order", "3")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "0", "0", "0"]


def test_asymptotics_has_no_format_option(capsys):
    assert "--format" in usage_error(capsys, ["asymptotics", "--format", "json"])


def test_domain_error_exits_two(capsys):
    code = cli.main(["enumerate", "--vertices", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ceiling" in captured.err


@pytest.mark.parametrize("argv", [
    ["series", "--model", "on", "--order", "7"],
    ["enumerate", "--vertices", "7"],
    ["crosscheck", "--vmax", "7"],
])
def test_ceiling_error_names_the_limit_not_a_keyword(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: V = 7 exceeds the enumeration ceiling")
    assert "at most 6 vertices" in captured.err
    assert "`ceiling=`" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["series", "--model", "on", "--order", "7"],
    ["crosscheck", "--vmax", "7"],
])
def test_ceiling_is_refused_before_any_search(capsys, monkeypatch, argv):
    def no_search(*args, **kwargs):
        raise AssertionError("searched below the ceiling before refusing")

    monkeypatch.setattr(oracle, "_fast_search", no_search)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: V = 7 exceeds the enumeration ceiling: the command "
                            "line enumerates at most 6 vertices\n")


def test_enumerate_rejects_more_tangencies_than_vertices(capsys):
    # 5 tangencies among 2 vertices would leave -3 crossings
    code = cli.main(["enumerate", "--vertices", "2", "--tangencies", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nonnegative" in captured.err
