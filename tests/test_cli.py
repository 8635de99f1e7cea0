"""The command-line surface: outputs, exit codes, determinism."""

import json

import pytest

from linkcensus import cli, flype, oracle


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
    assert "--threads" not in cli._build_parser().format_help()


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


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as wrapped:
        cli.main(["series", "--model", "bogus"])
    assert wrapped.value.code == 2
    with pytest.raises(SystemExit) as wrapped:
        cli.main(["no-such-command"])
    assert wrapped.value.code == 2
    with pytest.raises(SystemExit) as wrapped:
        cli.main(["series", "--model", "on", "--n", "1/0", "--order", "2"])
    assert wrapped.value.code == 2


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


def test_asymptotics_has_no_format_option():
    with pytest.raises(SystemExit) as wrapped:
        cli.main(["asymptotics", "--format", "json"])
    assert wrapped.value.code == 2


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
