import os
import re
import subprocess
import sys

import pytest

from hswcsp import SolveResult, maximal_core, wcsp_to_text
from hswcsp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fig1_golden(fig1_path, capsys):
    code, out, err = run(capsys, "solve", fig1_path, "--alg", "lb")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "OPTIMAL 20"
    assert re.fullmatch(r"STATUS OPTIMAL LB 20 UB 20 CORES 1 TIME_MS \d+", lines[1])


@pytest.mark.parametrize("alg", ["lb", "ub", "lub"])
def test_solve_all_algorithms(fig1_path, capsys, alg):
    code, out, _ = run(capsys, "solve", fig1_path, "--alg", alg, "--deterministic")
    assert code == 0
    assert out.startswith("OPTIMAL 20\n")


def test_solve_timeout_exit_code(fig1_path, capsys):
    code, out, _ = run(capsys, "solve", fig1_path, "--time-limit", "0")
    assert code == 2
    assert out.startswith("TIMEOUT\n")
    assert "STATUS TIMEOUT LB 0 UB inf CORES 0" in out


def test_solve_infeasible_exit_code(infeasible, tmp_path, capsys):
    path = tmp_path / "inf.wcsp"
    path.write_text(wcsp_to_text(infeasible))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 3
    assert out.startswith("INFEASIBLE\n")
    assert "STATUS INFEASIBLE LB 0 UB inf" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "/no/such/file.wcsp"),
        ("solve", "FIG1", "--alg", "dijkstra"),
        ("solve", "FIG1", "--time-limit", "-1"),
        ("solve", "FIG1", "--alg", "lub", "--lb-cores", "0", "--ub-cores", "0"),
        ("gen", "--vars", "3", "--dom", "2", "--funcs", "0", "-o", "OUT"),
        ("nonsense",),
        (),
        ("solve", "FIG1", "--time-limit", "nan"),
        ("verify", "FIG1", "--time-limit", "-1"),
        ("verify", "FIG1", "--time-limit", "nan"),
    ],
)
def test_usage_and_input_errors_exit_1(fig1_path, tmp_path, capsys, argv):
    argv = [fig1_path if a == "FIG1" else a for a in argv]
    argv = [str(tmp_path / "out.wcsp") if a == "OUT" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err


def test_parse_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.wcsp"
    bad.write_text("gibberish\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert str(bad) in err


def test_unwritable_trace_is_an_input_error(fig1_path, tmp_path, capsys):
    trace = tmp_path / "missing" / "t.csv"
    code, out, err = run(capsys, "solve", fig1_path, "--trace", str(trace))
    assert (code, out) == (1, "")
    assert f"cannot write {trace}" in err


def test_trace_file_layout(fig1_path, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, _, _ = run(capsys, "solve", fig1_path, "--alg", "lb", "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0].startswith("# invocation: hswcsp solve ")
    assert lines[1] == "# instance: fig1"
    assert lines[2] == "elapsed_ms,kind,value,source"
    rows = [line.split(",") for line in lines[3:]]
    assert [r[1] for r in rows] == ["UB", "CORE", "LB", "UB", "DONE"]
    assert rows[-1][2] == "20" and rows[-1][3] == "MAIN"


def test_trace_file_written_even_on_timeout(fig1_path, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, _, _ = run(capsys, "solve", fig1_path, "--time-limit", "0", "--trace", str(trace))
    assert code == 2
    lines = trace.read_text().strip().split("\n")
    assert lines[2] == "elapsed_ms,kind,value,source"
    assert len(lines) == 3  # nothing happened before the deadline


def test_ctrl_c_reports_bounds_so_far(fig1_path, tmp_path, capsys, monkeypatch):
    calls = 0

    def interrupted_on_second_call(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 2:
            raise KeyboardInterrupt
        return maximal_core(*args, **kwargs)

    monkeypatch.setattr("hswcsp.engine.maximal_core", interrupted_on_second_call)
    trace = tmp_path / "t.csv"
    code, out, err = run(
        capsys, "solve", fig1_path, "--alg", "lub", "--trace", str(trace)
    )
    assert code == 2 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "TIMEOUT"
    # the lb loop's growth found UB 25 and one core; the ub loop's was cut
    assert re.fullmatch(r"STATUS TIMEOUT LB 0 UB 25 CORES 1 TIME_MS \d+", lines[1])
    rows = [line.split(",") for line in trace.read_text().strip().split("\n")[3:]]
    assert [(r[1], r[2]) for r in rows] == [("UB", "25"), ("CORE", "1")]


def test_gen_is_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.wcsp", "b.wcsp", "c.wcsp"))
    args = ("gen", "--seed", "7", "--vars", "4", "--dom", "3", "--funcs", "5")
    assert run(capsys, *args, "-o", str(a))[0] == 0
    assert run(capsys, *args, "-o", str(b))[0] == 0
    assert run(capsys, "gen", "--seed", "8", "--vars", "4", "--dom", "3",
               "--funcs", "5", "-o", str(c))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_output_verifies(tmp_path, capsys):
    out = tmp_path / "g.wcsp"
    code, _, _ = run(capsys, "gen", "--seed", "3", "--vars", "4", "--dom", "2",
                     "--funcs", "6", "--max-cost", "9", "-o", str(out))
    assert code == 0
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert text.strip().endswith("OK")


def test_verify_golden_line(fig1_path, capsys):
    code, out, err = run(capsys, "verify", fig1_path)
    assert code == 0 and err == ""
    assert out.strip() == "w*=20, hs_lb=20, hs_ub=20, hs_lub=20, OK"


def test_verify_infeasible_instance(infeasible, tmp_path, capsys):
    path = tmp_path / "inf.wcsp"
    path.write_text(wcsp_to_text(infeasible))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.strip() == (
        "w*=INFEASIBLE, hs_lb=INFEASIBLE, hs_ub=INFEASIBLE, hs_lub=INFEASIBLE, OK"
    )


def test_verify_rejects_oversized_instances(tmp_path, capsys):
    big = tmp_path / "big.wcsp"
    code, _, _ = run(capsys, "gen", "--vars", "25", "--dom", "2", "--funcs", "3",
                     "-o", str(big))
    assert code == 0
    code, _, err = run(capsys, "verify", str(big))
    assert code == 1
    assert "error" in err


def test_verify_mismatch_exit_code(fig1_path, capsys, monkeypatch):
    def wrong(w, time_limit=None):
        return SolveResult("OPTIMAL", 19, 19, 19, (0, 0, 0), 0, {}, 0.0, ())

    monkeypatch.setattr("hswcsp.cli.hs_lb", wrong)
    code, out, err = run(capsys, "verify", fig1_path)
    assert code == 4
    assert "w*=20, hs_lb=19, hs_ub=20, hs_lub=20, MISMATCH" in out
    assert "hs_lb: got 19, expected 20" in err


def test_module_entry_point(fig1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hswcsp.cli", "solve", fig1_path, "--alg", "ub"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("OPTIMAL 20\n")
