"""Command-line interface: emissions, determinism, and exit codes."""
import json
import pathlib
import subprocess
import sys

import pytest

from aemle import (
    amplitude_point,
    classical_bound,
    cli,
    cr_lower_bound,
    make_schedule,
    max_grover_depth,
    total_queries,
)
from aemle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_crbound_table(capsys):
    code, out, err = run_cli(
        capsys, "crbound", "--a", "0.375", "--kappa", "0.01", "--M", "4", "--format", "table"
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0].startswith("# aemle 0.1.0 crbound seed=20250817")
    assert "m_bar=49" in lines[0]
    assert lines[1].split()[:3] == ["M", "n_queries", "epsilon_min"]
    assert len(lines) == 2 + 4


def _crbound_reference(a, kappa, kind, M_max, shots, r):
    """crbound's rows as the command's own loop computed them, floats as hex."""
    point = amplitude_point(a, kappa)
    mbar = max_grover_depth(kappa) if kappa > 0.0 else None
    rows = []
    for M in range(1, M_max + 1):
        schedule = make_schedule(kind, M, shots, r)
        nq = total_queries(schedule)
        bound = cr_lower_bound(point, schedule)
        beyond = mbar is not None and max(schedule.depths) > mbar
        rows.append([M, nq, bound.epsilon_min.hex(), classical_bound(a, nq).hex(),
                     bound.identifiable, beyond])
    return rows


@pytest.mark.parametrize("kappa", [0.0, 0.003])
@pytest.mark.parametrize("kind, r", [("classical", None), ("lis", None), ("eis", None),
                                     ("powerbase", 2.5)])
def test_crbound_rows_equal_the_reference_loop(capsys, kind, r, kappa):
    argv = ["crbound", "--a", "0.375", "--kappa", repr(kappa), "--kind", kind, "--M", "10",
            "--format", "json"]
    code, out, err = run_cli(capsys, *argv, *(["--r", repr(r)] if r is not None else []))
    assert code == 0 and err == ""
    doc = json.loads(out)
    got = [[M, nq, eps.hex(), cls.hex(), ident, beyond]
           for M, nq, eps, cls, ident, beyond in doc["rows"]]
    assert got == _crbound_reference(0.375, kappa, kind, 10, 100, r)
    assert doc["meta"]["params"].get("m_bar") == (max_grover_depth(kappa) if kappa else None)


def test_byte_identical_reruns(capsys):
    argv = ["trials", "--a", "0.3", "--kappa", "0.05", "--M", "2", "--shots", "30",
            "--trials", "4", "--format", "csv"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# Verbatim output of `aemle trials --a 0.3 --kappa 0.05 --M 3 --shots 30
# --trials 8 --seed 7 --format csv`: any change to the estimator's arithmetic
# or to the trial streams shows up here as a changed byte.
TRIALS_GOLDEN_CSV = (
    "# aemle 0.1.0 trials seed=7 a=0.29999999999999999 kappa=0.050000000000000003"
    " kind=eis shots=30 trials=8 divisions=32\n"
    "M,N_q,rmse,stderr,mean_kappa_hat,failed_trials,epsilon_min\n"
    "1,120,0.062331107041120187,0.017172635253624398,0.034867852070717111,0,"
    "0.08366600265340754\n"
    "2,270,0.019015512674399184,0.0052409794501871261,0.039733636167044513,0,"
    "0.021074264246132696\n"
    "3,540,0.0067936053341688613,0.0010208389441501921,0.051576263090873355,0,"
    "0.010685398300063072\n"
)


@pytest.mark.simd_golden
def test_trials_golden_is_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "trials", "--a", "0.3", "--kappa", "0.05", "--M", "3", "--shots", "30",
        "--trials", "8", "--seed", "7", "--format", "csv"
    )
    assert code == 0
    assert out == TRIALS_GOLDEN_CSV


def test_trials_rows_independent_of_M_range(capsys):
    # each M draws its trials from its own (seed, M, trial) streams, so the
    # rows for M = 1, 2 do not depend on how many M values the run covers
    base = ["trials", "--a", "0.3", "--kappa", "0.05", "--shots", "30",
            "--trials", "4", "--format", "csv"]
    _, out2, _ = run_cli(capsys, *base, "--M", "2")
    _, out3, _ = run_cli(capsys, *base, "--M", "3")
    rows2 = out2.strip().split("\n")[1:]
    rows3 = out3.strip().split("\n")[1:]
    assert len(rows2) == 3 and rows3[:3] == rows2


def test_csv_reals_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "crbound", "--a", "0.375", "--kappa", "0.1", "--M", "2", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[2:]]
    for row in rows:
        eps = float(row[2])
        # 17 significant digits: parsing the text recovers the double exactly
        assert f"{eps:.17g}" == row[2]


def test_estimate_golden_simulation(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--simulate", "--a", "0.375", "--kappa", "0.067",
        "--M", "6", "--seed", "1", "--format", "csv"
    )
    assert code == 0
    header, names, values = out.strip().split("\n")
    assert "seed=1" in header
    row = dict(zip(names.split(","), values.split(",")))
    assert float(row["a_hat"]) == pytest.approx(0.37104760708232948, abs=1e-15)
    assert float(row["kappa_hat"]) == pytest.approx(0.085802365389018947, abs=1e-15)
    # seven 32 x 32 stage grids and four 17 x 17 zoom rounds
    assert int(row["evaluations"]) == 32 * 32 * 7 + 4 * 17 * 17
    assert row["anomalous"] == "false"


def test_estimate_from_file(tmp_path, capsys):
    data_file = tmp_path / "run.json"
    data_file.write_text('{"stages": [{"m": 0, "shots": 100, "hits": 37}]}')
    code, out, _ = run_cli(capsys, "estimate", "--data", str(data_file), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "estimate"
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert abs(row["a_hat"] - 0.37) < 1.0 / 63
    assert row["kappa_identifiable"] is False


def test_estimate_file_errors(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, _, err = run_cli(capsys, "estimate", "--data", str(missing))
    assert code == 2 and "aemle:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "estimate", "--data", str(bad))
    assert code == 2

    fractional = tmp_path / "fractional.json"
    fractional.write_text('{"stages": [{"m": 0, "shots": 10, "hits": 4}, '
                          '{"m": 1.7, "shots": 10, "hits": 5}]}')
    code, out, err = run_cli(capsys, "estimate", "--data", str(fractional))
    assert code == 2 and out == "" and "m=1.7" in err

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text('{"stages": [{"m": 0, "shots": 10, "hits": 0}]}')
    code, _, err = run_cli(capsys, "estimate", "--data", str(degenerate))
    assert code == 3 and "aemle:" in err


def _stages_json(stages):
    return json.dumps({"stages": [{"m": m, "shots": n, "hits": h} for m, n, h in stages]})


@pytest.mark.parametrize(
    "stages",
    [
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)],  # no shots at all
        [(0, 100, 100), (1, 100, 100), (2, 100, 100)],  # every shot a hit
        [(0, 100, 0), (1, 100, 0), (2, 100, 0)],  # every shot a miss
    ],
)
def test_estimate_without_hits_and_misses_exits_3(tmp_path, capsys, stages):
    data_file = tmp_path / "saturated.json"
    data_file.write_text(_stages_json(stages))
    code, out, err = run_cli(capsys, "estimate", "--data", str(data_file), "--format", "csv")
    assert code == 3 and out == ""
    assert "no stage has both hits and misses" in err


# (id, argv, text stderr must hold): a flag the CLI checks itself, the flags
# the library checks with the same exit code, and non-finite hardware inputs
INVALID_FLAGS = [
    ("crbound-a", ["crbound", "--a", "1.5"], "--a"),
    ("crbound-shots", ["crbound", "--a", "0.3", "--shots", "0"], "shots=0"),
    ("hitcurve-shots", ["hitcurve", "--a", "0.3", "--shots", "0"], "shots=0"),
    ("trials-trials", ["trials", "--a", "0.3", "--trials", "0"], "trials=0"),
    ("trials-M-zero", ["trials", "--a", "0.3", "--M", "0"], "M_max=0"),
    ("trials-M-negative", ["trials", "--a", "0.3", "--M", "-2"], "M_max=-2"),
    ("hitcurve-max-depth", ["hitcurve", "--a", "0.3", "--max-depth", "-3"], "--max-depth"),
    ("estimate-divisions", ["estimate", "--simulate", "--a", "0.3", "--kappa", "0.01",
                            "--divisions", "257"], "divisions_per_stage"),
    ("density-samples", ["density", "--kappa", "0.01", "--samples", "10"], "samples=10"),
    ("density-threshold", ["density", "--kappa", "0.01", "--threshold", "1.5"], "threshold=1.5"),
    ("hwspec-eps", ["hwspec", "--eps", "0", "--nint", "1"], "epsilon_target=0.0"),
    ("hwspec-nint", ["hwspec", "--eps", "1e-3", "--nint", "0"], "N_int=0"),
    ("hwspec-ts-nan", ["hwspec", "--eps", "1e-3", "--nint", "1", "--ts", "nan"], "t_s=nan"),
    ("hwspec-error-ratio-inf", ["hwspec", "--eps", "1e-3", "--nint", "5", "--error-ratio", "inf"],
     "error_ratio=inf"),
    ("hwspec-kappa-bar-nan", ["hwspec", "--eps", "1e-3", "--nint", "1", "--kappa-bar", "nan"],
     "kappa_bar_override=nan"),
    ("hwspec-kappa-bar-inf", ["hwspec", "--eps", "1e-3", "--nint", "1", "--kappa-bar", "inf"],
     "kappa_bar_override=inf"),
]


@pytest.mark.parametrize(
    "argv,named", [case[1:] for case in INVALID_FLAGS], ids=[case[0] for case in INVALID_FLAGS]
)
def test_invalid_flag_value_exits_2(capsys, argv, named):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("AEMLE_SEED", "99")
    _, out, _ = run_cli(capsys, "hitcurve", "--a", "0.2", "--max-depth", "2", "--format", "csv")
    assert "seed=99" in out.split("\n")[0]
    _, out, _ = run_cli(
        capsys, "hitcurve", "--a", "0.2", "--max-depth", "2", "--seed", "5", "--format", "csv"
    )
    assert "seed=5" in out.split("\n")[0]
    monkeypatch.setenv("AEMLE_SEED", "weird")
    code, _, err = run_cli(capsys, "hitcurve", "--a", "0.2", "--max-depth", "2")
    assert code == 2


SEEDED_COMMANDS = [
    ["density", "--kappa", "0.1", "--samples", "1000"],
    ["trials", "--a", "0.3", "--kappa", "0.05", "--M", "1", "--trials", "2"],
    ["estimate", "--simulate", "--a", "0.3", "--kappa", "0.05", "--M", "2"],
    ["hitcurve", "--a", "0.2", "--max-depth", "2"],
]


@pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_exits_2(capsys, monkeypatch, argv, source):
    # numpy's SeedSequence refuses negative entropy with a bare ValueError
    if source == "flag":
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert "--seed=-1" in err
    else:
        monkeypatch.setenv("AEMLE_SEED", "-5")
        code, out, err = run_cli(capsys, *argv)
        assert "AEMLE_SEED=-5" in err
    assert code == 2 and out == ""
    assert "non-negative" in err


def test_density_emission(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--kappa", "0.1", "--samples", "1000", "--format", "csv"
    )
    assert code == 0
    names, values = out.strip().split("\n")[1:]
    row = dict(zip(names.split(","), values.split(",")))
    assert float(row["density_percent"]) == 0.0
    assert row["schedule"].startswith("eis;depths=")


def test_density_ladder_keeps_one_amplified_stage_at_m_bar_zero(capsys):
    code, out, err = run_cli(
        capsys, "density", "--kappa", "1.5", "--samples", "1000", "--format", "csv"
    )
    assert code == 0 and err == ""
    assert "eis;depths=0|1;" in out


def test_contour_emission(capsys):
    code, out, _ = run_cli(
        capsys, "contour", "--a-min", "0.2", "--a-max", "0.8", "--a-points", "3",
        "--kappa-min", "1e-3", "--kappa-max", "1e-1", "--kappa-points", "3",
        "--M", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    header_cols = lines[1].split(",")
    assert header_cols[0] == "a"
    assert len(header_cols) == 4 and header_cols[1].startswith("kappa=")
    assert len(lines) == 2 + 3
    # a non-finite axis end reaches the library's check without a numpy warning
    code, out, err = run_cli(capsys, "contour", "--kappa-max", "inf")
    assert code == 3 and out == ""
    assert err == "aemle: kappa grid must be finite and non-negative\n"


def test_hwspec_emission(capsys):
    code, out, _ = run_cli(
        capsys, "hwspec", "--eps", "0.001", "--nint", "5", "--kappa-bar", "0.005",
        "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    table = {row[0]: row[2] for row in doc["rows"]}
    assert table["N_s"] == 12687
    assert table["N_d"] == 16295
    assert table["m_bar"] == 99
    assert table["t_i_rule"] == "per_shot"


# Verbatim output of `aemle hwspec --eps 0.001 --nint 5 --format csv`: the
# kappa-bar scan evaluates the Cramer-Rao bound on about 200 saturated
# ladders, and t_total sums over the capped doubling ladder.
HWSPEC_GOLDEN_CSV = (
    "# aemle 0.1.0 hwspec seed=20250817 eps=0.001 nint=5 nk=100 t_s=7.1e-08"
    " t_d=2.8000000000000002e-07 t_m=3.4999999999999999e-06 interval_factor=10"
    " error_ratio=10 interpretation=per_shot\n"
    "quantity,description,value\n"
    "N_nq,qubits per integration variable,10\n"
    "N_tnq,total data qubits,99\n"
    "N_y,multiplier partial products,1000\n"
    "N_s,single-qubit gates per round,12687\n"
    "N_d,two-qubit gates per round,16295\n"
    "kappa_bar,tolerable noise level,0.014144317864547588\n"
    "m_bar,maximum amplification depth,35\n"
    "eps_s,single-qubit gate error budget,8.053150839223794e-08\n"
    "eps_d,two-qubit gate error budget,8.053150839223794e-07\n"
    "t_AA,time per amplification round (s),0.0054633770000000002\n"
    "t_mbar,time of the deepest circuit (s),0.191221695\n"
    "t_total,total executing time (s),588.97899059999997\n"
    "t_i_rule,interval-time interpretation,per_shot\n"
    "gap_s,device eps_s over required,12417.499932192819\n"
    "gap_d,device eps_d over required,12417.499932192819\n"
)


def test_hwspec_golden_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "hwspec", "--eps", "0.001", "--nint", "5", "--format", "csv")
    assert code == 0
    assert out == HWSPEC_GOLDEN_CSV


def test_hwspec_with_no_kappa_bar_exits_3(capsys):
    # eps = 0.3 is met without amplification (sqrt(a(1-a)/N) = 0.0484), so
    # no noise level bounds the hardware
    code, out, err = run_cli(capsys, "hwspec", "--eps", "0.3", "--nint", "1")
    assert code == 3 and out == "" and "kappa-bar is unbounded" in err


def test_hwspec_on_the_deepest_eis_ladder(capsys):
    # m-bar = 2.5e15 gives a 54-stage ladder, which no stage-count guard refuses
    code, out, err = run_cli(
        capsys, "hwspec", "--eps", "1e-3", "--nint", "5", "--kappa-bar", "2e-16",
        "--format", "json"
    )
    assert code == 0 and err == ""
    table = {row[0]: row[2] for row in json.loads(out)["rows"]}
    assert table["m_bar"] == max_grover_depth(2e-16) == 2_500_000_000_000_000


def test_hwspec_with_an_unreachable_kappa_bar_exits_3(capsys):
    code, out, err = run_cli(capsys, "hwspec", "--eps", "1e-4", "--nint", "1", "--kappa-bar", "5000")
    assert code == 3 and out == "" and "kappa_bar=5000.0" in err


# m-bar passes 2**52 below kappa ~ 1.1e-16; these ran without end, or (at
# 5e-324) ended in an OverflowError traceback.
TINY_KAPPA = [
    ["crbound", "--a", "0.3", "--kappa", "1e-300", "--M", "2"],
    ["density", "--kappa", "1e-300", "--samples", "1000"],
    ["hwspec", "--eps", "1e-3", "--nint", "5", "--kappa-bar", "1e-300"],
    ["hwspec", "--eps", "1e-3", "--nint", "5", "--kappa-bar", "5e-324"],
]


@pytest.mark.parametrize("argv", TINY_KAPPA, ids=lambda argv: " ".join(argv))
def test_kappa_past_the_depth_floor_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("aemle: kappa=") and "maximum depth passes 2**52" in err


# 2**45 doubles (256 TiB) pass the 128 TiB user address space, so the
# allocation fails at once under any overcommit setting; these ended in
# numpy's _ArrayMemoryError traceback with exit code 1
HUGE = str(2**45)
TOO_LARGE = [
    ["density", "--kappa", "0.1", "--samples", HUGE],
    ["hitcurve", "--a", "0.3", "--shots", HUGE],
    ["estimate", "--simulate", "--a", "0.3", "--kappa", "0.01", "--shots", HUGE],
    ["trials", "--a", "0.3", "--shots", HUGE],
    ["contour", "--a-points", HUGE],
]


@pytest.mark.parametrize("argv", TOO_LARGE, ids=lambda argv: argv[0])
def test_an_input_too_large_to_allocate_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("aemle: Unable to allocate 256. TiB") and err.count("\n") == 1


# from 2**61 elements numpy cannot size the array at all and raises a
# ValueError instead; these ended in that traceback with exit code 1
COUNT_FLAGS = [argv[:-1] for argv in TOO_LARGE] + [["contour", "--kappa-points"]]


@pytest.mark.parametrize("size, message", [(2**61, "array is too big;"),
                                           (2**63, "Maximum allowed dimension exceeded")],
                         ids=["2**61", "2**63"])
@pytest.mark.parametrize("argv", COUNT_FLAGS, ids=lambda argv: " ".join(argv))
def test_an_input_too_large_to_size_exits_3(capsys, argv, size, message):
    code, out, err = run_cli(capsys, *argv, str(size))
    assert code == 3 and out == ""
    assert err.startswith(f"aemle: {message}") and err.count("\n") == 1


def test_any_other_value_error_keeps_its_traceback(capsys, monkeypatch):
    def defect(*args, **kwargs):
        raise ValueError("a defect inside the command")

    monkeypatch.setattr(cli, "anomaly_density", defect)
    with pytest.raises(ValueError, match="a defect inside the command"):
        main(["density", "--kappa", "0.1", "--samples", "1000"])


# stdout, stderr and exit code of help, usage and error text at COLUMNS=80,
# captured when every call built all 8 subcommands' flags; argparse's text
# is its Python version's, so the bytes hold on the version they name
CLI_TEXT = json.loads(
    pathlib.Path(__file__).with_name("cli_text_goldens.json").read_text(encoding="utf-8")
)


def run_captured(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's help, version and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", str(CLI_TEXT["columns"]))
    monkeypatch.delenv("AEMLE_SEED", raising=False)


@pytest.mark.simd_golden
@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != CLI_TEXT["python"],
    reason=f"argparse text captured on Python {CLI_TEXT['python']}",
)
@pytest.mark.parametrize("case", list(CLI_TEXT["cases"]))
def test_cli_text_is_byte_identical(capsys, fixed_terminal, case):
    want = CLI_TEXT["cases"][case]
    assert run_captured(capsys, want["argv"]) == (want["code"], want["out"], want["err"])


@pytest.mark.parametrize("case", list(CLI_TEXT["cases"]))
def test_cli_text_equals_that_of_the_parser_with_every_flag(capsys, fixed_terminal,
                                                             monkeypatch, case):
    # the same bytes on any Python: a call builds only its subcommand's flags
    argv = CLI_TEXT["cases"][case]["argv"]
    got = run_captured(capsys, argv)
    build_all = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_all())
    assert got == run_captured(capsys, argv)


def test_schedule_json_round_trips_through_parser(capsys):
    code, out, _ = run_cli(
        capsys, "schedule", "--kind", "powerbase", "--M", "4", "--r", "2.5",
        "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "powerbase" and doc["r"] == 2.5
    assert doc["stages"] == [{"m": m, "shots": 100} for m in (0, 1, 2, 6, 15)]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "schedule", "--M", "3", "--format", "csv", "--output", str(target)
    )
    assert code == 0 and out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("# aemle 0.1.0 schedule")
    assert "stage,m,shots" in content


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "aemle.cli", "crbound", "--a", "0.375", "--M", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("# aemle")

    bad = subprocess.run(
        [sys.executable, "-m", "aemle.cli", "crbound", "--a", "2.0"],
        capture_output=True, text=True, timeout=120,
    )
    assert bad.returncode == 2
