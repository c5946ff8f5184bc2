import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from splitnoise import ccr_matrix, gaussian_algebra, warren_sim
from splitnoise.cli import _build_parser, main
from splitnoise.ccr_matrix import NORM_STUDY_HEADER, TWO_THIRDS_PI
from splitnoise.warren_sim import LEMMA43_HEADER

SMALL_LEMMA43 = ["--m", "256", "--samples", "40", "--n-list", "4,8",
                 "--delta-list", "0.00390625", "--seed", "3"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_study_writes_csv(tmp_path, capsys):
    out = tmp_path / "norm_study.csv"
    code, stdout, _ = run(["norm-study", "--scheme", "oscillator",
                           "--dims", "16,32", "--seed", "7",
                           "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == NORM_STUDY_HEADER
    assert len(lines) == 3
    assert "norm-study:" in stdout and str(out) in stdout


def test_norm_study_both_schemes_row_count(tmp_path, capsys):
    out = tmp_path / "n.csv"
    code, _, _ = run(["norm-study", "--scheme", "both", "--dims", "16,32",
                      "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


def test_norm_study_rejects_bad_dims(tmp_path, capsys):
    code, _, err = run(["norm-study", "--dims", "32,16",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "error" in err


def test_norm_study_rejects_bad_alpha(tmp_path, capsys):
    code, _, _ = run(["norm-study", "--dims", "16", "--alpha", "0.3",
                      "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_weyl_suite_summary(capsys):
    code, stdout, _ = run(["weyl-suite", "--seed", "1", "--trials", "5"], capsys)
    assert code == 0
    assert "max residual" in stdout and "True" in stdout


@pytest.mark.parametrize("t", ["300", "1000"])
def test_weyl_suite_fails_over_non_finite_residuals(t, capsys):
    # at these horizons the Gram entries overflow: the residuals are nan,
    # which must reach the summary and turn its verdict False, and an
    # overflowing inner product difference must not end in a traceback;
    # a False verdict exits 1 after the summary line
    with pytest.warns((RuntimeWarning, gaussian_algebra.GramConditionWarning)
                      ) as record:
        code, stdout, _ = run(["weyl-suite", "--seed", "1", "--trials", "20",
                               "--t", t], capsys)
    assert any("overflow" in str(w.message) for w in record)
    assert code == 1
    assert "max residual nan <= 1e-9 is False" in stdout
    assert "weyl_phase=nan" in stdout


@pytest.mark.parametrize("t,code", [("300", 1), ("1419", 1), ("5000", 2)])
def test_weyl_suite_exit_status_reaches_the_shell(t, code):
    # through sys.exit(main()): a False verdict exits 1 with its summary,
    # a horizon past 2 ln(DBL_MAX) exits 2 with an error line, and
    # neither prints a traceback
    src = pathlib.Path(gaussian_algebra.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "splitnoise.cli",
                           "weyl-suite", "--seed", "1", "--trials", "4",
                           "--t", t], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    if code == 1:
        assert "max residual nan <= 1e-9 is False" in done.stdout
    else:
        assert done.stdout == ""
        assert done.stderr.startswith("error: t must be at most 1419.5654")


def test_warren_mass_json(tmp_path, capsys):
    out = tmp_path / "mass.json"
    code, stdout, _ = run(["warren-mass", "--m", "128", "--samples", "30",
                           "--seed", "2", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"estimate", "stderr", "samples", "m", "seed"}
    assert "warren-mass" in stdout


def test_lemma43_and_obstruction_pipeline(tmp_path, capsys):
    norm = tmp_path / "norm_study.csv"
    table = tmp_path / "lemma43.csv"
    report = tmp_path / "obstruction.json"
    assert run(["norm-study", "--dims", "16,32", "--out", str(norm)],
               capsys)[0] == 0
    code, stdout, _ = run(["lemma43", *SMALL_LEMMA43, "--out", str(table)],
                          capsys)
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == LEMMA43_HEADER
    assert len(lines) == 3
    code, stdout, _ = run(["obstruction", "--norm-from", str(norm),
                           "--lemma43-from", str(table),
                           "--out", str(report)], capsys)
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["N"] == 32
    assert payload["margin"] == pytest.approx(
        3 * payload["m_hat"] - payload["norm_value"])
    assert "margin" in stdout
    # m_hat comes from the edge-anchored estimate column, not u_mass/mass
    assert (f"m_hat {payload['m_hat']:.4f} from the edge-anchored estimate "
            f"column) -> {report}") in stdout


def readme_commands():
    """Each `splitnoise ...` example of the README's "Command line"
    section, with its backslash continuation lines joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Command line\n", 1)[1].split("\n## ", 1)[0]
    joined = section.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.strip().startswith("splitnoise ")]


def test_readme_command_examples_parse():
    # parsed only, never run: a renamed or removed flag fails here
    parser, subparsers = _build_parser()
    parsed = [parser.parse_args(argv).command for argv in readme_commands()]
    assert set(parsed) == set(subparsers.choices)


def test_lemma43_summary_reports_the_minimum_anchored_ratio(tmp_path, capsys):
    # the edge-anchored estimate has mean zero; the line also carries the
    # best row's u_mass/mass with its delta-method standard error
    code, stdout, _ = run(["lemma43", "--m", "256", "--samples", "40",
                           "--n-list", "4,8", "--delta-list", "0.03125,0.015625",
                           "--seed", "3", "--out", str(tmp_path / "t.csv")],
                          capsys)
    assert code == 0
    rows = warren_sim.lemma43_table(warren_sim.half_interval_profile(),
                                    [4, 8], [0.03125, 0.015625], 256, 40, 3)
    best = min(rows, key=lambda r: (r.delta, -r.n))
    assert best.n == 8 and best.u_ratio_stderr > 0.0
    assert (f"best row (n=8, delta=0.015625): estimate/mass "
            f"{best.estimate / best.mass:.4f}, u_mass/mass "
            f"{best.u_mass / best.mass:.4f} +- {best.u_ratio_stderr:.2g} "
            f"-> ") in stdout


def test_lemma43_summary_at_zero_mass_calls_the_ratios_undefined(tmp_path,
                                                                  capsys):
    # on a 4-point grid seed 0 draws no minimum in (0, 1/2): the mass is 0
    table = tmp_path / "zero.csv"
    code, stdout, _ = run(["lemma43", "--m", "4", "--samples", "1",
                           "--n-list", "1", "--delta-list", "0.25",
                           "--seed", "0", "--out", str(table)], capsys)
    assert code == 0
    assert ("best row (n=1, delta=0.25): mass 0, so estimate/mass and "
            "u_mass/mass are undefined -> ") in stdout
    assert table.read_text(encoding="utf-8") == (
        f"{LEMMA43_HEADER}\n1,0.25,4,1,0,0,0,0,0\n")


@pytest.mark.parametrize("header,row,message", [
    (NORM_STUDY_HEADER, "oscillator,16", "2 fields, expected 6"),
    (LEMMA43_HEADER, "4,0.00390625,256,40,0.1,0.01,1.0,0.1",
     "8 fields, expected 9"),
    # a nan or inf would reach obstruction.json, which is then not JSON
    (NORM_STUDY_HEADER, "oscillator,16,2.0943951,0.5,nan,0",
     "'nan' is not a finite number"),
    (LEMMA43_HEADER, "4,0.00390625,256,40,inf,0.01,1.0,0.1,3",
     "'inf' is not a finite number"),
    # a dimension below 2 used to reach obstruction.json as it was
    (NORM_STUDY_HEADER, "oscillator,-4,2.0943951,0.5,2.1,0",
     "N must be at least 2 and be a whole number, got -4"),
    (NORM_STUDY_HEADER, "oscillator,1,2.0943951,0.5,2.1,0",
     "N must be at least 2 and be a whole number, got 1"),
    # negative n, m, samples and seed used to reach obstruction.json too
    (LEMMA43_HEADER, "-4,0.25,-7,-1,0.5,0.01,1.0,0.1,-3",
     "n must be at least 1 and be a whole number, got -4"),
    (LEMMA43_HEADER, "4,0.25,2,40,0.5,0.01,1.0,0.1,3",
     "m must be at least 4 and be a whole number, got 2"),
    (LEMMA43_HEADER, "4,0.25,256,0,0.5,0.01,1.0,0.1,3",
     "samples must be at least 1 and be a whole number, got 0"),
    (LEMMA43_HEADER, "4,0.25,256,40,0.5,0.01,1.0,0.1,-3",
     "seed must lie in [0, 2**63) and be a whole number, got -3"),
], ids=["norm", "lemma43", "norm-nan-value", "lemma43-inf-estimate",
        "norm-negative-N", "norm-N-below-2", "lemma43-negative-n",
        "lemma43-m-below-4", "lemma43-zero-samples", "lemma43-negative-seed"])
def test_obstruction_names_file_and_line_of_a_bad_row(tmp_path, capsys,
                                                      header, row, message):
    norm, table = tmp_path / "norm.csv", tmp_path / "table.csv"
    assert run(["norm-study", "--dims", "16", "--out", str(norm)],
               capsys)[0] == 0
    assert run(["lemma43", *SMALL_LEMMA43, "--out", str(table)],
               capsys)[0] == 0
    bad = tmp_path / "short.csv"
    bad.write_text(f"{header}\n\n{row}\n", encoding="utf-8")
    sources = {NORM_STUDY_HEADER: norm, LEMMA43_HEADER: table}
    sources[header] = bad
    code, _, err = run(["obstruction",
                        "--norm-from", str(sources[NORM_STUDY_HEADER]),
                        "--lemma43-from", str(sources[LEMMA43_HEADER]),
                        "--out", str(tmp_path / "o.json")], capsys)
    assert code == 2
    assert f"{bad} line 3: {message}" in err and "Traceback" not in err


def test_single_sample_runs_write_zero_stderr_without_warnings(tmp_path, capsys):
    table, mass = tmp_path / "one.csv", tmp_path / "one.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["lemma43", *SMALL_LEMMA43, "--samples", "1",
                    "--out", str(table)], capsys)[0] == 0
        assert run(["warren-mass", "--m", "256", "--samples", "1",
                    "--out", str(mass)], capsys)[0] == 0
    text = table.read_text()
    assert "nan" not in text
    for line in text.splitlines()[1:]:
        fields = dict(zip(LEMMA43_HEADER.split(","), line.split(",")))
        assert fields["stderr"] == fields["mass_stderr"] == "0"
    assert json.loads(mass.read_text())["stderr"] == 0.0


def test_lemma43_rejects_misalignment_before_sampling(tmp_path, capsys):
    code, _, err = run(["lemma43", "--m", "256", "--samples", "40",
                        "--n-list", "3", "--delta-list", "0.00390625",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "divide" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def test_unwritable_output_exits_one(tmp_path, capsys):
    code, _, err = run(["norm-study", "--dims", "16",
                        "--out", str(tmp_path / "nodir" / "x.csv")], capsys)
    assert code == 1
    assert "error" in err


def test_byte_identical_reruns(tmp_path, capsys):
    argv = ["lemma43", *SMALL_LEMMA43]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)], capsys)[0] == 0
    assert run(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()

    # 150 replicas are three chunks: --threads 2 runs them on two workers
    for cmd, ext in ((["warren-mass", "--m", "256", "--samples", "150",
                       "--seed", "4"], "json"),
                     (["lemma43", *SMALL_LEMMA43, "--samples", "150"], "csv")):
        t1, t2 = tmp_path / f"t1.{ext}", tmp_path / f"t2.{ext}"
        assert run(["--threads", "1", *cmd, "--out", str(t1)], capsys)[0] == 0
        assert run(["--threads", "2", *cmd, "--out", str(t2)], capsys)[0] == 0
        assert t1.read_bytes() == t2.read_bytes()

    n1, n2 = tmp_path / "n1.csv", tmp_path / "n2.csv"
    assert run(["norm-study", "--dims", "16,32", "--out", str(n1)],
               capsys)[0] == 0
    assert run(["norm-study", "--dims", "16,32", "--out", str(n2)],
               capsys)[0] == 0
    assert n1.read_bytes() == n2.read_bytes()


# sha256 of the Monte Carlo artifacts at a small configuration, as the
# engine wrote them when it drew and reduced one walk at a time; drawing
# and reducing blocks of walks must write the same bytes on any number of
# threads (300 replicas are five chunks, which two or three workers share).
# The norm study's bytes are pinned too: its Hermite recurrence takes its
# coefficients from the ladder entries, which may differ from
# sqrt(j / 2) in the last bit, and must still write the same CSV.
PINNED_ARTIFACTS = {
    "norm-study": (["--scheme", "both", "--dims", "16,32,64",
                    "--alpha", "2.0943951023931953,2.9"],
                   "90b25587467ebfe7bf411c5d90aea0d4"
                   "fefb3c6eb76ebbe4f8b1cd4506ad3371"),
    "warren-mass": (["--m", "1024", "--samples", "300", "--seed", "4"],
                    "0cf1aece96a8a2e96c04faa35137f6b2"
                    "48a0b3c57b9632377347a060bb8b3fb3"),
    "lemma43": (["--m", "1024", "--samples", "300", "--n-list", "4,16",
                 "--delta-list", "0.0078125,0.0009765625", "--seed", "4"],
                "6cd0e1e188aedf5db89abf851f21c2d8"
                "b57dda2672c281dc258a9af7d2408b9f"),
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("command", PINNED_ARTIFACTS)
def test_monte_carlo_artifacts_keep_their_pinned_bytes(command, threads,
                                                       tmp_path, capsys):
    args, digest = PINNED_ARTIFACTS[command]
    out = tmp_path / "artifact"
    assert run(["--threads", threads, command, *args, "--out", str(out)],
               capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of a norm study over even and odd N and every angle class: the
# symmetric triple's 2 pi / 3, an angle on each side of it, and the
# degenerate alpha = pi, where both rotated terms reduce to -sgn Q; at odd
# N both schemes' blocks must keep sgn(0) = 0 on the kernel vector
PINNED_ODD_N_NORM_STUDY = (["norm-study", "--scheme", "both",
                            "--dims", "16,17,32,33,64", "--alpha",
                            "2.0943951023931953,2.9,1.7,3.141592653589793"],
                           "440526b0804c01aa2661dcf93dd005e1"
                           "3ef5dc35b2ce54aab19189efffebac74")


def test_norm_study_keeps_its_pinned_bytes_at_odd_n_and_every_angle(
        tmp_path, capsys):
    argv, digest = PINNED_ODD_N_NORM_STUDY
    out = tmp_path / "norm_study.csv"
    assert run([*argv, "--out", str(out)], capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# md5 of weyl-suite's standard output at seed 1 and 50 trials: the span
# algebra must keep its residuals to the bit
PINNED_WEYL_STDOUT = (["weyl-suite", "--seed", "1", "--trials", "50"],
                      "ea7fcaedd48d963eafdcd81b51a5daf0")


def test_weyl_suite_keeps_its_pinned_stdout(capsys):
    argv, digest = PINNED_WEYL_STDOUT
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.md5(stdout.encode()).hexdigest() == digest


def test_config_file_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# defaults for the small study\n"
                    "dims = 16\n"
                    "out = from_conf.csv\n", encoding="utf-8")
    flagged = tmp_path / "flagged.csv"
    # flag wins over config file
    code, _, _ = run(["--config", str(conf), "norm-study",
                      "--out", str(flagged)], capsys)
    assert code == 0
    assert flagged.exists()
    assert len(flagged.read_text().splitlines()) == 2  # dims from config


def test_config_file_missing_errors(tmp_path, capsys):
    code, _, err = run(["--config", str(tmp_path / "nope.conf"),
                        "norm-study", "--dims", "16",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPLITNOISE_OUT_DIR", str(tmp_path))
    code, _, _ = run(["norm-study", "--dims", "16", "--out", "env.csv"],
                     capsys)
    assert code == 0
    assert (tmp_path / "env.csv").exists()


def test_threads_cap_validated(tmp_path, capsys):
    code, _, _ = run(["--threads", "0", "norm-study", "--dims", "16",
                      "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_wall_time_flag_breaks_nothing(tmp_path, capsys):
    out = tmp_path / "wt.csv"
    code, _, _ = run(["norm-study", "--dims", "16", "--wall-time",
                      "--out", str(out)], capsys)
    assert code == 0
    last = out.read_text().splitlines()[1]
    assert not last.endswith(",0")  # measured seconds present


BAD_INPUTS = {
    "lemma43-delta-past-walk": ["lemma43", "--m", "160", "--samples", "2",
                                "--n-list", "16",
                                "--delta-list", "0.0125,0.6"],
    "lemma43-empty-n-list": ["lemma43", "--m", "256", "--n-list", ","],
    "lemma43-m-3": ["lemma43", "--m", "3", "--n-list", "1",
                    "--delta-list", "0.25"],
    "mass-m-3": ["warren-mass", "--m", "3"],
    "mass-m-0": ["warren-mass", "--m", "0"],
    "mass-seed-negative": ["warren-mass", "--m", "64", "--seed", "-1"],
    "weyl-trials-0": ["weyl-suite", "--trials", "0"],
    "weyl-seed-2**63": ["weyl-suite", "--seed", "9223372036854775808"],
    "weyl-t-0": ["weyl-suite", "--t", "0"],
    "weyl-t-nan": ["weyl-suite", "--t", "nan"],
    "weyl-t-inf": ["weyl-suite", "--t", "inf"],
    "weyl-t-5000": ["weyl-suite", "--t", "5000"],
    "norm-empty-dims": ["norm-study", "--dims", ","],
    "norm-empty-alpha": ["norm-study", "--dims", "16", "--alpha", ","],
    "norm-dims-1": ["norm-study", "--dims", "1,2"],
    "norm-alpha": ["norm-study", "--dims", "16", "--alpha", "0.3"],
    "norm-t-0": ["norm-study", "--dims", "16", "--t", "0"],
    "norm-t-nan": ["norm-study", "--dims", "16", "--t", "nan"],
    "norm-t-inf": ["norm-study", "--dims", "16", "--t", "inf"],
    "obstruction-f-mass-nan": ["obstruction", "--norm-from", "{norm}",
                               "--lemma43-from", "{table}",
                               "--f-mass", "nan"],
    "samples-0": ["warren-mass", "--m", "64", "--samples", "0"],
    "n-list-3": ["lemma43", "--m", "256", "--n-list", "3",
                 "--delta-list", "0.00390625"],
    "config-t-abc": ["--config", "{conf}", "norm-study", "--dims", "16"],
    "config-line-without-equals": ["--config", "{conf_no_equals}",
                                   "norm-study", "--dims", "16"],
    "obstruction-norm-nan": ["obstruction", "--norm-from", "{norm_nan}",
                             "--lemma43-from", "{table}"],
    "obstruction-estimate-inf": ["obstruction", "--norm-from", "{norm}",
                                 "--lemma43-from", "{table_inf}"],
    "obstruction-norm-without-header": ["obstruction",
                                        "--norm-from", "{norm_headless}",
                                        "--lemma43-from", "{table}"],
    "obstruction-table-header-only": ["obstruction", "--norm-from", "{norm}",
                                      "--lemma43-from", "{table_header_only}"],
}

NORM_ROW = "oscillator,16,2.09439510239,0.5,2.1,0"
TABLE_ROW = "4,0.00390625,256,40,0.1,0.01,1,0.1,3"
# the input files that BAD_INPUTS names, by placeholder
INPUT_FILES = {
    "conf": "t = abc\n",
    "conf_no_equals": "dims 16\n",
    "norm": f"{NORM_STUDY_HEADER}\n{NORM_ROW}\n",
    "norm_nan": f"{NORM_STUDY_HEADER}\noscillator,16,2.09439510239,0.5,nan,0\n",
    "norm_headless": f"{NORM_ROW}\n",
    "table": f"{LEMMA43_HEADER}\n{TABLE_ROW}\n",
    "table_inf": f"{LEMMA43_HEADER}\n4,0.00390625,256,40,inf,0.01,1,0.1,3\n",
    "table_header_only": f"{LEMMA43_HEADER}\n",
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_inputs_exit_two_before_any_work(argv, tmp_path, capsys,
                                             monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")
    monkeypatch.setattr(warren_sim, "draw_walks", no_work)
    monkeypatch.setattr(warren_sim, "sample_path", no_work)
    monkeypatch.setattr(np.linalg, "svd", no_work)
    monkeypatch.setattr(ccr_matrix, "_hermite_nodes", no_work)
    monkeypatch.setattr(gaussian_algebra, "random_unit_span", no_work)
    monkeypatch.chdir(tmp_path)
    inputs = {name: tmp_path / f"{name}.txt" for name in INPUT_FILES}
    for name, text in INPUT_FILES.items():
        inputs[name].write_text(text, encoding="utf-8")
    try:
        code = main([a.format(**inputs) for a in argv])
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == sorted(inputs.values())


def test_obstruction_takes_the_norm_row_at_top_n_then_angle_then_value(
        tmp_path, capsys):
    alpha = repr(TWO_THIRDS_PI)
    norm = tmp_path / "norm.csv"
    norm.write_text(f"{NORM_STUDY_HEADER}\n"
                    f"grid,32,{alpha},0.5,9.0,0\n"        # below the top N
                    f"oscillator,64,{alpha},0.5,2.1,0\n"
                    f"grid,64,{alpha},0.5,2.2,0\n"        # the largest value
                    f"oscillator,64,{alpha},0.5,2.2,0\n"  # a tie: first wins
                    "grid,64,2.9,0.5,5.0,0\n",            # farther angle
                    encoding="utf-8")
    table, report = tmp_path / "table.csv", tmp_path / "o.json"
    table.write_text(f"{LEMMA43_HEADER}\n{TABLE_ROW}\n", encoding="utf-8")
    assert run(["obstruction", "--norm-from", str(norm),
                "--lemma43-from", str(table), "--out", str(report)],
               capsys)[0] == 0
    payload = json.loads(report.read_text())
    assert (payload["scheme"], payload["N"], payload["norm_value"]) \
        == ("grid", 64, 2.2)


def test_config_file_equals_flags(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("n_list = 4,8\n"
                    "delta-list = 0.00390625,0.0078125\n"
                    "f_mass = 1.5\n", encoding="utf-8")
    common = ["--m", "256", "--samples", "40", "--seed", "3"]
    from_conf, from_flags = tmp_path / "conf.csv", tmp_path / "flags.csv"
    assert run(["--config", str(conf), "lemma43", *common,
                "--out", str(from_conf)], capsys)[0] == 0
    assert run(["lemma43", *common, "--n-list", "4,8",
                "--delta-list", "0.00390625,0.0078125",
                "--out", str(from_flags)], capsys)[0] == 0
    assert from_conf.read_bytes() == from_flags.read_bytes()
    assert len(from_conf.read_text().splitlines()) == 5

    norm = tmp_path / "norm.csv"
    assert run(["norm-study", "--dims", "16", "--out", str(norm)],
               capsys)[0] == 0
    reports = tmp_path / "conf.json", tmp_path / "flags.json"
    tail = ["--norm-from", str(norm), "--lemma43-from", str(from_flags)]
    assert run(["--config", str(conf), "obstruction", *tail,
                "--out", str(reports[0])], capsys)[0] == 0
    assert run(["obstruction", *tail, "--f-mass", "1.5",
                "--out", str(reports[1])], capsys)[0] == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_config_file_skips_global_options_and_flags(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dims = 16\n"
                    "threads = many\n"
                    "command = frobnicate\n"
                    "wall_time = false\n", encoding="utf-8")
    out = tmp_path / "n.csv"
    code, stdout, _ = run(["--threads", "2", "--config", str(conf),
                           "norm-study", "--out", str(out)], capsys)
    assert code == 0 and "norm-study:" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",0")
