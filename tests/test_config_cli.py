import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sdfs_jcm
from sdfs_jcm import cli
from sdfs_jcm.cli import main
from sdfs_jcm.config import KNOWN_KEYS, OUTPUT_CAP, RunConfig, parse_config, parse_state
from sdfs_jcm.fock import DIM_CAP
from sdfs_jcm.observables import ETA_POINTS
from sdfs_jcm.presets import (
    FIGURE_RUNS, PRESET_NAMES, Q_TIMES, figure_preset,
)
from sdfs_jcm.runner import Q_POINTS, compute, run
from sdfs_jcm.sdfs import SdfsParams


def test_minimal_document_gets_defaults():
    cfg = parse_config("alpha0_re = 3\nr = 1\nm = 0\n")
    assert cfg.state.alpha0 == 3.0
    assert cfg.detuning_ratio == 0.0
    assert cfg.t_max_scaled == 25.0
    assert cfg.t_points == 2000


def test_empty_document_is_the_default_config():
    assert parse_config("") == RunConfig()
    assert parse_config("# only a comment\n\n") == RunConfig()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nalpha0_re = 1\n")
    assert cfg.state.alpha0 == 1.0


def test_negative_r_names_key():
    with pytest.raises(ValueError, match="'r'"):
        parse_config("r = -1\n")


def test_a_tail_tol_key_is_refused_as_unknown(tmp_path, capsys):
    # the truncation is sdfs.TAIL_TOL, never a key, whatever the value
    for text in ("1e-12", "5e-13", "1e-10"):
        with pytest.raises(ValueError, match=r"line 2.*unknown key 'tail_tol'"):
            parse_config(f"alpha0_re = 3\ntail_tol = {text}\n")
    config_path = tmp_path / "tail.cfg"
    config_path.write_text(f"alpha0_re = 3\ntail_tol = 1e-12\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(config_path)]) == 2
    assert "(line 2): unknown key 'tail_tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_GRID_KEYS = ("eta_points", "q_x_min", "q_x_max", "q_y_min", "q_y_max", "q_nx", "q_ny")


@pytest.mark.parametrize("key", _GRID_KEYS)
def test_a_sampling_grid_key_is_refused_as_unknown(key, tmp_path, capsys):
    # the phase angles and the Q window are the program's own choice
    assert key not in KNOWN_KEYS
    config_path = tmp_path / "grid.cfg"
    config_path.write_text(f"alpha0_re = 3\n{key} = 64\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(config_path)]) == 2
    assert f"(line 2): unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_key_reports_line():
    with pytest.raises(ValueError, match=r"line 2.*mystery"):
        parse_config("r = 1\nmystery = 3\n")


def test_coupling_key_rejected():
    # time is always the scaled lambda*t, so a coupling never entered the physics
    with pytest.raises(ValueError, match=r"line 2.*unknown key 'coupling'"):
        parse_config("alpha0_re = 1\ncoupling = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("m = 1\nm = 2\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ValueError, match="'t_points'"):
        parse_config("t_points = soon\n")


def test_bad_observable_rejected():
    with pytest.raises(ValueError, match="observables"):
        parse_config("observables = inversion,wigner\n")


@pytest.mark.parametrize(
    "doc",
    [
        "t_points = 10000000000\n",
        "t_points = 134217729\nobservables = inversion\n",
        "t_points = 44739243\nobservables = entropy\n",
        "t_points = 261633\nobservables = photon_dist\n",
        "t_points = 262145\nobservables = phase_dist\n",
    ],
)
def test_time_series_beyond_the_output_cap_are_refused(doc):
    with pytest.raises(ValueError, match=r"'t_points' = \d+ with \w+ rows .* cap of 134217728"):
        parse_config(doc)


@pytest.mark.parametrize(
    "observables, widest",
    [
        ("inversion", "inversion rows of 1 values"),
        ("entropy,inversion", "entropy rows of 3 values"),
        ("photon_dist,qfunc", f"photon_dist rows of {DIM_CAP + 1} values"),
    ],
)
def test_the_output_cap_message_names_the_widest_selected_row(observables, widest):
    with pytest.raises(ValueError) as refused:
        parse_config(f"t_points = {10**9}\nobservables = {observables}\n")
    assert str(refused.value) == (
        f"config error: key 't_points' = {10**9} with {widest} exceeds the output cap "
        f"of {OUTPUT_CAP} values"
    )


def test_a_qfunc_only_config_is_not_held_to_the_output_cap():
    # qfunc alone builds no time axis, so t_points sizes no output
    assert RunConfig(observables=("qfunc",), t_points=OUTPUT_CAP + 1).t_points == OUTPUT_CAP + 1
    assert parse_config("t_points = 10000000000\nobservables = qfunc\n").t_points == 10**10


def test_time_series_at_the_output_cap_are_accepted():
    # 2**27 values: one per time, three per entropy row, DIM_CAP + 1 per P(n, t)
    # row, ETA_POINTS per phase row
    assert 262144 * ETA_POINTS == OUTPUT_CAP
    for doc in (
        "t_points = 134217728\nobservables = inversion\n",
        "t_points = 44739242\nobservables = entropy\n",
        "t_points = 261632\nobservables = photon_dist\n",
        "t_points = 262144\nobservables = phase_dist\n",
    ):
        parse_config(doc)


def test_a_phase_kernel_beyond_the_output_cap_is_refused():
    # the kernel of phase_kernel(dim + 1) has ETA_POINTS rows of at most
    # DIM_CAP + 1 values; a document can no longer ask for more angles
    assert ETA_POINTS * (DIM_CAP + 1) <= OUTPUT_CAP
    doc = "t_points = 2\neta_points = 67108864\nobservables = phase_dist\n"
    with pytest.raises(ValueError, match=r"line 2.*unknown key 'eta_points'"):
        parse_config(doc)


def test_a_q_grid_beyond_the_output_cap_is_refused():
    assert Q_POINTS * Q_POINTS <= OUTPUT_CAP
    with pytest.raises(ValueError, match=r"line 1.*unknown key 'q_nx'"):
        parse_config("q_nx = 100000\nq_ny = 100000\nobservables = qfunc\n")


def test_q_grid_radius_enforced_when_qfunc_selected(tmp_path):
    # the window [-h, h]^2 holds 4 units around alpha0: [-10, 10]^2 here
    config_path = tmp_path / "q.cfg"
    config_path.write_text(
        f"alpha0_re = 6\nt_points = 2\nobservables = qfunc\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 0
    data = np.loadtxt(tmp_path / "out" / "qfunc.csv", delimiter=",", skiprows=1)
    for column in (data[:, 0], data[:, 1]):
        axis = np.unique(column)
        assert axis.size == Q_POINTS
        assert (axis[0], axis[-1]) == (-10.0, 10.0)


def test_q_window_holds_a_squeezed_seed_number(tmp_path, capsys):
    # Q's standard deviation along y is 4.42 here: h = 3.3 * 4.42 = 14.6 holds
    # its tails, which [-8, 8]^2 cuts (4.8e-3 of the mass)
    config_path = tmp_path / "q.cfg"
    config_path.write_text(
        f"r = 1.2\nm = 3\nt_points = 2\nobservables = qfunc\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 0
    summary = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line)
    assert float(summary["q_integral_residual"]) <= 1e-3
    data = np.loadtxt(tmp_path / "out" / "qfunc.csv", delimiter=",", skiprows=1)
    assert data[0, 0] == pytest.approx(-14.5876, abs=1e-4)


def test_a_document_that_sets_every_key_parses_to_its_config():
    doc = """
    alpha0_re = 1.25
    alpha0_im = -0.75
    r = 0.3
    phi = 2.5
    m = 3
    detuning_ratio = -1.5
    t_max_scaled = 12
    t_points = 300
    q_time_scaled = 3.25
    observables = qfunc, phase_dist,inversion
    output_dir = elsewhere/run 1
    """
    expected = {
        "alpha0": 1.25 - 0.75j, "r": 0.3, "phi": 2.5, "m": 3, "detuning_ratio": -1.5,
        "t_max_scaled": 12.0, "t_points": 300, "q_time_scaled": 3.25,
        "observables": ("qfunc", "phase_dist", "inversion"), "output_dir": "elsewhere/run 1",
    }
    keys = [line.split("=")[0].strip() for line in doc.strip().splitlines()]
    assert keys == list(KNOWN_KEYS) and len(KNOWN_KEYS) == 11
    cfg = parse_config(doc)
    # each field of RunConfig and of its state holds its value, of its type, and no default
    fields = [(cfg.state, SdfsParams(), f.name) for f in dataclasses.fields(SdfsParams)]
    fields += [(cfg, RunConfig(), f.name) for f in dataclasses.fields(RunConfig)
               if f.name != "state"]
    assert sorted(name for *_, name in fields) == sorted(expected)
    for parsed, default, name in fields:
        value = getattr(parsed, name)
        assert value == expected[name] and type(value) is type(expected[name]), name
        assert value != getattr(default, name), name


def test_parse_state_follows_the_config_rules():
    assert parse_state(" alpha0_re=1.5, alpha0_im=-2 ,r=0.5,phi=1,m=2,") == SdfsParams(
        alpha0=1.5 - 2j, r=0.5, phi=1.0, m=2
    )
    assert parse_state("") == SdfsParams()
    for text, match in (
        ("r=1,r=2", r"item 2.*duplicate key 'r'"),
        ("alpha0_re=nan", "'alpha0_re' needs a number"),
        ("phi=inf", "'phi' needs a number"),
        ("m=1.5", "'m' needs an integer"),
        ("r=-1", "'r' must be >= 0"),
        ("t_points=4", "unknown key 't_points'"),
        ("r", "expected 'key = value'"),
    ):
        with pytest.raises(ValueError, match=match):
            parse_state(text)


def test_preset_values():
    fig1b = figure_preset("fig1b")
    assert fig1b.state.alpha0 == 3.0
    assert fig1b.state.r == 1.0
    assert fig1b.state.phi == 0.0
    assert fig1b.state.m == 1
    assert fig1b.detuning_ratio == 0.0
    assert fig1b.observables == ("inversion",)

    fig3a = figure_preset("fig3a")
    assert fig3a.state.alpha0 == 0.5
    assert fig3a.state.m == 0
    assert fig3a.observables == ("photon_dist",)

    fig5b = figure_preset("fig5b")
    assert fig5b.observables == ("qfunc",)
    assert fig5b.q_time_scaled == pytest.approx(
        math.pi * math.sqrt(9.0 + math.sinh(1.0) ** 2)
    )
    assert fig5b.q_time_scaled == pytest.approx(10.12, abs=5e-3)


def test_each_preset_is_its_declared_run_but_for_its_outputs():
    # fig1x, fig2x and fig4x are three views of FIGURE_RUNS[x], and fig5x
    # is FIGURE_RUNS["b"] at Q_TIMES[x]; fig3x is FIGURE_RUNS[x] at alpha0 = 0.5
    for variant, m in zip("abc", range(3)):
        assert FIGURE_RUNS[variant] == RunConfig(state=SdfsParams(alpha0=3.0, r=1.0, m=m))
    observables = {"fig1": "inversion", "fig2": "entropy", "fig3": "photon_dist",
                   "fig4": "phase_dist", "fig5": "qfunc"}
    for name in PRESET_NAMES:
        family, variant = name[:-1], name[-1]
        run, q_time = FIGURE_RUNS[variant], None
        if family == "fig3":
            run = dataclasses.replace(run, state=dataclasses.replace(run.state, alpha0=0.5))
        elif family == "fig5":
            run, q_time = FIGURE_RUNS["b"], Q_TIMES[variant]
        assert figure_preset(name) == dataclasses.replace(
            run, observables=(observables[family],), output_dir=name, q_time_scaled=q_time
        )


def test_unknown_preset_lists_names():
    with pytest.raises(ValueError, match="fig1a"):
        figure_preset("fig9z")


def test_run_fig1a_outputs(tmp_path):
    result = run(dataclasses.replace(figure_preset("fig1a"), output_dir=str(tmp_path / "fig1a")))
    assert result.ok
    assert result.summary["status"] == "ok"
    lines = (tmp_path / "fig1a" / "inversion.csv").read_text().splitlines()
    assert lines[0] == "lambda_t,W"
    assert len(lines) == 2001
    first_t, first_w = (float(x) for x in lines[1].split(","))
    assert first_t == 0.0
    assert first_w == pytest.approx(1.0, abs=1e-10)
    summary = (tmp_path / "fig1a" / "run_summary.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in summary]
    assert keys[keys.index("compute_s") :][:3] == ["compute_s", "write_s", "wall_time_s"]
    stages = result.summary["compute_s"] + result.summary["write_s"]
    assert 0.0 <= stages <= result.summary["wall_time_s"]


def test_run_fig2a_initial_purity(tmp_path):
    result = run(dataclasses.replace(figure_preset("fig2a"), output_dir=str(tmp_path / "fig2a")))
    assert result.ok
    lines = (tmp_path / "fig2a" / "entropy.csv").read_text().splitlines()
    assert lines[0] == "lambda_t,S_f,lambda_plus,lambda_minus"
    s0 = float(lines[1].split(",")[1])
    assert s0 <= 1e-10


def test_run_fig5a_q_normalization(tmp_path):
    result = run(dataclasses.replace(figure_preset("fig5a"), output_dir=str(tmp_path / "fig5a")))
    assert result.ok
    data = np.loadtxt(tmp_path / "fig5a" / "qfunc.csv", delimiter=",", skiprows=1)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert float(data[:, 2].sum()) * cell == pytest.approx(1.0, abs=1e-3)
    header = (tmp_path / "fig5a" / "qfunc.csv").read_text().splitlines()[0]
    assert header == "x,y,Q"


def test_run_is_byte_deterministic(tmp_path):
    cfg = figure_preset("fig1a")
    run(dataclasses.replace(cfg, output_dir=str(tmp_path / "a")))
    run(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")))
    first = (tmp_path / "a" / "inversion.csv").read_bytes()
    second = (tmp_path / "b" / "inversion.csv").read_bytes()
    assert first == second


def test_photon_dist_schema(tmp_path):
    doc = (
        "alpha0_re = 0.5\nr = 0.2\nt_points = 4\nt_max_scaled = 1.0\n"
        "observables = photon_dist\noutput_dir = {}\n"
    ).format(tmp_path / "pd")
    result = run(parse_config(doc))
    assert result.ok
    lines = (tmp_path / "pd" / "photon_dist.csv").read_text().splitlines()
    assert lines[0] == "lambda_t,n,P"
    # n column is an integer sequence restarting each time sample
    assert lines[1].split(",")[1] == "0"


def test_cli_run_and_exit_codes(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "alpha0_re = 1\nt_points = 16\nt_max_scaled = 2.0\n"
        f"observables = inversion\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 0
    assert (tmp_path / "out" / "inversion.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("r = -2\n")
    assert main(["run", str(bad)]) == 2
    assert "'r'" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert main(["preset", "nonsense"]) == 2


@pytest.mark.parametrize("key", ["t_max_scaled", "q_time_scaled"])
def test_cli_refuses_a_time_whose_phases_lose_precision(tmp_path, capsys, key):
    # eps * t * nu_max is about 1.4e-3 here; the phase error of A_n is of that order.
    # The message names the time, whichever key set it
    config_path = tmp_path / "long.cfg"
    config_path.write_text(
        f"alpha0_re = 3\nt_points = 4\n{key} = 1e12\nobservables = inversion,qfunc\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "t = 1e+12 loses phase precision" in err and "exceeds 1e-10" in err
    assert not (tmp_path / "out").exists()


def test_cli_runs_a_q_time_that_no_selected_output_evaluates(tmp_path, capsys):
    # the Q time would lose phase precision, but without qfunc no phase is formed at it
    config_path = tmp_path / "unused.cfg"
    out_dir = tmp_path / "out"
    config_path.write_text(
        "alpha0_re = 3\nt_points = 4\nq_time_scaled = 1e12\nobservables = inversion\n"
        f"output_dir = {out_dir}\n"
    )
    assert main(["run", str(config_path)]) == 0
    assert "loses phase precision" not in capsys.readouterr().err
    assert sorted(path.name for path in out_dir.iterdir()) == ["inversion.csv", "run_summary.txt"]


def test_cli_runs_a_t_max_that_no_selected_output_evaluates(tmp_path, capsys):
    # qfunc reads only q_time_scaled = 1, and no time series is selected
    written = []
    for t_max in ("1e12", "12"):
        config_path = tmp_path / f"{t_max}.cfg"
        config_path.write_text(
            f"alpha0_re = 3\nobservables = qfunc\nq_time_scaled = 1\nt_max_scaled = {t_max}\n"
            f"t_points = 2\noutput_dir = {tmp_path / t_max}\n"
        )
        assert main(["run", str(config_path)]) == 0
        written.append((tmp_path / t_max / "qfunc.csv").read_bytes())
    assert "loses phase precision" not in capsys.readouterr().err
    assert written[0] == written[1]


def test_an_overflowing_detuning_is_refused_at_a_zero_q_time(tmp_path, capsys):
    # eps * 0 * inf is nan: no finite loss clears an infinite nu_max
    config_path = tmp_path / "detuned.cfg"
    config_path.write_text(
        "alpha0_re = 3\ndetuning_ratio = 1e200\nq_time_scaled = 0\nobservables = qfunc\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: detuning_ratio is too large") and "exceeds 1e-10" in err
    assert not (tmp_path / "out").exists()


def test_an_observable_listed_twice_is_refused(tmp_path, capsys):
    message = "key 'observables' lists 'inversion' more than once"
    with pytest.raises(ValueError, match=message):
        RunConfig(observables=("inversion", "entropy", "inversion"))
    config_path = tmp_path / "twice.cfg"
    config_path.write_text(f"observables = inversion, inversion\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(config_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_config_checks_its_own_domain():
    with pytest.raises(ValueError, match="key 't_points' must be >= 2"):
        RunConfig(t_points=1)
    for t_points in (2.0, 2.5):  # np.linspace would raise TypeError on the float
        with pytest.raises(ValueError, match="key 't_points' must be an integer"):
            RunConfig(t_points=t_points)
    with pytest.raises(ValueError, match="key 'observables' has unknown entries"):
        dataclasses.replace(RunConfig(), observables=("wigner",))
    with pytest.raises(ValueError, match="key 'output_dir' must not be empty"):
        RunConfig(output_dir="")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["detuning_ratio", "t_max_scaled", "q_time_scaled"])
def test_run_config_refuses_a_non_finite_number(key, value):
    # a NaN fails no `<=` domain check, and a NaN detuning gives W = nan throughout
    with pytest.raises(ValueError, match=f"key '{key}' must be finite"):
        RunConfig(**{key: value})


def test_a_nan_residual_fails_the_run(tmp_path, monkeypatch):
    # NaN exceeds no tolerance; a residual passes only when it is <= its tolerance
    def nan_conservation(cfg, sink=None):
        data = compute(cfg, sink)
        data.residuals["conservation_residual"] = math.nan
        return data

    monkeypatch.setattr("sdfs_jcm.runner.compute", nan_conservation)
    cfg = RunConfig(SdfsParams(alpha0=3.0), t_points=4, observables=("inversion",))
    result = run(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert not result.ok
    assert result.summary["status"] == "invariant-failure: conservation_residual"


def test_a_gram_trace_off_1_fails_the_run_through_its_eigenvalue_sum(
    tmp_path, capsys, monkeypatch
):
    # row 3 is mixed, so a trace 1e-6 too large keeps both eigenvalues in [0, 1]:
    # an invariant failure (exit 1) that keeps its CSVs, not a refused config
    gram_entries = sdfs_jcm.runner.gram

    def gram_with_a_bad_trace(c, s, pc, ps):
        cc, ss, cs = gram_entries(c, s, pc, ps)
        cc[3] += 1e-6
        return cc, ss, cs

    monkeypatch.setattr("sdfs_jcm.runner.gram", gram_with_a_bad_trace)
    out_dir = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"alpha0_re = 3\nt_points = 400\nobservables = entropy\noutput_dir = {out_dir}\n"
    )
    assert main(["run", str(config_path)]) == 1
    out = capsys.readouterr().out
    assert "status = invariant-failure: eigenvalue_sum_residual\n" in out
    assert f"wrote {out_dir / 'entropy.csv'}\n" in out
    assert (out_dir / "entropy.csv").read_text().count("\n") == 401


@pytest.mark.parametrize("exists", [False, True, "run_summary.txt"])
def test_a_refusal_after_the_first_streamed_block_leaves_no_csv(tmp_path, capsys, monkeypatch, exists):
    # phase_dist.csv is begun in the time loop; the entropy rows are formed after
    # it, and the summary is written after every CSV: here where a directory is
    out_dir = tmp_path / "out" / "run"
    if exists:
        out_dir.mkdir(parents=True)
        (out_dir / "kept.txt").write_text("not the run's\n")
    if exists == "run_summary.txt":
        (out_dir / exists).mkdir()
        message = f"error: [Errno 21] Is a directory: '{out_dir / exists}'\n"
    else:
        def refused(cc, ss, cs, first):
            raise ValueError("row 0: refused")

        monkeypatch.setattr("sdfs_jcm.runner.entropy_rows", refused)
        message = "error: row 0: refused\n"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"alpha0_re = 3\nt_points = 400\nobservables = entropy,phase_dist\noutput_dir = {out_dir}\n"
    )
    assert main(["run", str(config_path)]) == 2
    assert capsys.readouterr().err == message
    if exists:
        kept = ["kept.txt"] + (["run_summary.txt"] if exists == "run_summary.txt" else [])
        assert sorted(path.name for path in out_dir.iterdir()) == kept
    else:
        assert not (tmp_path / "out").exists()


def test_cli_preset_out_dir(tmp_path):
    target = tmp_path / "custom"
    assert main(["preset", "fig1a", "--out", str(target)]) == 0
    assert (target / "inversion.csv").exists()


def test_cli_refuses_an_empty_preset_out_dir(tmp_path, monkeypatch, capsys):
    # Path("") is the working directory; an empty --out must not fall back to the preset name
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "fig1a", "--out", ""]) == 2
    assert "key 'output_dir' must not be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# No verb loads scipy, nor numpy.random or numpy.ma, which numpy leaves unloaded
_ASSERT_UNLOADED = (
    "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy'\n"
    "          or name.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'])]\n"
    "assert not loaded, loaded\n"
)


def test_run_preset_and_overlap_import_no_scipy(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(f"alpha0_re = 3\nt_points = 4\noutput_dir = {tmp_path / 'run'}\n")
    verbs = [
        ["preset", "fig1a", "--out", str(tmp_path / "fig1a")],
        ["overlap", "--p1", "alpha0_re=1,r=0.5,m=1", "--p2", "m=2"],
        ["run", str(config_path)],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from sdfs_jcm import cli\n"
        f"for argv in {verbs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        + _ASSERT_UNLOADED
    )
    src = str(Path(sdfs_jcm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_check_imports_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from sdfs_jcm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['check']) == 0\n"
        + _ASSERT_UNLOADED
    )
    src = str(Path(sdfs_jcm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_a_usage_error_leaves_the_next_call_unchanged(capsys):
    argv = ["overlap", "--p1", "alpha0_re=1,r=0.5,m=1", "--p2", "alpha0_re=2,m=0"]
    assert main(argv) == 0
    first = capsys.readouterr()
    for bad in (["overlap", "--p1", "r=1"], ["preset"], ["nonsense"], ["check", "--out", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2 and "usage: sdfs-jcm" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert cli._build_parser() is cli._build_parser()  # built once per process


def test_cli_overlap_verb(capsys):
    assert main(["overlap", "--p1", "alpha0_re=1,r=0,m=1", "--p2", "alpha0_re=2,r=0,m=1"]) == 0
    out = capsys.readouterr().out
    assert "modulus" in out and "phase" in out
    assert main(["overlap", "--p1", "bogus=1", "--p2", "r=0"]) == 2


@pytest.mark.parametrize(
    "p1, p2",
    [
        ("r=1,r=2", "r=0"),
        ("alpha0_re=nan", "r=1"),
        ("phi=inf", "r=0"),
        ("r=800", "r=0"),
        ("r=20,m=1", "r=20,m=1"),
        ("alpha0_re=1e200", "r=0"),  # |alpha0|^2 overflows
        ("alpha0_re=1e154", "alpha0_re=-1e154"),  # |alpha2 - alpha1|^2 overflows
        ("m=10000", "m=10000,r=0.1"),  # the sum overflows (so does m=100000, 10x slower)
        ("m=130", "r=0.5,m=130"),  # the sum cancels: |overlap| would read 57
    ],
)
def test_cli_overlap_refusals_exit_2(p1, p2, capsys):
    assert main(["overlap", "--p1", p1, "--p2", p2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "p1, p2, code, printed",
    [
        # arg(alpha2 - alpha1) underflows: cmath.phase raised OverflowError, atan2 gives 0
        ("alpha0_re=1e100,alpha0_im=1e-300", "r=0", 0, "modulus = 0\n"),
        # cmath.exp of the prefactor's exponent raises OverflowError
        ("r=100,phi=2", "alpha0_re=1e10,r=400", 2, "a value overflows the double range"),
        # abs(W) raises OverflowError: absolute value too large
        ("r=355", "r=356,phi=1.5", 2, "a value overflows the double range"),
        # a Hermite step falls below the normal range; dividing by it overflowed in numpy
        ("alpha0_re=1e-20,r=700,phi=4.86,m=10", "alpha0_re=-1e-20,r=0.001,phi=2,m=200", 0,
         "modulus = 1.65283351744"),
        # just above the seed cap, which is refused before anything is allocated
        ("m=100001", "m=0", 2, "overlap seed number m = 100001 exceeds the cap 100000"),
    ],
    ids=["angle-underflow", "prefactor-exp", "w-modulus", "subnormal-hermite-step", "seed-cap"],
)
def test_cli_overlap_refuses_or_computes_an_out_of_range_value_without_a_traceback(
    p1, p2, code, printed, capsys
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["overlap", "--p1", p1, "--p2", p2]) == code
    captured = capsys.readouterr()
    assert printed in (captured.out if code == 0 else captured.err)
    assert captured.err == "" if code == 0 else captured.out == ""


def test_cli_run_refuses_an_overflowing_squeeze(tmp_path, capsys):
    config_path = tmp_path / "huge.cfg"
    config_path.write_text(f"r = 800\nt_points = 4\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(config_path)]) == 2
    assert "r = 800 overflows cosh" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refuses_a_subnormal_state_parameter(tmp_path, capsys):
    # each of these ended in a traceback (exit 1) from the closed forms
    config_path = tmp_path / "tiny.cfg"
    config_path.write_text(f"r = 5e-324\nt_points = 4\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: state parameter r = 5e-324 is subnormal\n"
    assert not (tmp_path / "out").exists()
    for p1, p2, named in (
        ("r=5e-324,m=1", "alpha0_re=1", "r = 5e-324"),
        ("alpha0_re=-1.2129279954890553,alpha0_im=5e-324,m=40", "alpha0_re=1.8069434416137904,m=1",
         "Im alpha0 = 5e-324"),
    ):
        assert main(["overlap", "--p1", p1, "--p2", p2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: state parameter {named} is subnormal\n"


@pytest.mark.parametrize("t_max", ["25", "1e-200"])
def test_cli_run_refuses_a_detuning_whose_square_overflows(t_max, tmp_path, capsys):
    config_path = tmp_path / "detuned.cfg"
    out_dir = tmp_path / "out"
    config_path.write_text(
        f"detuning_ratio = 1e200\nt_max_scaled = {t_max}\nt_points = 4\noutput_dir = {out_dir}\n"
    )
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "loses phase precision" in err and "detuning_ratio = 1e+200" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("detuning", ["1e200", "1e100"])
@pytest.mark.parametrize("observables", ["inversion", "inversion,qfunc"])
def test_an_overflowing_detuning_is_named_as_the_key(detuning, observables, tmp_path, capsys):
    # nu_max = inf, or so large that only t < 1e-95 would keep the phases: no time is
    # at fault, so none is named
    config_path = tmp_path / "detuned.cfg"
    config_path.write_text(
        f"alpha0_re = 3\nt_points = 4\ndetuning_ratio = {detuning}\nq_time_scaled = 2\n"
        f"observables = {observables}\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: detuning_ratio is too large: even t = 1 loses")
    # CI greps this fragment for 1e200
    assert f"loses phase precision at detuning_ratio = {float(detuning):g}" in err
    assert err.count("t = ") == 1 and "exceeds 1e-10" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r", ["355.5", "400", "700"])
def test_cli_run_refuses_a_squeeze_whose_mean_photon_number_overflows(r, tmp_path, capsys):
    needed = "1.518e+308" if r == "355.5" else "beyond the double range"
    config_path = tmp_path / "huge.cfg"
    out_dir = tmp_path / "out"
    config_path.write_text(f"alpha0_re = 1\nr = {r}\nt_points = 4\noutput_dir = {out_dir}\n")
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"required truncation {needed} exceeds the cap 511" in err
    assert not out_dir.exists()


def test_cli_run_refuses_a_seed_number_past_the_double_range(tmp_path, capsys):
    # m = 10**400: its float product in the mean photon number raised OverflowError (exit 1)
    config_path = tmp_path / "seeded.cfg"
    out_dir = tmp_path / "out"
    config_path.write_text(f"alpha0_re = 3\nm = 1{'0' * 400}\noutput_dir = {out_dir}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: required truncation beyond the double range exceeds the cap 511\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("observables", ["inversion,entropy", "inversion"])
def test_cli_run_refuses_a_state_whose_norm_overshoots_the_rounding_slack(
    observables, tmp_path, capsys
):
    # the closed form of (2, 1, 30) cancels: its norm^2 exceeds 1 by 2.2e-11,
    # inside NORM_TOL but beyond the ROUND_SLACK that the entropy allows too
    config_path = tmp_path / "cancelled.cfg"
    out_dir = tmp_path / "out"
    config_path.write_text(
        f"alpha0_re = 2\nr = 1\nm = 30\nt_points = 4\nobservables = {observables}\n"
        f"output_dir = {out_dir}\n"
    )
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "lost precision: norm^2 exceeds 1 by 2.153e-11 at n_max=361" in err
    assert not out_dir.exists()
