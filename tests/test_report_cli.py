"""Config grammar, report assembly, emission, CLI exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liouville_lab as ll
import liouville_lab.cli as ll_cli
import liouville_lab.report as ll_report
from liouville_lab.config import RunConfig, config_from_entries


# a reduced-size run used throughout: fast but still end-to-end
FAST_KEYS = {
    "radii.points": "24",
    "dispersion.pairs": "16",
    "ellipticity.samples": "2000",
    "modulus.points": "24",
    "modulus.pairs": "8",
}


def fast_config(**overrides):
    entries = {"seed": "0", **FAST_KEYS}
    entries.update({k: str(v) for k, v in overrides.items()})
    return config_from_entries(entries)


# ---------------------------------------------------------------------------
# config grammar


def test_config_round_trip_defaults():
    cfg = config_from_entries({"seed": "7"})
    assert ll.parse_config(ll.emit_config(cfg)) == cfg


def test_config_round_trip_exotic_values():
    cfg = config_from_entries(
        {
            "seed": "123",
            "field.name": "expression",
            "field.drift": "-x1 + sin(x2); x1*x2",
            "field.diffusion": "1.5; 0; 0; 1.5",
            "field.dim": "2",
            "field.params": "",
            "radii.log": "false",
            "coupling.enabled": "true",
            "coupling.mu": "0.25",
            "coupling.x0": "0.5, 0.5",
            "coupling.y0": "-0.5, -0.5",
            "coupling.escape_radius": "250",
            "output.dir": "out dir with spaces",
        }
    )
    text = ll.emit_config(cfg)
    assert ll.parse_config(text) == cfg
    # and the emission is stable under a second round
    assert ll.emit_config(ll.parse_config(text)) == text


def test_config_comments_and_blank_lines():
    cfg = ll.parse_config(
        """
        # a comment
        seed = 5

        field.name = log_example
        field.params = 0.75   # trailing comment
        """
    )
    assert cfg.seed == 5
    assert cfg.field_params == (0.75,)


@pytest.mark.parametrize(
    "text",
    [
        "seed = 1\nnot.a.key = 2",          # unknown key
        "seed = 1\nthreads = 1",            # deleted key, see the README
        "seed = 1\nseed = 2",               # duplicate
        "seed = banana",                    # bad int
        "field.name = log_example",         # seed missing
        "seed = 1\nradii.points = 3",       # out of documented range
        'seed = 1\noutput.dir = "open',     # unterminated quote
        "seed = 1\nradii.min = 10\nradii.max = 1",
        "seed = 1\ncoupling.t_max = nan",   # NaN != NaN: no round trip
    ],
)
def test_config_errors(text):
    with pytest.raises(ll.ConfigError):
        ll.parse_config(text)


@pytest.mark.parametrize("key", ["output.dir", "field.name", "field.drift",
                                 "field.diffusion"])
@pytest.mark.parametrize("text", ['q"x', "o\nx", "o\rx", "o\u2028x"])
def test_config_rejects_strings_a_config_line_cannot_hold(key, text):
    with pytest.raises(ll.ConfigError, match=f"{key} must not contain"):
        config_from_entries({"seed": "0", key: text})


def test_config_seed_is_mandatory():
    with pytest.raises(ll.ConfigError):
        config_from_entries({})


# ---------------------------------------------------------------------------
# run(): verdict bundles and consistency


def test_run_log_small_delta_with_oracle():
    cfg = fast_config(**{"field.params": "0.25", "oracle.enabled": "true"})
    bundle = ll_report.run(cfg)
    assert bundle.criterion.verdict == ll.VERDICT_GUARANTEED
    assert bundle.oracle_verdict is True
    assert bundle.consistency == ll_report.CONSISTENT
    assert bundle.coupling is None


def test_run_log_large_delta_with_oracle():
    cfg = fast_config(**{"field.params": "0.75", "oracle.enabled": "true"})
    bundle = ll_report.run(cfg)
    assert bundle.criterion.verdict == ll.VERDICT_INCONCLUSIVE
    assert bundle.oracle_verdict is False
    assert bundle.consistency == ll_report.CONSISTENT


def test_run_zero_field_criterion_only():
    cfg = fast_config(**{"field.name": "zero", "field.dim": "2", "field.params": ""})
    bundle = ll_report.run(cfg)
    assert bundle.criterion.verdict == ll.VERDICT_GUARANTEED
    assert bundle.oracle_verdict is None
    assert bundle.coupling is None
    assert bundle.consistency == ll_report.CONSISTENT


def test_run_conservative_case():
    # just below the sharp threshold: the window-limited criterion cannot
    # fire, but the oracle proves the Liouville property holds
    cfg = fast_config(**{"field.params": "0.49", "oracle.enabled": "true"})
    bundle = ll_report.run(cfg)
    assert bundle.criterion.verdict == ll.VERDICT_INCONCLUSIVE
    assert bundle.oracle_verdict is True
    assert bundle.consistency == ll_report.CRITERION_CONSERVATIVE


def test_consistency_table():
    assert ll_report._consistency(ll.VERDICT_GUARANTEED, True) == ll_report.CONSISTENT
    assert ll_report._consistency(ll.VERDICT_GUARANTEED, None) == ll_report.CONSISTENT
    assert ll_report._consistency(ll.VERDICT_INCONCLUSIVE, False) == ll_report.CONSISTENT
    assert (
        ll_report._consistency(ll.VERDICT_INCONCLUSIVE, True)
        == ll_report.CRITERION_CONSERVATIVE
    )
    assert (
        ll_report._consistency(ll.VERDICT_GUARANTEED, False) == ll_report.CONTRADICTION
    )


def test_run_oracle_requires_dim_one():
    # an explicit oracle request on a 2D field cannot be satisfied
    cfg = fast_config(
        **{"field.name": "ou", "field.dim": "2", "field.params": "", "oracle.enabled": "true"}
    )
    with pytest.raises(ll.ConfigError):
        ll_report.run(cfg)


def test_run_oracle_not_applicable_becomes_note():
    # 1D field with non-constant q: the oracle bows out with a note
    cfg = fast_config(
        **{"field.name": "var_q_const_b", "field.dim": "1", "field.params": "0.5",
           "oracle.enabled": "true"}
    )
    bundle = ll_report.run(cfg)
    assert bundle.oracle_verdict is None
    assert bundle.oracle_note is not None
    assert bundle.consistency == ll_report.CONSISTENT


def test_build_field_expressions_win_over_catalogue():
    cfg = fast_config(**{"field.drift": "-x1", "field.dim": "1", "field.params": ""})
    field = ll_report.build_field(cfg)
    assert ll.eval_drift(field, np.array([2.0]))[0] == -2.0


def test_build_field_diffusion_requires_drift():
    cfg = fast_config(**{"field.diffusion": "2", "field.dim": "1"})
    with pytest.raises(ll.ConfigError):
        ll_report.build_field(cfg)


# ---------------------------------------------------------------------------
# emit(): files and determinism


def test_emit_criterion_only_three_files(tmp_path):
    cfg = fast_config(**{"field.params": "0.25", "output.dir": str(tmp_path / "o")})
    bundle = ll_report.run(cfg)
    paths = ll_report.emit(bundle, cfg.output_dir)
    names = sorted(p.name for p in paths)
    assert names == ["dispersion.csv", "modulus.csv", "report.json"]
    for p in paths:
        assert p.exists()


def test_emit_all_sections_five_files(tmp_path):
    cfg = fast_config(
        **{
            "field.params": "0.25",
            "oracle.enabled": "true",
            "coupling.enabled": "true",
            "coupling.t_max": "0.5",
            "coupling.n_paths": "50",
            "output.dir": str(tmp_path / "o"),
        }
    )
    bundle = ll_report.run(cfg)
    paths = ll_report.emit(bundle, cfg.output_dir)
    names = sorted(p.name for p in paths)
    assert names == [
        "coupling.csv",
        "dispersion.csv",
        "modulus.csv",
        "profile.csv",
        "report.json",
    ]


def test_emit_rerun_byte_identical(tmp_path):
    cfg = fast_config(**{"field.params": "0.25", "output.dir": str(tmp_path / "o")})
    first = ll_report.emit(ll_report.run(cfg), cfg.output_dir)
    blob1 = (tmp_path / "o" / "report.json").read_bytes()
    ll_report.emit(ll_report.run(cfg), cfg.output_dir)
    blob2 = (tmp_path / "o" / "report.json").read_bytes()
    assert blob1 == blob2


def test_report_json_structure(tmp_path):
    cfg = fast_config(**{"field.params": "0.25", "oracle.enabled": "true"})
    bundle = ll_report.run(cfg)
    ll_report.emit(bundle, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["criterion"]["verdict"] == ll.VERDICT_GUARANTEED
    assert doc["criterion"]["escape"]["divergent"] is True
    assert doc["oracle"]["verdict"] is True
    assert doc["consistency"] == "Consistent"
    # config echo allows the run to be reproduced exactly
    assert ll.parse_config(doc["config_text"]) == cfg


def test_read_report_schema_guard(tmp_path):
    cfg = fast_config(**{"field.params": "0.25"})
    ll_report.emit(ll_report.run(cfg), tmp_path)
    path = tmp_path / "report.json"
    doc = ll_report.read_report(path)
    assert doc["schema_version"] == 1

    mutated = json.loads(path.read_text())
    mutated["schema_version"] = 2
    path.write_text(json.dumps(mutated))
    with pytest.raises(ll.ConfigError):
        ll_report.read_report(path)

    del mutated["schema_version"]
    path.write_text(json.dumps(mutated))
    with pytest.raises(ll.ConfigError):
        ll_report.read_report(path)


def test_report_handles_nonfinite_values(tmp_path):
    # an unbounded oracle profile carries infinite limits; the JSON document
    # must stay loadable with the documented string encoding
    cfg = fast_config(**{"field.params": "0.25", "oracle.enabled": "true"})
    bundle = ll_report.run(cfg)
    ll_report.emit(bundle, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["oracle"]["sup_estimate"] == "Infinity"


# ---------------------------------------------------------------------------
# CLI


def run_cli(argv):
    return ll_cli.main(argv)


def test_cli_no_arguments_is_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def test_cli_catalogue(capsys):
    assert run_cli(["catalogue"]) == 0
    out = capsys.readouterr().out
    for name in ("zero", "ou", "var_q_const_b", "radial_expand", "log_example"):
        assert name in out


def test_cli_criterion_writes_reports(tmp_path, capsys):
    code = run_cli(
        [
            "criterion",
            "--field", "log_example",
            "--params", "0.25",
            "--seed", "0",
            "--radii-points", "24",
            "--pairs", "16",
            "--ellipticity-samples", "2000",
            "--modulus-points", "24",
            "--modulus-pairs", "8",
            "--output", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "LiouvilleGuaranteed" in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "dispersion.csv").exists()


def test_cli_unknown_field_exit_2(capsys):
    assert run_cli(["criterion", "--field", "nope", "--seed", "0"]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_cli_missing_seed_exit_2(capsys):
    assert run_cli(["criterion", "--field", "zero", "--dim", "2"]) == 2
    capsys.readouterr()


def test_cli_numerical_failure_exit_3(capsys):
    code = run_cli(
        [
            "couple", "--field", "zero", "--dim", "1", "--seed", "2",
            "--mu", "1.5", "--n-paths", "10", "--t-max", "0.1",
            "--ellipticity-samples", "500",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "error in stage coupling" in err


@pytest.mark.parametrize("command", ["criterion", "harmonic1d", "couple"])
def test_cli_field_construction_failure_names_stage(command, capsys):
    # the drift is non-finite on the probe grid, so building the field fails
    code = run_cli(
        [command, "--dim", "1", "--drift", "log(x1 - 100)", "--seed", "0"]
    )
    assert code == 3
    assert "error in stage field:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, param", [
    ("log_example", "nan", "delta"), ("radial_expand", "inf", "c"),
    ("var_q_const_b", "nan", "a")])
def test_cli_non_finite_catalogue_param_is_a_configuration_error(
        field, value, param, tmp_path, capsys):
    code = run_cli(["criterion", "--field", field, "--params", value,
                    "--seed", "0", "--output", str(tmp_path / "o")])
    assert code == 2
    assert (f"configuration error: field {field!r} param {param} must be "
            f"finite, got {value}") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--n-paths", "0", "coupling.n_paths"), ("--dt", "-1", "coupling.dt"),
    ("--t-max", "nan", "coupling.t_max"),
    ("--couple-radius", "inf", "coupling.couple_radius")])
def test_cli_bad_coupling_knob_fails_before_any_stage(
        flag, value, key, tmp_path, capsys, monkeypatch):
    def no_stage(_cfg):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(ll_cli, "run", no_stage)
    code = run_cli(["full", "--field", "radial_expand", "--dim", "3",
                    "--seed", "0", flag, value,
                    "--output", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key} ")
    assert not (tmp_path / "o").exists()


def _cli_child(*argv):
    # a child process, because pytest captures warnings in-process
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "liouville_lab", *argv],
                          env=env, check=False)


def test_cli_oracle_names_a_non_finite_drift(capfd):
    # NaN on 299.99 < x1 < 300.01 only: the oracle's refinement meets it
    proc = _cli_child("harmonic1d", "--seed", "0", "--drift",
                      "sqrt(abs(x1 - 300) - 0.01)")
    assert proc.returncode == 3
    (line,) = capfd.readouterr().err.splitlines()
    prefix = "error in stage oracle: drift is non-finite at x = ["
    assert line.startswith(prefix)
    assert abs(float(line[len(prefix):-1]) - 300.0) < 0.01


def test_cli_field_construction_failure_prints_only_the_error(capfd):
    # numpy warnings from the drift probe must not reach stderr ahead of the
    # error
    proc = _cli_child("criterion", "--dim", "1", "--drift", "log(x1 - 100)",
                      "--seed", "0")
    assert proc.returncode == 3
    assert capfd.readouterr().err.splitlines() == [
        "error in stage field: drift is non-finite on the probe grid"]


def test_cli_nan_objective_is_a_dispersion_stage_error(capfd, tmp_path):
    # finite on the probe grid, NaN where x1*x2 < -1: a named error, not a
    # NaN kappa_inf, and no numpy warnings on stderr
    proc = _cli_child("criterion", "--dim", "2", "--drift",
                      "-x1 + 0*sqrt(x1*x2 + 1); -x2", "--seed", "0",
                      "--radii-points", "12", "--pairs", "4",
                      "--output", str(tmp_path))
    assert proc.returncode == 3
    assert capfd.readouterr().err.splitlines() == [
        "error in stage dispersion: sup-search objective is NaN at the pair "
        "x = [4.979627214834835, -27.435004967622532], "
        "y = [4.816571569786062, -26.44838809334066] (separation 1)"]


@pytest.mark.parametrize("command", ["criterion", "full"])
def test_cli_nan_modulus_objective_is_a_modulus_stage_error(command, capfd,
                                                             tmp_path):
    # q is finite on the ellipticity window |x| <= 100 and NaN just past
    # it, where only the modulus pairs reach
    proc = _cli_child(command, "--dim", "1", "--drift=-x1",
                      "--diffusion", "1 + 0*sqrt(10000.01 - x1*x1)",
                      "--seed", "0", "--radii-points", "12", "--pairs", "4",
                      "--ellipticity-samples", "500", "--modulus-points", "8",
                      "--modulus-pairs", "4", "--output", str(tmp_path))
    assert proc.returncode == 3
    assert capfd.readouterr().err.splitlines() == [
        "error in stage modulus: sup-search objective is NaN at the pair "
        "x = [-105.47065065154158], y = [-89.33478728343391] "
        "(separation 16.1359)"]


def test_cli_infinite_sup_is_inconclusive_without_warnings(capfd, tmp_path):
    proc = _cli_child("criterion", "--dim", "1", "--drift", "exp(x1)",
                      "--seed", "0", "--radii-points", "12", "--pairs", "4",
                      "--output", str(tmp_path))
    assert proc.returncode == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert "criterion verdict: Inconclusive" in out
    assert "kappa_inf = inf" in out


def test_cli_couple_names_the_ellipticity_stage(capfd):
    proc = _cli_child("couple", "--dim", "1", "--drift", "0", "--diffusion",
                      "x1", "--seed", "0", "--ellipticity-samples", "200")
    assert proc.returncode == 3
    assert capfd.readouterr().err.splitlines() == [
        "error in stage ellipticity: q has a non-positive eigenvalue (-100) "
        "at x=[-100.0]"]


@pytest.mark.parametrize("command, stage", [("full", "ellipticity"),
                                            ("couple", "ellipticity"),
                                            ("criterion", "ellipticity")])
def test_cli_non_finite_diffusion_names_the_point(command, stage, capfd,
                                                  tmp_path):
    # 1/x1 divides by zero at the origin, the first lattice point: a named
    # error in the same stage whichever subcommand runs the estimate, and
    # no numpy warning ahead of it
    proc = _cli_child(command, "--dim", "1", "--drift", "0", "--diffusion",
                      "1/x1", "--seed", "0", "--output", str(tmp_path))
    assert proc.returncode == 3
    assert capfd.readouterr().err.splitlines() == [
        f"error in stage {stage}: diffusion of field 'custom' is non-finite "
        "at x = [0.0]"]


def test_cli_trajectory_blowup_names_stage(tmp_path, capsys):
    # path 0 couples, then the merged trajectory that --output records
    # explodes under the cubic drift before it passes the escape radius
    code = run_cli(
        [
            "couple", "--dim", "1", "--drift", "x1^3", "--x0", "1.1",
            "--y0", "1.05", "--t-max", "2", "--n-paths", "1", "--seed", "0",
            "--dt", "1e-3", "--coupling-escape-radius", "1e300",
            "--ellipticity-samples", "500", "--output", str(tmp_path),
        ]
    )
    assert code == 3
    assert "error in stage coupling: non-finite state in pair trajectory" \
        in capsys.readouterr().err


def test_cli_trajectory_blowup_prints_only_the_error(capfd, tmp_path):
    # the cubic drift overflows while the recorded trajectory explodes; the
    # named blow-up is the only line on stderr
    proc = _cli_child("couple", "--dim", "1", "--drift", "x1^3", "--x0",
                      "1.1", "--y0", "1.05", "--t-max", "2", "--n-paths",
                      "1", "--seed", "0", "--dt", "1e-3",
                      "--coupling-escape-radius", "1e300",
                      "--ellipticity-samples", "500", "--output",
                      str(tmp_path))
    assert proc.returncode == 3
    assert capfd.readouterr().err.splitlines() == [
        "error in stage coupling: non-finite state in pair trajectory"]


def test_cli_criterion_accepts_tanh(tmp_path, capsys):
    assert run_cli(["criterion", "--dim", "1", "--drift", "tanh(x1)",
                    "--seed", "0", "--output", str(tmp_path)]) == 0
    assert "criterion verdict:" in capsys.readouterr().out


def test_cli_oracle_failure_names_stage(capsys):
    # non-constant q is outside the 1D oracle's scope -> numerical-stage error
    code = run_cli(
        [
            "harmonic1d", "--field", "var_q_const_b", "--dim", "1",
            "--params", "0.5", "--seed", "0",
        ]
    )
    assert code == 3
    assert "error in stage oracle" in capsys.readouterr().err


def test_cli_harmonic1d_undecided_is_not_an_error(capsys):
    # too small a window for any tail fit: verdict withheld, but the profile
    # itself is still a valid result
    code = run_cli(
        [
            "harmonic1d", "--field", "log_example", "--params", "0.5",
            "--seed", "0", "--oracle-x-max", "0.05",
        ]
    )
    assert code == 0
    assert "undecided" in capsys.readouterr().out


def test_cli_harmonic1d_writes_profile(tmp_path, capsys):
    code = run_cli(
        [
            "harmonic1d", "--field", "log_example", "--params", "0.75",
            "--seed", "0", "--output", str(tmp_path / "h"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fails" in out
    prof = (tmp_path / "h" / "profile.csv").read_text().splitlines()
    assert prof[0] == "x,u,du"


def test_cli_couple_writes_stats(tmp_path, capsys):
    code = run_cli(
        [
            "couple", "--field", "zero", "--dim", "1", "--seed", "4",
            "--n-paths", "100", "--t-max", "0.5",
            "--ellipticity-samples", "500",
            "--output", str(tmp_path / "c"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert '"p_couple"' in out
    assert (tmp_path / "c" / "coupling.csv").exists()


def test_cli_full_flags_override_config(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "seed = 0\n"
        "field.name = log_example\n"
        "field.params = 0.25\n"
        "radii.points = 24\n"
        "dispersion.pairs = 16\n"
        "ellipticity.samples = 2000\n"
        "modulus.points = 24\n"
        "modulus.pairs = 8\n"
        "coupling.enabled = false\n"
        "oracle.enabled = true\n"
        f"output.dir = {tmp_path / 'full'}\n"
    )
    code = run_cli(["full", "--config", str(cfg_file), "--params", "0.75"])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "full" / "report.json").read_text())
    assert "0.75" in doc["field"]["label"]
    assert doc["criterion"]["verdict"] == ll.VERDICT_INCONCLUSIVE


def test_cli_full_config_file_keeps_full_defaults(tmp_path, capsys):
    # keys the file leaves unset get full's defaults (oracle on in d = 1,
    # coupling on), exactly as when the same values are given as flags
    sizes = {"radii.points": "24", "dispersion.pairs": "16",
             "ellipticity.samples": "2000", "modulus.points": "24",
             "modulus.pairs": "8", "coupling.n_paths": "50",
             "coupling.t_max": "0.5"}
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 0\n"
                        + "".join(f"{k} = {v}\n" for k, v in sizes.items())
                        + f"output.dir = {tmp_path / 'file'}\n")
    assert run_cli(["full", "--config", str(cfg_file)]) == 0
    assert run_cli(["full", "--seed", "0", "--radii-points", "24",
                    "--pairs", "16", "--ellipticity-samples", "2000",
                    "--modulus-points", "24", "--modulus-pairs", "8",
                    "--n-paths", "50", "--t-max", "0.5",
                    "--output", str(tmp_path / "flags")]) == 0
    capsys.readouterr()
    for run_dir in ("file", "flags"):
        names = sorted(p.name for p in (tmp_path / run_dir).iterdir())
        assert names == ["coupling.csv", "dispersion.csv", "modulus.csv",
                         "profile.csv", "report.json"]
    configs = [ll.parse_config(json.loads(
        (tmp_path / d / "report.json").read_text())["config_text"])
        for d in ("file", "flags")]
    assert dataclasses.replace(configs[0], output_dir="") \
        == dataclasses.replace(configs[1], output_dir="")


@pytest.mark.parametrize("dim", ["abc", "2.5"])
def test_cli_full_bad_dim_is_a_configuration_error(dim, capsys):
    assert run_cli(["full", "--seed", "0", "--dim", dim]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: bad value for field.dim: {dim!r}"]


@pytest.mark.parametrize("output", ['q"x', "o\nx"])
def test_cli_output_the_config_text_cannot_hold_is_rejected_first(
        output, tmp_path, capsys, monkeypatch):
    # rejected while the config is built: no stage runs, nothing is written
    monkeypatch.chdir(tmp_path)
    code = run_cli(["criterion", "--field", "zero", "--dim", "1", "--seed",
                    "0", "--radii-points", "12", "--pairs", "4",
                    "--ellipticity-samples", "500", "--output", output])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: output.dir must not contain double quotes "
        "or line breaks"]
    assert list(tmp_path.iterdir()) == []


def test_cli_field_flag_resets_catalogue_params(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "seed = 0\n"
        "field.name = log_example\n"
        "field.params = 0.25\n"
        "radii.points = 24\n"
        "dispersion.pairs = 16\n"
        "ellipticity.samples = 500\n"
        f"output.dir = {tmp_path / 'z'}\n"
    )
    # switching the field by flag must not inherit the stale params list
    code = run_cli(["criterion", "--config", str(cfg_file), "--field", "zero", "--dim", "2"])
    assert code == 0
    capsys.readouterr()


def test_cli_contradiction_exit_4(tmp_path, capsys, monkeypatch):
    cfg = fast_config(
        **{"field.name": "zero", "field.dim": "1", "field.params": "",
           "output.dir": str(tmp_path / "x")}
    )
    real = ll_report.run(cfg)
    doctored = dataclasses.replace(real, consistency=ll_report.CONTRADICTION)
    monkeypatch.setattr(ll_cli, "run", lambda _cfg: doctored)
    code = run_cli(
        ["full", "--field", "zero", "--dim", "1", "--seed", "0",
         "--radii-points", "24", "--pairs", "16",
         "--ellipticity-samples", "2000",
         "--no-couple", "--no-oracle",
         "--output", str(tmp_path / "x")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "consistency" in err
    # the report is still written for post-mortem inspection
    assert (tmp_path / "x" / "report.json").exists()


def test_cli_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = run_cli(
        ["criterion", "--field", "zero", "--dim", "1", "--seed", "0",
         "--radii-points", "24", "--pairs", "4",
         "--ellipticity-samples", "500", "--output", str(target)]
    )
    assert code == 2
    capsys.readouterr()


def test_readme_quick_start_transcript(tmp_path, capsys):
    # README's quick-start command prints README's transcript; "..." stands
    # for the note lines and the wrote: line lists paths under --output
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start")[1]
    command, transcript = re.findall(r"```(?:sh)?\n(.*?)```", section, re.S)[:2]
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    argv[argv.index("--output") + 1] = str(tmp_path)
    assert run_cli(argv) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    for line in transcript.split("\nwrote:")[0].splitlines():
        if line.strip() != "...":
            assert line in printed, line


def test_readme_catalogue_block_is_the_catalogue_output(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Built-in fields")[1]
    block = re.findall(r"```\n(.*?)```", section, re.S)[0]
    assert run_cli(["catalogue"]) == 0
    assert capsys.readouterr().out == block
