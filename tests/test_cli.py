"""End-to-end command line runs against temp configs and output trees."""

import hashlib
import re
import textwrap

import numpy as np
import pytest

from conftest import no_sampling
import covspec.conc_lab
import covspec.sampler
from covspec import (
    density_prediction,
    estimate_class_model,
    solve_delta,
    stieltjes_from_delta,
)
from covspec.cli import main
from covspec.config import load_config
from covspec.io import read_matrix, write_matrix


def write_config(tmp_path, *parts, name="exp.ini"):
    path = tmp_path / name
    path.write_text("\n".join(textwrap.dedent(p) for p in parts))
    return str(path)


def read_csv_file(path):
    """Split an output CSV into (comments, header, float matrix)."""
    comments = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


BASE = """
    [mixture]
    p = 4
    n = 8
    classes = a

    [class.a]
    n_l = 8
    sigma = identity

    [predict]
    z_grid = 1 2
    lambda_grid = 0.01:3:40
    epsilon = 0.01

    [simulate]
    seed = 3

    [compare]
    z_grid = 1 2
    lambda_grid = 0.01:3:40
    epsilon = 0.01
    trials = 3
    bins = 5
"""


def test_predict_outputs_match_library(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg_path, "--out", str(out)]) == 0

    mixture = load_config(cfg_path).mixture()
    _, header, delta = read_csv_file(out / "delta.csv")
    assert header == ["z", "class_index", "delta_prime", "residual", "iterations"]
    assert delta.shape == (2, 5)
    for z, idx, d, resid, _ in delta:
        sol = solve_delta(mixture, z)
        assert idx == 0
        assert abs(d - sol.delta[0]) <= 1e-12
        assert resid <= 1e-12

    _, header, stj = read_csv_file(out / "stieltjes.csv")
    assert header == ["z", "m_pred"]
    for z, m in stj:
        sol = solve_delta(mixture, z)
        assert abs(m - stieltjes_from_delta(mixture, sol.delta, z)) <= 1e-12

    comments, header, dens = read_csv_file(out / "density.csv")
    assert header == ["lambda", "density", "converged"]
    assert dens.shape == (40, 3)
    assert np.all(dens[:, 2] == 1.0)
    pred = density_prediction(mixture, np.linspace(0.01, 3, 40), 0.01)
    np.testing.assert_allclose(dens[:, 1], pred.density, atol=1e-12)
    assert float(comments["epsilon"]) == 0.01
    assert abs(float(comments["atom_at_zero"]) - pred.atom_at_zero) <= 1e-15


def test_predict_reports_zero_atom_for_tall_samples(tmp_path):
    # p = 6 > n = 3 leaves mass 1 - n/p at zero.
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        p = 6
        n = 3
        classes = a

        [class.a]
        n_l = 3
        sigma = identity

        [predict]
        z_grid = 1
        lambda_grid = 0.01:8:30
        epsilon = 0.02
        """,
    )
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg_path, "--out", str(out)]) == 0
    comments, _, _ = read_csv_file(out / "density.csv")
    assert float(comments["atom_at_zero"]) == pytest.approx(0.5, abs=1e-10)


def test_predict_nonconvergence_exit_code(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        p = 4
        n = 8
        classes = a

        [class.a]
        n_l = 8
        sigma = identity

        [predict]
        z_grid = 1
        lambda_grid = 0.5 1.0
        epsilon = 0.01
        max_iter = 1
        """,
    )
    assert main(["predict", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1


def test_predict_flags_a_breakdown_on_subnormal_file_entries(tmp_path):
    # A sigma file is read as it is, subnormal entries and all. The density
    # solves break down to a NaN residual: flagged rows and exit 1.
    write_matrix(str(tmp_path / "sigma.csv"), 1e-310 * np.eye(4))
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        p = 4
        n = 4
        classes = a

        [class.a]
        n_l = 4
        sigma = file sigma.csv
        """,
    )
    with np.errstate(all="ignore"):
        assert main(["predict", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    _, header, rows = read_csv_file(tmp_path / "o" / "density.csv")
    assert not rows[:, header.index("converged")].all()


def test_predict_exits_one_on_an_infinite_stieltjes_value(tmp_path):
    # On 1e-310 I at z = 1e-310 the fixed point is finite, but (1/p) tr Q
    # overflows: the solve is flagged unconverged, never a silent inf.
    write_matrix(str(tmp_path / "sigma.csv"), 1e-310 * np.eye(4))
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        n = 4
        classes = a

        [class.a]
        n_l = 4
        sigma = file sigma.csv

        [predict]
        z_grid = 1e-310
        lambda_grid = 1 2
        epsilon = 0.1
        """,
    )
    with np.errstate(all="ignore"):
        assert main(["predict", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    _, _, rows = read_csv_file(tmp_path / "o" / "stieltjes.csv")
    assert np.isinf(rows[0, 1])


def test_predict_passes_max_iter_to_density_solve(tmp_path):
    cfg_path = write_config(
        tmp_path,
        BASE.replace("epsilon = 0.01\n", "epsilon = 0.01\n    max_iter = 1\n", 1),
    )
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg_path, "--out", str(out)]) == 1
    _, header, dens = read_csv_file(out / "density.csv")
    assert header == ["lambda", "density", "converged"]
    assert np.any(dens[:, 2] == 0)


@pytest.mark.parametrize("order", ["3 1 0.2 2 0.5", "3 2 1 0.5 0.2"], ids=["shuffled", "reversed"])
def test_predict_rows_follow_the_z_grid_order(tmp_path, order):
    # The z grid is walked from its largest z down, but rows are written in
    # the order of the input, each within tol of its row on an ascending grid.
    rows = {}
    for name, grid in (("ascending", "0.2 0.5 1 2 3"), ("given", order)):
        cfg = BASE.replace("[predict]\n    z_grid = 1 2", f"[predict]\n    z_grid = {grid}")
        cfg_path = write_config(tmp_path, cfg, name=f"{name}.ini")
        assert main(["predict", "--config", cfg_path, "--out", str(tmp_path / name)]) == 0
        rows[name] = [read_csv_file(tmp_path / name / f)[2] for f in ("delta.csv", "stieltjes.csv")]
    for given, ascending in zip(rows["given"], rows["ascending"]):
        np.testing.assert_array_equal(given[:, 0], [float(z) for z in order.split()])
        by_z = {row[0]: row for row in ascending}
        # z, class index and delta' (one class), or z and m_pred
        np.testing.assert_allclose(given[:, :3], [by_z[z][:3] for z in given[:, 0]],
                                   rtol=1e-12, atol=0)


def test_simulate_outputs_and_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--seed", "5"]) == 0

    comments, header, spec = read_csv_file(out / "spectrum.csv")
    assert comments["seed"] == "5"
    assert header == ["index", "eigenvalue"]
    assert spec.shape == (4, 2)
    assert np.all(spec[:, 1] >= 0)

    comments, header, hist = read_csv_file(out / "histogram.csv")
    assert header == ["bin_left", "bin_right", "mass"]
    assert hist.shape == (20, 3)
    assert hist[:, 2].sum() == pytest.approx(1.0, abs=1e-12)

    # Without the override the config's own seed applies.
    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    assert read_csv_file(out2 / "spectrum.csv")[0]["seed"] == "3"


def test_simulate_is_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert digest(out1 / "spectrum.csv") == digest(out2 / "spectrum.csv")
    assert digest(out1 / "histogram.csv") == digest(out2 / "histogram.csv")


def test_compare_outputs_and_thread_independence(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--config", cfg_path, "--out", str(out1)]) == 0
    assert (
        main(["compare", "--config", cfg_path, "--out", str(out2), "--threads", "2"])
        == 0
    )
    assert digest(out1 / "compare.csv") == digest(out2 / "compare.csv")

    comments, header, rows = read_csv_file(out1 / "compare.csv")
    assert header == ["z", "m_emp_mean", "m_emp_std", "m_pred", "abs_err"]
    assert rows.shape == (2, 5)
    assert comments["trials"] == "3"
    assert float(comments["sup_err"]) == pytest.approx(np.abs(rows[:, 4]).max())
    assert float(comments["hist_l1"]) >= 0.0

    mixture = load_config(cfg_path).mixture()
    for z, _, _, m_pred, _ in rows:
        sol = solve_delta(mixture, z)
        assert abs(m_pred - stieltjes_from_delta(mixture, sol.delta, z)) <= 1e-12


def test_compare_default_lambda_grid_matches_the_spectrum(tmp_path):
    # No lambda_grid: the density is predicted on compare's own grid over the
    # histogram's span. An atom-free mixture (p <= n) at criterion 03's bounds.
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        p = 100
        n = 200
        classes = a b

        [class.a]
        n_l = 66
        sigma = toeplitz a=0.3

        [class.b]
        n_l = 134
        sigma = identity scale=2

        [compare]
        z_grid = 0.5:5:10
        trials = 10
        seed = 1
        """,
    )
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    comments, _, _ = read_csv_file(tmp_path / "o" / "compare.csv")
    assert float(comments["sup_err"]) <= 0.05
    assert float(comments["hist_l1"]) <= 0.1


RECORD = re.compile(
    r"^name=(\S+) value=(\S+) stderr=(\S+) n=(\d+) seed=(\d+) status=(pass|fail)$"
)


def test_conclab_pass_and_report_format(tmp_path):
    cfg_path = write_config(
        tmp_path,
        BASE,
        """
        [conclab]
        checks = quad_form
        seed = 1

        [conclab.quad_form]
        p = 20
        trials = 400
        mean_tol = 5
        std_rtol = 0.5
        """,
    )
    out = tmp_path / "out"
    assert main(["conclab", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "conclab.txt").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        match = RECORD.match(line)
        assert match is not None
        assert match.group(6) == "pass"
    assert lines[0].startswith("name=quadform_mean ")


def test_conclab_failure_exit_code(tmp_path):
    cfg_path = write_config(
        tmp_path,
        BASE,
        """
        [conclab]
        checks = quad_form
        seed = 1

        [conclab.quad_form]
        p = 20
        trials = 400
        mean_tol = 0
        """,
    )
    out = tmp_path / "out"
    assert main(["conclab", "--config", cfg_path, "--out", str(out)]) == 1
    assert "status=fail" in (out / "conclab.txt").read_text()


def test_ingest_round_trips_into_predict(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3, 50))
    write_matrix(str(tmp_path / "cols.csv"), raw)
    cfg_path = write_config(
        tmp_path,
        """
        [ingest]
        classes = x

        [ingest.class.x]
        file = cols.csv
        n_l = 50
        """,
    )
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg_path, "--out", str(out)]) == 0

    model = estimate_class_model(raw, 50)
    np.testing.assert_array_equal(
        read_matrix(str(out / "class_x_sigma.csv")), model.sigma
    )
    cfg = load_config(str(out / "mixture.ini"))
    assert cfg.n == 50
    np.testing.assert_array_equal(cfg.class_configs[0].sigma, model.sigma)

    # The generated config drives predict directly.
    out2 = tmp_path / "pred"
    assert main(["predict", "--config", str(out / "mixture.ini"), "--out", str(out2)]) == 0
    assert (out2 / "density.csv").exists()


def test_ingest_dimension_mismatch_is_a_usage_error(tmp_path):
    write_matrix(str(tmp_path / "a.csv"), np.ones((3, 10)))
    write_matrix(str(tmp_path / "b.csv"), np.ones((4, 10)))
    cfg_path = write_config(
        tmp_path,
        """
        [ingest]
        classes = a b

        [ingest.class.a]
        file = a.csv
        n_l = 10

        [ingest.class.b]
        file = b.csv
        n_l = 10
        """,
    )
    assert main(["ingest", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


def test_usage_errors_exit_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE)
    missing = str(tmp_path / "absent.ini")
    assert main(["predict", "--config", missing, "--out", str(tmp_path)]) == 2
    assert main(["predict", "--config", cfg_path, "--seed", "-1"]) == 2
    assert main(["predict", "--config", cfg_path, "--seed", str(2**64)]) == 2
    assert main(["predict", "--config", cfg_path, "--threads", "0"]) == 2
    bad = write_config(
        tmp_path,
        """
        [mixture]
        p = 2
        n = 2
        classes = a

        [class.a]
        n_l = 2
        sigma = identity

        [predict]
        bogus = 1
        """,
        name="bad.ini",
    )
    assert main(["predict", "--config", bad, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


CONCLAB = """
    [conclab]
    checks = quad_form

    [conclab.quad_form]
    p = 4
    trials = 200
"""


@pytest.mark.parametrize(
    "command, section, line",
    [
        ("predict", "predict", "tol = abc"),
        ("predict", "predict", "max_iter = many"),
        ("predict", "predict", "epsilon = tiny"),
        ("simulate", "simulate", "bins = lots"),
        ("compare", "compare", "trials = ten"),
        ("compare", "compare", "seed = -1"),
        ("conclab", "conclab", "seed = -1"),
    ],
)
def test_bad_section_values_exit_two(tmp_path, capsys, command, section, line):
    # A configuration error, not a traceback with exit 1, the code that
    # means "did not converge".
    blocks = textwrap.dedent(BASE + CONCLAB).split("\n\n")
    for i, block in enumerate(blocks):
        if block.strip().startswith(f"[{section}]"):
            kept = [b for b in block.splitlines() if not b.startswith(line.split()[0] + " ")]
            blocks[i] = "\n".join(kept + [line])
    cfg_path = write_config(tmp_path, "\n\n".join(blocks))
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if "-1" not in line:
        assert f"{cfg_path} [{section}]: bad value for {line.split()[0]}" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, section, line",
    [
        ("predict", "predict", "tol = inf"),
        ("predict", "predict", "tol = nan"),
        ("predict", "predict", "epsilon = inf"),
        ("predict", "predict", "lambda_grid = 1 nan"),
        ("simulate", "simulate", "bins = 0 nan 10"),
        ("simulate", "simulate", "transform = nan"),
        ("predict", "mixture", "p = 0"),
        ("predict", "mixture", "p = -3"),
        ("predict", "class.a", "sigma = toeplitz a=0.5 power=2.5"),
        ("predict", "class.a", "sigma = toeplitz a=0.5 scale=abc"),
        ("conclab", "conclab.quad_form", "p = 0"),
        # Every section is typed when the config loads, read or not.
        ("predict", "compare", "trials = ten"),
        ("predict", "conclab", "checks = bogus"),
    ],
)
def test_bad_config_lines_exit_two_and_write_nothing(tmp_path, capsys, command, section, line):
    # A configuration error, never exit 0 with a wrong or empty result, nor a
    # traceback with exit 1, the code that means "did not converge".
    key = line.split()[0]
    blocks = textwrap.dedent(BASE + CONCLAB).split("\n\n")
    for i, block in enumerate(blocks):
        if block.strip().startswith(f"[{section}]"):
            kept = [b for b in block.splitlines() if not b.strip().startswith(key + " ")]
            blocks[i] = "\n".join(kept + [line])
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, "\n\n".join(blocks)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "check, line, message",
    [
        ("quad_form", "p = -3", "got -3"),
        ("tail_fit", "p = -2", "got -2"),
        ("diameter", "p_list = -4 8", "got -4"),
        ("diameter", "p_list =", "p_list must name at least one dimension"),
        ("resolvent_error", "gamma = nan", "gamma must be finite and positive, got nan"),
        ("delta_gap", "gamma = inf", "gamma must be finite and positive, got inf"),
        ("delta_gap", "sizes = -10 20", "sizes must be 2 or more increasing positive"),
        ("resolvent_error", "gamma = -1", "gamma must be finite and positive, got -1"),
        ("resolvent_error", "trials = 0", "trials must be positive, got 0"),
    ],
)
def test_bad_conclab_arguments_exit_two_before_sampling(
    tmp_path, capsys, monkeypatch, check, line, message
):
    # Out-of-range check arguments are configuration errors caught before
    # anything is sampled, never a traceback or a run on a clamped value.
    monkeypatch.setattr(covspec.sampler, "sample_class", no_sampling)
    monkeypatch.setattr(covspec.conc_lab, "sample_class", no_sampling)
    cfg_path = write_config(
        tmp_path, BASE, f"[conclab]\nchecks = {check}\n\n[conclab.{check}]\n{line}\n"
    )
    out = tmp_path / "out"
    assert main(["conclab", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not out.exists() or not any(out.iterdir())


# (command, config text, message) for faults in a config's structure, each a
# usage error that names its place and writes nothing.
_CONFIG_FAULTS = {
    "ingest-without-section": ("ingest", BASE, "ingest requires an [ingest] section with classes"),
    "sigma-file-two-paths": ("predict", BASE.replace("sigma = identity", "sigma = file a b"),
                             "exp.ini [class.a]: sigma file form is 'file PATH'"),
    "toeplitz-power-0": ("predict",
                         BASE.replace("sigma = identity", "sigma = toeplitz a=0.3 power=0"),
                         "exp.ini [class.a]: bad sigma 'toeplitz a=0.3 power=0' "
                         "(toeplitz power must be >= 1)"),
    "recipe-without-p": ("predict", BASE.replace("    p = 4\n", ""),
                         "exp.ini [class.a]: identity sigma needs p in [mixture]"),
    "file-sigma-off-p": ("predict", BASE.replace("sigma = identity", "sigma = file sigma.csv"),
                         "exp.ini [class.a]: sigma has shape (2, 2), expected (4, 4)"),
    "simulate-bins-0": ("simulate", BASE.replace("    seed = 3\n", "    seed = 3\n    bins = 0\n"),
                        "exp.ini [simulate]: bad value for bins: '0' "
                        "(bin count must be positive)"),
    "mixture-without-classes": ("predict", BASE.replace("    classes = a\n", ""),
                                "exp.ini: [mixture] needs a 'classes' list"),
}


@pytest.mark.parametrize("case", _CONFIG_FAULTS)
def test_config_structure_faults_exit_two_and_write_nothing(tmp_path, capsys, case):
    command, text, message = _CONFIG_FAULTS[case]
    (tmp_path / "sigma.csv").write_text("1,0\n0,1\n")
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["predict", "simulate", "compare", "conclab", "ingest"])
def test_verbose_logs_progress_to_stderr_and_changes_no_output(tmp_path, capsys, command):
    write_matrix(str(tmp_path / "cols.csv"), np.random.default_rng(0).standard_normal((3, 50)))
    ingest = "[ingest]\nclasses = x\n\n[ingest.class.x]\nfile = cols.csv\nn_l = 50\n"
    cfg_path = write_config(tmp_path, BASE, CONCLAB, ingest)
    runs = []
    for flags in ([], ["--verbose"]):
        out = tmp_path / f"out{len(flags)}"
        code = main([command, "--config", cfg_path, "--out", str(out), *flags])
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((code, written, capsys.readouterr().err))
    (code, written, quiet), (verbose_code, verbose_written, verbose) = runs
    assert written and (verbose_code, verbose_written) == (code, written)
    assert quiet == "" and verbose.startswith(f"{command}: ")


def test_compare_rejects_bin_edges_that_miss_the_spectrum(tmp_path, capsys):
    # Edges must cover every pooled eigenvalue, as simulate requires.
    cfg_path = write_config(tmp_path, BASE.replace("bins = 5", "bins = 0 0.5 1"))
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 2
    assert "do not cover the spectrum" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()
    cfg_path = write_config(tmp_path, BASE.replace("bins = 5", "bins = 0 1 2 50"))
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    comments, _, _ = read_csv_file(out / "compare.csv")
    assert float(comments["hist_l1"]) >= 0.0


def test_bad_z_grid_exits_two(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        p = 2
        n = 4
        classes = a

        [class.a]
        n_l = 4
        sigma = identity

        [predict]
        z_grid = 0 1
        """,
    )
    assert main(["predict", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


# (sigma file, mean file, p line of [mixture], message). Structural faults are
# caught when the config loads; the PSD rule runs where a command decomposes
# the class, and conclab decomposes none.
_STRUCTURAL = {
    "asymmetric": ("1,0.5\n0.4,1\n", None, "p = 2", "sigma must be exactly symmetric"),
    "nan-entry": ("1,nan\nnan,1\n", None, "p = 2", "class model entries must be finite"),
    "non-square": ("1,0,0\n0,1,0\n", None, "", "sigma must be square"),
}
_PSD = {
    "indefinite": ("1,0\n0,-0.5\n", None, "p = 2", "below the PSD slack"),
    # sigma is PSD, sigma - mean mean^T is not.
    "indefinite-centered": ("1,0\n0,4\n", "1.5\n0\n", "p = 2", "below the PSD slack"),
}


@pytest.mark.parametrize(
    "command, case",
    [pytest.param(command, case, id=f"{command}-{case}")
     for command in ("simulate", "compare", "predict", "conclab")
     for case in (*_STRUCTURAL, *_PSD) if command != "conclab" or case in _STRUCTURAL],
)
def test_invalid_class_moments_exit_two_under_every_command(tmp_path, capsys, command, case):
    # Every command judges a class by the same rules as the prediction, so
    # none samples from a sigma that predict and compare reject, and every
    # message names the config file and the class's section.
    sigma, mean, p_line, message = (_STRUCTURAL | _PSD)[case]
    (tmp_path / "sigma.csv").write_text(sigma)
    lines = ["sigma = file sigma.csv"]
    if mean is not None:
        (tmp_path / "mean.csv").write_text(mean)
        lines.append("mean = file mean.csv")
    text = BASE.replace("p = 4", p_line).replace("sigma = identity", "\n    ".join(lines))
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exp.ini [class.a]: " in err and message in err
    assert not out.exists() or not any(out.iterdir())


# (lines added to [class.a], message naming the field and the values it allows).
_BAD_LAWS = {
    "unknown-kind": (["generator = nonsense"], "generator must be one of ['gaussian', "),
    "unknown-nonlinearity": (
        ["generator = lipschitz-of-gaussian", "nonlinearity = sigmoid"],
        "nonlinearity of lipschitz-of-gaussian must be one of ['identity', ",
    ),
    "unknown-latent": (
        ["latent = poisson"],
        "latent of gaussian must be one of ['standard-normal'], got 'poisson'",
    ),
    "gaussian-tanh": (
        ["generator = gaussian", "nonlinearity = tanh"],
        "nonlinearity of gaussian must be one of ['identity'], got 'tanh'",
    ),
    "bounded-normal": (
        ["generator = bounded-affine", "latent = standard-normal"],
        "latent of bounded-affine must be one of ['rademacher', 'uniform']",
    ),
}


@pytest.mark.parametrize(
    "command, case",
    [pytest.param(command, case, id=f"{command}-{case}")
     for command in ("predict", "simulate", "compare", "conclab") for case in _BAD_LAWS],
)
def test_bad_generator_laws_exit_two_under_every_command(tmp_path, capsys, command, case):
    # A class's law is judged when the config loads, so a command that never
    # samples the class rejects it as simulate does.
    lines, message = _BAD_LAWS[case]
    text = BASE.replace("sigma = identity", "\n    ".join(["sigma = identity", *lines]))
    cfg_path = write_config(tmp_path, text + CONCLAB)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{cfg_path} [class.a]: " in err and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["predict", "simulate", "compare", "conclab"])
def test_class_counts_off_the_mixture_n_exit_two_under_every_command(tmp_path, capsys, command):
    # n = sum of n_l is judged when the config loads, so simulate samples no
    # mixture of another size and conclab runs none of its checks beside one.
    cfg_path = write_config(tmp_path, BASE.replace("n = 8", "n = 999") + CONCLAB)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path} [mixture]: class counts sum to 8, expected total n = 999" in err
    assert not out.exists() or not any(out.iterdir())


def test_compare_nonconvergence_exits_one_and_still_writes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE + "    max_iter = 1\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 1
    assert "compare: one or more solves did not converge" in capsys.readouterr().err
    comments, header, rows = read_csv_file(out / "compare.csv")
    assert list(comments) == ["sup_err", "hist_l1", "trials", "seed"]
    assert header == ["z", "m_emp_mean", "m_emp_std", "m_pred", "abs_err"]
    assert rows.shape == (2, 5)


def test_predict_on_a_zero_covariance_class(tmp_path):
    # Every eigenvalue is zero: the spectrum is the atom at zero alone, the
    # default grid falls back to [1e-6, 1] and m(z) = 1/z.
    cfg_path = write_config(
        tmp_path,
        """
        [mixture]
        p = 4
        classes = a

        [class.a]
        n_l = 8
        sigma = zero

        [predict]
        z_grid = 0.5 1 4
        """,
    )
    assert load_config(cfg_path).mixture().classes[0].rank() == 0
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg_path, "--out", str(out)]) == 0
    comments, _, dens = read_csv_file(out / "density.csv")
    assert float(comments["atom_at_zero"]) == 1.0
    assert dens.shape == (200, 3) and np.all(dens[:, 2] == 1.0)
    np.testing.assert_array_equal(dens[:, 0], np.linspace(1e-6, 1.0, 200))
    _, _, m = read_csv_file(out / "stieltjes.csv")
    np.testing.assert_allclose(m[:, 1], 1.0 / m[:, 0], rtol=1e-12)
