"""INI configuration parsing: recipes, grids, and schema validation."""

import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from covspec import DataError, ParameterError, ShapeError, toeplitz_covariance
from covspec.conc_lab import CHECKS
from covspec.config import _SECTIONS, load_config, parse_grid
from covspec.io import write_matrix


def write_config(tmp_path, *parts, name="exp.ini"):
    path = tmp_path / name
    path.write_text("\n".join(textwrap.dedent(p) for p in parts))
    return str(path)


MINIMAL = """
    [mixture]
    p = 4
    n = 10
    classes = a

    [class.a]
    n_l = 10
    sigma = identity scale=2.0
"""


def test_minimal_config_builds_mixture(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    mix = cfg.mixture()
    assert mix.k == 1
    assert mix.n == 10
    assert mix.gamma == pytest.approx(0.4)
    np.testing.assert_array_equal(mix.classes[0].sigma, 2.0 * np.eye(4))
    np.testing.assert_array_equal(mix.weights, [1.0])


def test_total_defaults_to_sum_of_counts(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            """
            [mixture]
            p = 3
            classes = a b

            [class.a]
            n_l = 4
            sigma = identity

            [class.b]
            n_l = 8
            sigma = zero
            """,
        )
    )
    assert cfg.n == 12
    assert cfg.mixture().n == 12


def test_toeplitz_recipe_matches_library(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            """
            [mixture]
            p = 6
            n = 6
            classes = a

            [class.a]
            n_l = 6
            sigma = toeplitz a=0.3 scale=2.0 power=2
            """,
        )
    )
    base = toeplitz_covariance(0.3, 6)
    expected = 2.0 * (base @ base)
    np.testing.assert_allclose(cfg.class_configs[0].sigma, expected, atol=1e-14)


@pytest.mark.parametrize("p, recipe", [
    (500, "toeplitz a=0.1 scale=10 power=2"),
    (500, "toeplitz a=0.1 scale=1e-300 power=2"),
    (40, "identity scale=1e-310"),
])
def test_sigma_recipes_hold_no_subnormal_entry(tmp_path, p, recipe):
    cfg = load_config(write_config(tmp_path, f"""
        [mixture]
        p = {p}
        n = {p}
        classes = a

        [class.a]
        n_l = {p}
        sigma = {recipe}
        """))
    sigma = np.abs(cfg.class_configs[0].sigma)
    assert not ((sigma > 0) & (sigma < np.finfo(float).tiny)).any()
    assert (sigma[sigma > 0] >= 2.0**-511 * sigma.max()).all()


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("k", [-500, -100, 100, 500])
def test_stored_toeplitz_recipe_scales_exactly_with_a_power_of_two(tmp_path, k, power):
    # No dependence on units: scale = 2^k stores exactly 2^k times the scale-1 matrix.
    def stored(scale):
        return load_config(write_config(tmp_path, f"""
            [mixture]
            p = 500
            classes = a

            [class.a]
            n_l = 500
            sigma = toeplitz a=0.1 scale={scale!r} power={power}
            """)).class_configs[0].sigma

    assert stored(2.0**k).tobytes() == (2.0**k * stored(1.0)).tobytes()


def test_sigma_and_mean_files_resolve_relative_to_config(tmp_path):
    sigma = np.array([[2.0, 0.5], [0.5, 3.0]])
    write_matrix(str(tmp_path / "sigma.csv"), sigma)
    write_matrix(str(tmp_path / "mean.csv"), np.array([0.5, -0.25]))
    cfg = load_config(
        write_config(
            tmp_path,
            """
            [mixture]
            p = 2
            n = 5
            classes = a

            [class.a]
            n_l = 5
            sigma = file sigma.csv
            mean = file mean.csv
            """,
        )
    )
    np.testing.assert_array_equal(cfg.class_configs[0].sigma, sigma)
    np.testing.assert_array_equal(cfg.class_configs[0].mean, [0.5, -0.25])


def test_generator_fields_flow_into_spec(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            """
            [mixture]
            p = 3
            n = 6
            classes = a

            [class.a]
            n_l = 6
            sigma = identity
            generator = lipschitz-of-gaussian
            nonlinearity = tanh
            """,
        )
    )
    [(spec, count)] = cfg.generator_pairs()
    assert spec.kind == "lipschitz-of-gaussian"
    assert spec.nonlinearity == "tanh"
    np.testing.assert_allclose(spec.factor @ spec.factor.T, np.eye(3), atol=1e-12)
    assert count == 6


def test_class_model_keeps_the_one_parsed_sigma(tmp_path):
    # A class holds one p x p copy of sigma: the parsed array, read-only, is
    # the one its ClassModel keeps, for a recipe and for a file alike.
    write_matrix(str(tmp_path / "s.csv"), 2.0 * np.eye(4))
    cfg = load_config(write_config(tmp_path, """
        [mixture]
        p = 4
        n = 10
        classes = a b

        [class.a]
        n_l = 5
        sigma = toeplitz a=0.3 scale=2

        [class.b]
        n_l = 5
        sigma = file s.csv
        """))
    for c in cfg.class_configs:
        assert not c.sigma.flags.writeable
        assert np.shares_memory(c.sigma, c.model.sigma)


def test_count_total_mismatch_surfaces_in_mixture(tmp_path):
    # n = sum of n_l is judged when the config loads, naming [mixture].
    path = write_config(
        tmp_path,
        """
        [mixture]
        p = 2
        n = 9
        classes = a

        [class.a]
        n_l = 5
        sigma = identity
        """,
    )
    with pytest.raises(ShapeError, match=r"\[mixture\]: class counts sum to 5, expected total n = 9"):
        load_config(path)


def test_config_without_classes_cannot_build_mixture(tmp_path):
    cfg = load_config(write_config(tmp_path, "[predict]\nz_grid = 1 2\n"))
    with pytest.raises(ParameterError):
        cfg.mixture()


def test_parse_grid_forms():
    np.testing.assert_allclose(parse_grid("0.5:5:10", "z"), np.linspace(0.5, 5, 10))
    np.testing.assert_allclose(
        parse_grid("log:0.001:1:4", "z"), np.geomspace(0.001, 1, 4)
    )
    np.testing.assert_array_equal(parse_grid("1 2 3.5", "z"), [1.0, 2.0, 3.5])
    np.testing.assert_array_equal(parse_grid("2.0", "z"), [2.0])


@pytest.mark.parametrize("text", ["1:2", "1:2:0", "", "a:b:c", "1:2:3:4"])
def test_parse_grid_rejects_malformed(text):
    with pytest.raises(ParameterError):
        parse_grid(text, "z")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ParameterError, match="unknown section"):
        load_config(write_config(tmp_path, MINIMAL, "[extra]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ParameterError, match="unknown keys"):
        load_config(write_config(tmp_path, MINIMAL, "[predict]\nbogus = 1\n"))
    with pytest.raises(ParameterError, match="unknown keys"):
        load_config(
            write_config(
                tmp_path,
                """
                [mixture]
                p = 2
                n = 2
                classes = a

                [class.a]
                n_l = 2
                sigma = identity
                extra = 1
                """,
            )
        )


@pytest.mark.parametrize(
    "sigma_line,message",
    [
        ("sigma = spiral", "unknown sigma recipe"),
        ("sigma = toeplitz", "missing option"),
        ("sigma = identity scale=2 rank=1", "unused sigma options"),
        ("sigma = identity scale", "bad sigma option"),
    ],
)
def test_sigma_recipe_errors(tmp_path, sigma_line, message):
    body = f"""
        [mixture]
        p = 2
        n = 2
        classes = a

        [class.a]
        n_l = 2
        {sigma_line}
    """
    with pytest.raises(ParameterError, match=message):
        load_config(write_config(tmp_path, body))


def test_missing_class_section_and_fields(tmp_path):
    with pytest.raises(ParameterError, match=r"missing \[class\.b\]"):
        load_config(
            write_config(tmp_path, "[mixture]\np = 2\nn = 2\nclasses = b\n")
        )
    with pytest.raises(ParameterError, match="n_l is required"):
        load_config(
            write_config(
                tmp_path,
                "[mixture]\np = 2\nn = 2\nclasses = a\n\n[class.a]\nsigma = identity\n",
            )
        )
    with pytest.raises(ParameterError, match="sigma is required"):
        load_config(
            write_config(
                tmp_path,
                "[mixture]\np = 2\nn = 2\nclasses = a\n\n[class.a]\nn_l = 2\n",
            )
        )


def test_mean_rejects_inline_vectors(tmp_path):
    body = """
        [mixture]
        p = 4
        n = 10
        classes = a

        [class.a]
        n_l = 10
        sigma = identity
        mean = 1 0 0 0
    """
    with pytest.raises(ParameterError, match="mean must be"):
        load_config(write_config(tmp_path, body))


def test_conclab_checks_parsed_and_validated(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            MINIMAL,
            """
            [conclab]
            checks = quad_form
            seed = 3

            [conclab.quad_form]
            p = 10
            trials = 500
            """,
        )
    )
    assert cfg.conclab == {"checks": ["quad_form"], "seed": 3}
    assert cfg.checks["quad_form"] == {"p": 10, "trials": 500}
    with pytest.raises(ParameterError, match="unknown check"):
        load_config(write_config(tmp_path, MINIMAL, "[conclab.bogus]\nx = 1\n"))


def test_conclab_check_keys_come_from_the_check_signature(tmp_path):
    # A misspelt key must be an error, not a silent run on the defaults.
    with pytest.raises(ParameterError, match="unknown keys.*trails"):
        load_config(write_config(tmp_path, MINIMAL, "[conclab.quad_form]\ntrails = 5\n"))
    with pytest.raises(ParameterError, match=r"\[conclab.diameter\]: bad value for p_list"):
        load_config(write_config(tmp_path, MINIMAL, "[conclab.diameter]\np_list = 8 x\n"))
    cfg = load_config(
        write_config(tmp_path, MINIMAL, "[conclab.delta_gap]\nsizes = 10 20\nz = 2\n")
    )
    assert cfg.checks["delta_gap"] == {"sizes": (10, 20), "z": 2.0}


def test_ingest_section_parsing(tmp_path):
    write_matrix(str(tmp_path / "cols.csv"), np.ones((2, 3)))
    cfg = load_config(
        write_config(
            tmp_path,
            """
            [ingest]
            classes = x
            delimiter = ,

            [ingest.class.x]
            file = cols.csv
            n_l = 3
            """,
        )
    )
    entries = cfg.ingest["classes"]
    assert entries[0]["label"] == "x"
    assert entries[0]["file"].endswith("cols.csv")
    assert entries[0]["n_l"] == 3
    assert cfg.ingest["delimiter"] == ","


def test_ingest_errors(tmp_path):
    with pytest.raises(ParameterError, match="'file' and 'n_l'"):
        load_config(
            write_config(
                tmp_path,
                "[ingest]\nclasses = x\n\n[ingest.class.x]\nfile = a.csv\n",
            )
        )
    with pytest.raises(ParameterError, match=r"missing \[ingest\.class\.y\]"):
        load_config(write_config(tmp_path, "[ingest]\nclasses = y\n"))
    with pytest.raises(ParameterError, match="needs a 'classes' list"):
        load_config(write_config(tmp_path, "[ingest]\ndelimiter = ,\n"))


def test_malformed_ini_is_a_data_error(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("no section header\n")
    with pytest.raises(DataError, match="config parse error"):
        load_config(str(path))


def test_missing_config_file(tmp_path):
    with pytest.raises(DataError, match="cannot read config"):
        load_config(str(tmp_path / "absent.ini"))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_each_sections_keys():
    # A README paragraph "`[section]` —" names its keys at the head of its
    # bullets; they must be exactly the keys load_config accepts.
    listed = {}
    for para in README.read_text().split("\n\n"):
        head = re.match(r"`\[([\w.]+?)(\.<label>)?\]` —\n", para)
        if head:
            bullets = [line.split(":")[0] for line in para.splitlines() if line.startswith("- ")]
            listed[head.group(1)] = sorted(re.findall(r"`(\w+)`", " ".join(bullets)))
    tables = {name: sorted(casts) for name, casts in _SECTIONS.items()}
    assert listed == {k: v for k, v in tables.items() if not k.startswith("conclab.")}


def test_readme_lists_each_checks_keys_and_defaults():
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", README.read_text(), re.M)
    listed = {name: dict(re.findall(r"`(\w+) = ([^`]+)`", cells)) for name, cells in rows}
    assert set(listed) == set(CHECKS)
    for name, check in CHECKS.items():
        params = inspect.signature(check).parameters.values()
        defaults = {q.name: q.default for q in params if q.kind is q.KEYWORD_ONLY}
        casts = _SECTIONS[f"conclab.{name}"]
        assert {key: casts[key](text) for key, text in listed[name].items()} == defaults
