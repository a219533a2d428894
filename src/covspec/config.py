"""Experiment configuration: flat INI files with documented sections.

A config describes a mixture once and parameterizes each command in its own
section. Matrices are never inlined: a class's second moment is either a
synthetic recipe (identity, toeplitz, zero) or a file reference resolved
relative to the config file. See the README for the full schema.

Every section is checked and typed when the config loads, whether or not the
command reads it: one table gives the keys each section takes and the cast
of each from text, and a [conclab.<check>] section takes the check's
keyword-only parameters. An unknown section or key, or a value its cast
rejects, is a ParameterError naming the file and section; an error about a
class's structure (judged here) or PSD rule (where a command decomposes it)
names them too. Range checks stay with the functions that use the values.
"""

from __future__ import annotations

import configparser
import inspect
import os
from dataclasses import dataclass, field

import numpy as np

from .conc_lab import CHECKS
from .errors import DataError, ParameterError, ShapeError
from .io import read_matrix
from .model import ClassModel, Mixture, _check_class, build_mixture, toeplitz_covariance
from .sampler import GeneratorSpec, _class_spec

__all__ = ["ClassConfig", "ExperimentConfig", "load_config", "parse_grid"]


def _in_section(where: str, build, *args):
    """build(*args); an error it raises about the class names ``where``."""
    try:
        return build(*args)
    except (ParameterError, ShapeError, DataError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


@dataclass(frozen=True, eq=False)
class ClassConfig:
    """One parsed [class.*] section; ``where`` names the file and the section."""

    label: str
    where: str
    n_l: int
    sigma: np.ndarray
    mean: np.ndarray
    generator: str = "gaussian"
    latent: str | None = None
    nonlinearity: str = "identity"

    def model(self) -> ClassModel:
        return _in_section(self.where, ClassModel, self.sigma, self.mean, self.n_l)

    def spec(self) -> GeneratorSpec:
        return _in_section(self.where, _class_spec, self.generator, self.sigma, self.mean,
                           self.nonlinearity, self.latent)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parsed configuration for every command."""

    path: str
    class_configs: tuple = ()
    n: int | None = None
    predict: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    compare: dict = field(default_factory=dict)
    conclab: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    ingest: dict = field(default_factory=dict)

    def mixture(self) -> Mixture:
        if not self.class_configs:
            raise ParameterError(f"{self.path}: no [class.*] sections defined")
        return build_mixture([c.model() for c in self.class_configs], self.n)

    def generator_pairs(self):
        return [(c.spec(), c.n_l) for c in self.class_configs]


def _grid(text: str) -> np.ndarray:
    """Grid syntax: 'a:b:k' for an inclusive linspace, 'log:a:b:k' for a
    geometric one, or listed values."""
    text = text.strip()
    spacing = np.linspace
    if text.startswith("log:"):
        spacing = np.geomspace
        text = text[4:]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("expected start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("count must be positive")
        grid = spacing(start, stop, count)
    else:
        grid = np.array([float(v) for v in text.split()])
    if grid.size == 0:
        raise ValueError("empty grid")
    return grid


def parse_grid(text: str, name: str) -> np.ndarray:
    """The grid ``text`` describes; a malformed one is an error naming ``name``."""
    try:
        return _grid(text)
    except ValueError as exc:
        raise ParameterError(f"bad grid for {name}: {text!r} ({exc})") from None


def _parse_sigma(value: str, p: int | None, base_dir: str, where: str) -> np.ndarray:
    kind, *args = value.split() or [""]
    if kind == "file":  # the file form takes a path, not key=value options
        if len(args) != 1:
            raise ParameterError(f"{where}: sigma file form is 'file PATH'")
        out = read_matrix(os.path.join(base_dir, args[0]))
    elif kind not in ("identity", "zero", "toeplitz"):
        raise ParameterError(f"{where}: unknown sigma recipe {kind!r}")
    elif p is None:
        raise ParameterError(f"{where}: {kind} sigma needs p in [mixture]")
    else:
        opts = {}
        for tok in args:
            if "=" not in tok:
                raise ParameterError(f"{where}: bad sigma option {tok!r}")
            key, _, val = tok.partition("=")
            opts[key] = val
        try:
            if kind == "zero":
                out = np.zeros((p, p))
            elif kind == "identity":
                out = float(opts.pop("scale", 1.0)) * np.eye(p)
            else:
                a = float(opts.pop("a"))
                scale = float(opts.pop("scale", 1.0))
                power = int(opts.pop("power", 1))
                if power < 1:
                    raise ValueError("toeplitz power must be >= 1")
                out = scale * np.linalg.matrix_power(toeplitz_covariance(a, p), power)
                out = (out + out.T) / 2.0
            # Entries below the smallest normal double are stored as 0, after
            # scale: a scale below 1 can push a normal entry under that bound.
            out[np.abs(out) < np.finfo(float).tiny] = 0.0
        except KeyError as exc:
            raise ParameterError(f"{where}: sigma recipe missing option {exc}") from None
        except ValueError as exc:
            raise ParameterError(f"{where}: bad sigma {value!r} ({exc})") from None
        if opts:
            raise ParameterError(f"{where}: unused sigma options {sorted(opts)}")
    if p is not None and out.shape != (p, p):
        raise ParameterError(f"{where}: sigma has shape {out.shape}, expected ({p}, {p})")
    return out


def _parse_mean(value: str, base_dir: str, where: str) -> np.ndarray | None:
    tokens = value.split()
    if tokens == ["zeros"]:
        return None
    if len(tokens) == 2 and tokens[0] == "file":
        return read_matrix(os.path.join(base_dir, tokens[1])).ravel()
    raise ParameterError(f"{where}: mean must be 'zeros' or 'file PATH'")


def _bins(text: str):
    """A positive bin count, or explicit bin edges."""
    parts = text.split()
    if len(parts) != 1:
        return np.array([float(v) for v in parts])
    if int(parts[0]) < 1:
        raise ValueError("bin count must be positive")
    return int(parts[0])


def _check_names(text: str) -> list:
    """Names of conclab checks, in the order given."""
    names = text.split()
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown} (known: {sorted(CHECKS)})")
    return names


def _cast_of(default):
    """Cast from config text to the type of ``default``; a tuple default takes
    whitespace-separated values of its items' type."""
    if isinstance(default, tuple):
        return lambda text: tuple(map(type(default[0]), text.split()))
    return type(default)


def _check_casts(check) -> dict:
    """A check's keyword-only parameters are the keys of its [conclab.<check>] section."""
    params = inspect.signature(check).parameters.values()
    return {q.name: _cast_of(q.default) for q in params if q.kind is q.KEYWORD_ONLY}


_PREDICT = {
    "z_grid": _grid,
    "lambda_grid": _grid,
    "epsilon": lambda text: None if text == "auto" else float(text),  # auto: 1e-3 of the span
    "tol": float,
    "max_iter": int,
}
# The keys each section takes and the cast of each from config text. All
# [class.<label>] sections share one entry, as do [ingest.class.<label>].
_SECTIONS = {
    "mixture": {"p": int, "n": int, "classes": str.split},
    "class": {"n_l": int, "sigma": str, "mean": str, "generator": str, "latent": str,
              "nonlinearity": str},
    "predict": _PREDICT,
    "simulate": {"seed": int, "bins": _bins, "transform": float},
    "compare": _PREDICT | {"trials": int, "seed": int, "bins": _bins},
    "conclab": {"checks": _check_names, "seed": int},
    "ingest": {"classes": str.split, "delimiter": str},
    "ingest.class": {"file": str, "n_l": int},
    **{f"conclab.{name}": _check_casts(check) for name, check in CHECKS.items()},
}


def _typed(section, casts: dict, where: str) -> dict:
    """The section's values, each cast from text; an unknown key or a value
    that does not cast is a configuration error naming file and section."""
    unknown = set(section) - set(casts)
    if unknown:
        raise ParameterError(f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(casts)})")
    out = {}
    for key, raw in section.items():
        try:
            out[key] = casts[key](raw)
        except ValueError as exc:
            raise ParameterError(f"{where}: bad value for {key}: {raw!r} ({exc})") from None
    return out


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise DataError(f"config parse error in {path}: {exc}") from None
    base_dir = os.path.dirname(os.path.abspath(path))

    typed = {}
    for section in parser.sections():
        kind = next((k for k in ("class", "ingest.class") if section.startswith(k + ".")), section)
        if kind not in _SECTIONS:
            if kind.startswith("conclab."):
                raise ParameterError(
                    f"{path}: unknown check [{section}] (known: {sorted(CHECKS)})"
                )
            raise ParameterError(f"{path}: unknown section [{section}]")
        typed[section] = _typed(parser[section], _SECTIONS[kind], f"{path} [{section}]")

    class_configs = []
    n_total = None
    if "mixture" in typed:
        mix = typed["mixture"]
        p = mix.get("p")
        n_total = mix.get("n")
        if not mix.get("classes"):
            raise ParameterError(f"{path}: [mixture] needs a 'classes' list")
        for label in mix["classes"]:
            section = f"class.{label}"
            where = f"{path} [{section}]"
            if section not in typed:
                raise ParameterError(f"{path}: missing [{section}] section")
            values = dict(typed[section])
            for key in ("n_l", "sigma"):
                if key not in values:
                    raise ParameterError(f"{where}: {key} is required")
            sigma = _parse_sigma(values.pop("sigma"), p, base_dir, where)
            mean = _parse_mean(values.pop("mean", "zeros"), base_dir, where)
            sigma, mean = _in_section(where, _check_class, sigma, mean)
            class_configs.append(ClassConfig(label, where, sigma=sigma, mean=mean, **values))
        if n_total is None:
            n_total = sum(c.n_l for c in class_configs)

    ingest = typed.get("ingest", {})
    if "ingest" in typed:
        if not ingest.get("classes"):
            raise ParameterError(f"{path}: [ingest] needs a 'classes' list")
        entries = []
        for label in ingest["classes"]:
            section = f"ingest.class.{label}"
            if section not in typed:
                raise ParameterError(f"{path}: missing [{section}] section")
            entry = typed[section]
            if "file" not in entry or "n_l" not in entry:
                raise ParameterError(f"{path} [{section}]: 'file' and 'n_l' are required")
            entries.append(entry | {"label": label, "file": os.path.join(base_dir, entry["file"])})
        ingest = {"classes": entries, "delimiter": ingest.get("delimiter", ",")}

    return ExperimentConfig(
        path=path,
        class_configs=tuple(class_configs),
        n=n_total,
        predict=typed.get("predict", {}),
        simulate=typed.get("simulate", {}),
        compare=typed.get("compare", {}),
        conclab=typed.get("conclab", {}),
        checks={s[len("conclab."):]: v for s, v in typed.items() if s.startswith("conclab.")},
        ingest=ingest,
    )
