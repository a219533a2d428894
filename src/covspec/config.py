"""Experiment configuration: flat INI files with documented sections.

A config describes a mixture once and parameterizes each command in its own
section. Matrices are never inlined: a class's second moment is either a
synthetic recipe (identity, toeplitz, zero) or a file reference resolved
relative to the config file. See the README for the full schema.
"""

from __future__ import annotations

import configparser
import inspect
import os
from dataclasses import dataclass, field

import numpy as np

from .conc_lab import CHECKS
from .errors import DataError, ParameterError
from .io import read_matrix
from .model import ClassModel, Mixture, build_mixture, toeplitz_covariance
from .sampler import GeneratorSpec, _class_spec

__all__ = ["ClassConfig", "ExperimentConfig", "load_config", "parse_grid"]

_CLASS_KEYS = {"n_l", "sigma", "mean", "generator", "latent", "nonlinearity"}
_MIXTURE_KEYS = {"p", "n", "classes"}
_PREDICT_KEYS = {"z_grid", "lambda_grid", "epsilon", "tol", "max_iter"}
_SIMULATE_KEYS = {"seed", "bins", "transform"}
_COMPARE_KEYS = {"z_grid", "lambda_grid", "epsilon", "trials", "seed", "bins", "tol", "max_iter"}
_CONCLAB_KEYS = {"checks", "seed"}
_INGEST_KEYS = {"classes", "delimiter"}
_INGEST_CLASS_KEYS = {"file", "n_l"}


@dataclass(frozen=True, eq=False)
class ClassConfig:
    """One parsed [class.*] section."""

    label: str
    n_l: int
    sigma: np.ndarray
    mean: np.ndarray
    generator: str = "gaussian"
    latent: str | None = None
    nonlinearity: str = "identity"

    def model(self) -> ClassModel:
        return ClassModel(sigma=self.sigma, mean=self.mean, n_l=self.n_l)

    def spec(self) -> GeneratorSpec:
        return _class_spec(self.generator, self.sigma, self.mean, self.nonlinearity, self.latent)


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


def parse_grid(text: str, name: str) -> np.ndarray:
    """Grid syntax: 'a:b:k' for an inclusive linspace, 'log:a:b:k' for a
    geometric one, or listed values."""
    text = text.strip()
    spacing = np.linspace
    if text.startswith("log:"):
        spacing = np.geomspace
        text = text[4:]
    try:
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
    except ValueError as exc:
        raise ParameterError(f"bad grid for {name}: {text!r} ({exc})") from None
    if grid.size == 0:
        raise ParameterError(f"empty grid for {name}")
    return grid


def _parse_sigma(value: str, p: int | None, base_dir: str, where: str) -> np.ndarray:
    tokens = value.split()
    kind = tokens[0] if tokens else ""
    opts = {}
    if kind != "file":  # the file form takes a path, not key=value options
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ParameterError(f"{where}: bad sigma option {tok!r}")
            key, _, val = tok.partition("=")
            opts[key] = val
    try:
        if kind == "identity":
            if p is None:
                raise ParameterError(f"{where}: identity sigma needs p in [mixture]")
            scale = float(opts.pop("scale", 1.0))
            out = scale * np.eye(p)
        elif kind == "zero":
            if p is None:
                raise ParameterError(f"{where}: zero sigma needs p in [mixture]")
            out = np.zeros((p, p))
        elif kind == "toeplitz":
            if p is None:
                raise ParameterError(f"{where}: toeplitz sigma needs p in [mixture]")
            a = float(opts.pop("a"))
            scale = float(opts.pop("scale", 1.0))
            power = int(opts.pop("power", 1))
            if power < 1:
                raise ParameterError(f"{where}: toeplitz power must be >= 1")
            base = toeplitz_covariance(a, p)
            out = scale * np.linalg.matrix_power(base, power)
            out = (out + out.T) / 2.0
        elif kind == "file":
            if len(tokens) != 2:
                raise ParameterError(f"{where}: sigma file form is 'file PATH'")
            out = read_matrix(os.path.join(base_dir, tokens[1]))
            opts = {}
        else:
            raise ParameterError(f"{where}: unknown sigma recipe {kind!r}")
    except KeyError as exc:
        raise ParameterError(f"{where}: sigma recipe missing option {exc}") from None
    if opts:
        raise ParameterError(f"{where}: unused sigma options {sorted(opts)}")
    if p is not None and out.shape != (p, p):
        raise ParameterError(
            f"{where}: sigma has shape {out.shape}, expected ({p}, {p})"
        )
    return out


def _parse_mean(value: str, p: int, base_dir: str, where: str) -> np.ndarray:
    tokens = value.split()
    if tokens == ["zeros"]:
        return np.zeros(p)
    if len(tokens) == 2 and tokens[0] == "file":
        vec = read_matrix(os.path.join(base_dir, tokens[1]))
        vec = vec.ravel()
        if vec.shape != (p,):
            raise ParameterError(f"{where}: mean has {vec.size} entries, expected {p}")
        return vec
    raise ParameterError(f"{where}: mean must be 'zeros' or 'file PATH'")


def _check_keys(section: str, present, allowed, path: str) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ParameterError(
            f"{path}: unknown keys {sorted(unknown)} in [{section}] "
            f"(allowed: {sorted(allowed)})"
        )


def _typed(section, key, cast, default=None, where=""):
    if key not in section:
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{where}: bad value for {key}: {raw!r} ({exc})") from None


def _cast_of(default):
    """Cast from config text to the type of ``default``; a tuple default takes
    whitespace-separated values of its items' type."""
    if isinstance(default, tuple):
        return lambda text: tuple(map(type(default[0]), text.split()))
    return type(default)


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

    class_configs = []
    n_total = None
    if parser.has_section("mixture"):
        mix = parser["mixture"]
        _check_keys("mixture", mix.keys(), _MIXTURE_KEYS, path)
        p = _typed(mix, "p", int, None, path)
        n_total = _typed(mix, "n", int, None, path)
        if "classes" not in mix:
            raise ParameterError(f"{path}: [mixture] needs a 'classes' list")
        labels = mix["classes"].split()
        if not labels:
            raise ParameterError(f"{path}: [mixture] classes list is empty")
        for label in labels:
            section = f"class.{label}"
            if not parser.has_section(section):
                raise ParameterError(f"{path}: missing [{section}] section")
            cls = parser[section]
            _check_keys(section, cls.keys(), _CLASS_KEYS, path)
            where = f"{path} [{section}]"
            if "n_l" not in cls:
                raise ParameterError(f"{where}: n_l is required")
            n_l = _typed(cls, "n_l", int, None, where)
            if "sigma" not in cls:
                raise ParameterError(f"{where}: sigma is required")
            sigma = _parse_sigma(cls["sigma"], p, base_dir, where)
            dim = sigma.shape[0]
            mean = _parse_mean(cls.get("mean", "zeros"), dim, base_dir, where)
            class_configs.append(
                ClassConfig(
                    label=label,
                    n_l=n_l,
                    sigma=sigma,
                    mean=mean,
                    generator=cls.get("generator", "gaussian"),
                    latent=cls.get("latent", None),
                    nonlinearity=cls.get("nonlinearity", "identity"),
                )
            )
        if n_total is None:
            n_total = sum(c.n_l for c in class_configs)

    known = {"mixture", "predict", "simulate", "compare", "conclab", "ingest"}
    for section in parser.sections():
        if section in known or section.startswith("class.") or section.startswith(
            "conclab."
        ) or section.startswith("ingest.class."):
            continue
        raise ParameterError(f"{path}: unknown section [{section}]")

    def level(name, allowed):
        if not parser.has_section(name):
            return {}
        sec = parser[name]
        _check_keys(name, sec.keys(), allowed, path)
        return dict(sec)

    predict = level("predict", _PREDICT_KEYS)
    simulate = level("simulate", _SIMULATE_KEYS)
    compare = level("compare", _COMPARE_KEYS)
    conclab = level("conclab", _CONCLAB_KEYS)
    ingest = level("ingest", _INGEST_KEYS)

    checks = {}
    for section in parser.sections():
        if section.startswith("conclab."):
            name = section.split(".", 1)[1]
            if name not in CHECKS:
                raise ParameterError(
                    f"{path}: unknown check [{section}] (known: {sorted(CHECKS)})"
                )
            # The check's keyword-only parameters are the section's keys.
            params = inspect.signature(CHECKS[name]).parameters.values()
            casts = {q.name: _cast_of(q.default) for q in params if q.kind is q.KEYWORD_ONLY}
            sec = parser[section]
            _check_keys(section, sec.keys(), set(casts), path)
            checks[name] = {k: _typed(sec, k, casts[k], None, f"{path} [{section}]") for k in sec}

    if parser.has_section("ingest"):
        labels = ingest.get("classes", "").split()
        if not labels:
            raise ParameterError(f"{path}: [ingest] needs a 'classes' list")
        entries = []
        for label in labels:
            section = f"ingest.class.{label}"
            if not parser.has_section(section):
                raise ParameterError(f"{path}: missing [{section}] section")
            sec = parser[section]
            _check_keys(section, sec.keys(), _INGEST_CLASS_KEYS, path)
            where = f"{path} [{section}]"
            if "file" not in sec or "n_l" not in sec:
                raise ParameterError(f"{where}: 'file' and 'n_l' are required")
            entries.append(
                {
                    "label": label,
                    "file": os.path.join(base_dir, sec["file"]),
                    "n_l": _typed(sec, "n_l", int, None, where),
                }
            )
        ingest = {"classes": entries, "delimiter": ingest.get("delimiter", ",")}

    return ExperimentConfig(
        path=path,
        class_configs=tuple(class_configs),
        n=n_total,
        predict=predict,
        simulate=simulate,
        compare=compare,
        conclab=conclab,
        checks=checks,
        ingest=ingest,
    )
