"""Benchmark ingestion and synthetic test systems.

A benchmark is described by a small ``key=value`` spec file naming the
five Matrix Market files of the quintuplet, an optional step size (absent
for continuous models) and optional expected dimensions used as a loading
cross-check::

    name=building
    M=building_M.mtx
    D=building_D.mtx
    K=building_K.mtx
    F=building_F.mtx
    G=building_G.mtx
    expected_2N=48
    expected_m=1
    expected_p=1
    suggested_2n=10

Relative paths resolve against the spec file's directory.  The loader
requires genuine second-order data; collections that only distribute
first-order (A, B, C) realizations must be converted upstream, because
recovering a mass/damping/stiffness split from them is a modeling choice
this package does not make.
"""

from dataclasses import dataclass, field, fields
import os
from typing import get_args

import numpy as np

from .discretize import DEFAULT_SCHEME
from .errors import (BadParameters, DimensionMismatch, ParseError, check_integer,
                     check_real)
from .metrics import DEFAULT_GRID_COUNT, DEFAULT_OMEGA_MAX, DEFAULT_OMEGA_MIN
from .mmio import read_lines, read_matrix, text_output, write_matrix
from .systems import SecondOrderSystem

__all__ = [
    "ROLES",
    "BenchmarkSpec",
    "RunConfig",
    "read_keyvalue_file",
    "load_matrix_market",
    "generate_msd_chain",
    "write_benchmark",
]

ROLES = ("M", "D", "K", "F", "G")

_EXPECTED_KEYS = {"expected_2N": "2N", "expected_m": "m", "expected_p": "p",
                  "suggested_2n": "2n"}


def read_keyvalue_file(path):
    """Parse a ``key=value`` text file into a dict (comments start with #)."""
    out = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, lineno, f"expected 'key=value', got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _spec_value(path, data, key, parse):
    try:
        return parse(data[key])
    except ValueError:
        raise ParseError(path, 0, f"bad value for {key!r}: {data[key]!r}") from None


@dataclass
class BenchmarkSpec:
    """Named quintuplet of Matrix Market paths plus optional metadata."""

    name: str
    paths: dict
    h: float | None = None
    expected: dict = field(default_factory=dict)

    def __post_init__(self):
        # The name becomes part of output file names, of CSV cells and of
        # the spec file's own name line.
        if self.name in ("", ".", "..") or any(
                c in self.name for c in ",\n\r/" + os.sep + (os.altsep or "")):
            raise BadParameters(f"name must not be empty, '.' or '..', nor "
                                f"hold a path separator, a comma or a line "
                                f"break, got {self.name!r}")
        missing = [r for r in ROLES if r not in self.paths]
        if missing:
            raise BadParameters(f"spec {self.name!r} lacks roles: {missing}")

    @classmethod
    def read(cls, path):
        data = read_keyvalue_file(path)
        base = os.path.dirname(os.path.abspath(path))
        paths = {}
        for role in ROLES:
            if role not in data:
                raise ParseError(path, 0, f"missing role {role!r} in spec")
            p = data[role]
            paths[role] = p if os.path.isabs(p) else os.path.join(base, p)
        h = _spec_value(path, data, "h", float) if "h" in data else None
        expected = {}
        for key, short in _EXPECTED_KEYS.items():
            if key in data:
                expected[short] = _spec_value(path, data, key, int)
        try:
            return cls(name=data.get("name", os.path.basename(path)),
                       paths=paths, h=h, expected=expected)
        except BadParameters as exc:  # the roles are checked above
            raise ParseError(path, 0, str(exc)) from None

    def write(self, path):
        base = os.path.dirname(os.path.abspath(path))
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"name={self.name}\n")
            for role in ROLES:
                p = self.paths[role]
                rel = os.path.relpath(p, base)
                f.write(f"{role}={rel}\n")
            if self.h is not None:
                f.write(f"h={self.h!r}\n")
            for key, short in _EXPECTED_KEYS.items():
                if short in self.expected:
                    f.write(f"{key}={self.expected[short]}\n")


def load_matrix_market(spec):
    """Assemble a SecondOrderSystem from a BenchmarkSpec.

    Validates dimensional consistency across the five roles and, when the
    spec carries expected dimensions, checks the loaded sizes against them.
    """
    mats = {role: read_matrix(spec.paths[role]) for role in ROLES}
    sos = SecondOrderSystem(mats["M"], mats["D"], mats["K"], mats["F"],
                            mats["G"], h=spec.h)
    expected = spec.expected
    checks = (
        ("2N", 2 * sos.order),
        ("m", sos.n_inputs),
        ("p", sos.n_outputs),
    )
    for key, observed in checks:
        if key in expected and expected[key] != observed:
            raise DimensionMismatch(
                f"benchmark {spec.name!r}: expected {key}={expected[key]}, "
                f"loaded {observed}"
            )
    return sos


def generate_msd_chain(N, stiffness=1.0, damping=0.1, mass=1.0, seed=None):
    """Fixed-fixed mass-spring-damper chain with proportional damping.

    The stiffness matrix is the tridiagonal second-difference stencil with
    diagonal ``2*stiffness``, the damping matrix is ``damping/stiffness``
    times it, the input forces the first mass and the output reads the last
    mass's position.  A seed perturbs the masses by up to +-10% so the
    spectrum is simple; ``seed=None`` keeps the uniform chain.

    M, D and K are built sparse, and the system stores them as its
    storage rule decides: sparse from N = 60 on, dense below.
    ``N`` and ``seed`` must be integers (numpy integers included), and
    ``stiffness``, ``damping`` and ``mass`` real numbers.
    Returns a continuous system; it is stable whenever ``damping > 0``.
    """
    if check_integer(N, "N") < 2:
        raise BadParameters(f"chain needs at least 2 masses, got {N}")
    if not 0 < check_real(stiffness, "stiffness") < np.inf:
        raise BadParameters(f"stiffness must be positive and finite, got {stiffness}")
    if not 0 <= check_real(damping, "damping") < np.inf:
        raise BadParameters(f"damping must be nonnegative and finite, got {damping}")
    if not 0 < check_real(mass, "mass") < np.inf:
        raise BadParameters(f"mass must be positive and finite, got {mass}")
    if seed is not None and check_integer(seed, "seed") < 0:
        raise BadParameters(f"seed must be >= 0, got {seed}")

    masses = np.full(N, float(mass))
    if seed is not None:
        rng = np.random.default_rng(seed)
        masses *= 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=N)
    from scipy.sparse import diags_array

    M = diags_array(masses)
    off = np.full(N - 1, -stiffness)
    K = diags_array([off, np.full(N, 2.0 * stiffness), off], offsets=[-1, 0, 1])
    D = (damping / stiffness) * K

    F = np.zeros((N, 1))
    F[0, 0] = 1.0
    G = np.zeros((1, N))
    G[0, N - 1] = 1.0
    return SecondOrderSystem(M, D, K, F, G, h=None)


def write_benchmark(directory, name, sos):
    """Write a system's quintuplet plus a spec file into ``directory``.

    Returns the path of the spec file.  Each matrix is written by
    ``write_matrix``: as a coordinate file when at most ``SPARSE_DENSITY``
    of its entries are nonzero and none is -0.0 (so a chain's ``M``, ``D``,
    ``K``, ``F`` and ``G`` take O(N) lines), else as a dense array file.
    Both carry full precision, so a reload reproduces the system bit for
    bit.  A name that :class:`BenchmarkSpec` refuses raises BadParameters
    before anything is written.
    """
    paths = {role: os.path.join(directory, f"{name}_{role}.mtx")
             for role in ROLES}
    expected = {"2N": 2 * sos.order, "m": sos.n_inputs, "p": sos.n_outputs}
    spec = BenchmarkSpec(name=name, paths=paths, h=sos.h, expected=expected)
    os.makedirs(directory, exist_ok=True)
    for role in ROLES:
        write_matrix(paths[role], getattr(sos, role),
                     comment=f" {name}: {role} matrix")
    spec_path = os.path.join(directory, f"{name}.spec")
    spec.write(spec_path)
    return spec_path


@dataclass
class RunConfig:
    """Everything needed to reproduce one reduction run."""

    algorithm: str = "srlrg"
    order: int = 1
    scheme: str = DEFAULT_SCHEME.value
    h: float | None = None
    tau: int | None = None
    angle_tol: float | None = None
    max_steps: int | None = None
    seed: int = 0
    rank_tol: float = 1e-7
    grid_count: int = DEFAULT_GRID_COUNT
    omega_min: float = DEFAULT_OMEGA_MIN
    omega_max: float = DEFAULT_OMEGA_MAX
    rre_mode: str = "discrete"

    @classmethod
    def from_mapping(cls, data):
        """Config from ``key=value`` strings: each key names a field, whose
        type parses the value (``float | None`` as float); an empty value or
        ``none`` is None."""
        types = {fld.name: fld.type for fld in fields(cls)}
        cfg = cls()
        for key, value in data.items():
            if key not in types:
                raise BadParameters(f"unknown configuration key {key!r}")
            parse = next(t for t in get_args(types[key]) or (types[key],)
                         if t is not type(None))
            try:
                if value == "" or value.lower() == "none":
                    parsed = None
                else:
                    parsed = parse(value)
            except ValueError:
                raise BadParameters(f"bad value for {key!r}: {value!r}")
            setattr(cfg, key, parsed)
        return cfg

    def to_manifest(self, path_or_file, version=None):
        """Write the run configuration as reusable ``key=value`` text."""
        with text_output(path_or_file) as f:
            if version is not None:
                f.write(f"# morso {version}\n")
            for fld in fields(self):
                key, value = fld.name, getattr(self, fld.name)
                if value is None:
                    f.write(f"{key}=\n")
                elif isinstance(value, float):
                    f.write(f"{key}={value!r}\n")
                else:
                    f.write(f"{key}={value}\n")
