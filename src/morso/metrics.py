"""Frequency-response sampling, peak-gain estimation and the relative
reduction error.

The peak gain (the supremum over frequency of the largest singular value
of the transfer matrix) is estimated on a finite grid and sharpened by a
few rounds of local refinement around the grid maximum.  The relative
reduction error of a reduced model is the ratio of the peak gain of the
pointwise transfer *difference* to the peak gain of the full system; the
error system is never assembled as an augmented realization.
"""

from dataclasses import dataclass
import json

import numpy as np

from .discretize import DEFAULT_SCHEME, discretize, inverse_discretize
from .errors import BadParameters, DimensionMismatch, DomainMismatch
from .mmio import text_output

__all__ = [
    "FrequencyGrid",
    "FrequencyResponse",
    "frequency_response",
    "error_response",
    "rre",
    "default_grid",
]

DEFAULT_GRID_COUNT = 400
DEFAULT_OMEGA_MIN = 1e-2
DEFAULT_OMEGA_MAX = 1e4

_REFINE_SAMPLES = 10


@dataclass(frozen=True)
class FrequencyGrid:
    """Evaluation grid: log-spaced imaginary axis or upper half unit circle.

    ``parameters`` holds the underlying real parameter (angular frequency
    for the continuous kind, angle in (0, pi] for the discrete kind) and
    ``points`` the complex evaluation points derived from it.
    """

    kind: str  # "log" or "circle"
    parameters: np.ndarray
    points: np.ndarray

    @classmethod
    def log_continuous(cls, omega_min=DEFAULT_OMEGA_MIN, omega_max=DEFAULT_OMEGA_MAX,
                       count=DEFAULT_GRID_COUNT):
        if count < 2:
            raise BadParameters(f"grid needs at least 2 points, got {count}")
        if not 0 < omega_min < omega_max:
            raise BadParameters(
                f"need 0 < omega_min < omega_max, got [{omega_min}, {omega_max}]"
            )
        omegas = np.geomspace(omega_min, omega_max, count)
        return cls(kind="log", parameters=omegas, points=1j * omegas)

    @classmethod
    def unit_circle(cls, count=DEFAULT_GRID_COUNT):
        if count < 2:
            raise BadParameters(f"grid needs at least 2 points, got {count}")
        # Real systems are conjugate-symmetric, so (0, pi] covers the circle.
        thetas = np.pi * np.arange(1, count + 1) / count
        return cls(kind="circle", parameters=thetas, points=np.exp(1j * thetas))

    @property
    def is_discrete(self):
        return self.kind == "circle"

    def point_at(self, x):
        """Evaluation point for one parameter value (frequency or angle)."""
        return np.exp(1j * x) if self.kind == "circle" else 1j * x


def default_grid(sys):
    """Domain-appropriate default grid for a system."""
    if sys.is_discrete:
        return FrequencyGrid.unit_circle(DEFAULT_GRID_COUNT)
    return FrequencyGrid.log_continuous()


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled largest-singular-value curve plus the refined peak estimate.

    ``sigma_max`` matches the grid point for point; ``hinf_estimate`` is
    the maximum over the grid *and* the refinement evaluations, so it never
    falls below ``max(sigma_max)``.
    """

    grid: FrequencyGrid
    sigma_max: np.ndarray
    hinf_estimate: float
    argmax_point: complex
    refinement_rounds: int

    def to_csv(self, path_or_file):
        """Write ``frequency,sigma_max`` (or ``angle,sigma_max``) rows."""
        label = "angle" if self.grid.is_discrete else "frequency"
        with text_output(path_or_file) as f:
            f.write(f"{label},sigma_max\n")
            for x, v in zip(self.grid.parameters, self.sigma_max):
                f.write(f"{float(x)!r},{float(v)!r}\n")

    def summary(self):
        return {
            "hinf": self.hinf_estimate,
            "argmax": [self.argmax_point.real, self.argmax_point.imag],
            "grid_kind": self.grid.kind,
            "refinement_rounds": self.refinement_rounds,
        }

    def write_summary(self, path_or_file):
        with text_output(path_or_file) as f:
            json.dump(self.summary(), f)


def _sigma_max(mat):
    if mat.size == 1:
        return float(np.abs(mat).ravel()[0])
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _refine(fun, grid, values, rounds):
    """Sharpen the grid maximum of ``fun`` (a map from grid parameter to
    gain) by repeatedly sampling inside the bracketing interval.  The log
    grid is refined in log space so the bracket shrinks uniformly."""
    xs = grid.parameters
    in_log = grid.kind == "log"
    params = np.log(xs) if in_log else np.asarray(xs, dtype=float)

    def gain(t):
        x = np.exp(t) if in_log else t
        return fun(x)

    k = int(np.argmax(values))
    best_t, best_v = params[k], float(values[k])
    lo = params[max(k - 1, 0)]
    hi = params[min(k + 1, len(params) - 1)]
    for _ in range(rounds):
        ts = np.linspace(lo, hi, _REFINE_SAMPLES + 2)
        vs = [gain(t) for t in ts]
        j = int(np.argmax(vs))
        if vs[j] > best_v:
            best_v, best_t = float(vs[j]), float(ts[j])
        lo = ts[max(j - 1, 0)]
        hi = ts[min(j + 1, len(ts) - 1)]
    x = np.exp(best_t) if in_log else best_t
    return x, best_v


def _sampled_response(transfer_at, grid, refinement_rounds):
    """Largest singular value of ``transfer_at(point)`` at every grid point,
    with the peak refined around the grid argmax (0 rounds disables)."""
    values = np.array([_sigma_max(transfer_at(pt)) for pt in grid.points])

    def gain(x):
        return _sigma_max(transfer_at(grid.point_at(x)))

    if refinement_rounds > 0:
        arg_x, peak = _refine(gain, grid, values, refinement_rounds)
    else:
        k = int(np.argmax(values))
        arg_x, peak = float(grid.parameters[k]), float(values[k])
    return FrequencyResponse(
        grid=grid,
        sigma_max=values,
        hinf_estimate=peak,
        argmax_point=complex(grid.point_at(arg_x)),
        refinement_rounds=refinement_rounds,
    )


def frequency_response(sys, grid=None, refinement_rounds=3):
    """Sample the largest singular value of the transfer matrix on a grid
    and refine the peak.

    Parameters
    ----------
    sys : SecondOrderSystem or FirstOrderSystem
    grid : FrequencyGrid, optional
        Defaults to the system's domain-appropriate grid.
    refinement_rounds : int, optional
        Local refinement rounds around the grid argmax (0 disables).

    Returns
    -------
    FrequencyResponse
    """
    if grid is None:
        grid = default_grid(sys)
    if grid.is_discrete != sys.is_discrete:
        raise DomainMismatch(
            f"grid kind {grid.kind!r} does not match the system domain"
        )
    return _sampled_response(sys.transfer, grid, refinement_rounds)


def _align_domains(full, reduced, scheme, mode):
    if full.is_discrete == reduced.is_discrete:
        return full, reduced
    if full.is_continuous and reduced.is_discrete:
        if mode == "discrete":
            # Compare on the unit circle: discretize the full model with the
            # reduced model's own step.
            return discretize(full, reduced.h, scheme, stability_check=False), reduced
        if mode == "continuous":
            if not hasattr(reduced, "M"):
                raise DomainMismatch(
                    "continuous-mode comparison needs a second-order "
                    "reduction (first-order models cannot be mapped back)"
                )
            return full, inverse_discretize(reduced, scheme)
        raise BadParameters(f"mode must be 'discrete' or 'continuous', got {mode!r}")
    raise DomainMismatch(
        "cannot compare a discrete full system against a continuous reduction"
    )


def error_response(full, reduced, grid=None, *, scheme=DEFAULT_SCHEME,
                   mode="discrete", refinement_rounds=3):
    """Response of the error system, evaluated pointwise.

    At each grid point the transfer matrices of both models are evaluated
    and the largest singular value of their *difference* is taken; no
    augmented realization is ever formed.  Domain mismatches between a
    continuous full model and a discrete reduction are resolved as in
    :func:`rre`.

    Returns
    -------
    FrequencyResponse
        The error curve on the comparison grid with its refined peak.
    """
    if (full.n_inputs, full.n_outputs) != (reduced.n_inputs, reduced.n_outputs):
        raise DimensionMismatch(
            f"input/output dimensions differ: "
            f"({full.n_outputs}x{full.n_inputs}) vs "
            f"({reduced.n_outputs}x{reduced.n_inputs})"
        )
    f_sys, r_sys = _align_domains(full, reduced, scheme, mode)
    if grid is None:
        grid = default_grid(f_sys)
    if grid.is_discrete != f_sys.is_discrete:
        raise DomainMismatch(
            f"grid kind {grid.kind!r} does not match the comparison domain"
        )

    def transfer_difference(pt):
        return f_sys.transfer(pt) - r_sys.transfer(pt)

    return _sampled_response(transfer_difference, grid, refinement_rounds)


def rre(full, reduced, grid=None, *, scheme=DEFAULT_SCHEME, mode="discrete",
        refinement_rounds=3):
    """Relative reduction error: peak gain of the transfer difference over
    peak gain of the full system.

    When the full model is continuous and the reduction was computed on a
    discretized copy, two comparison modes exist: ``"discrete"`` (default)
    discretizes the full model with the reduction's step and evaluates on
    the unit circle; ``"continuous"`` maps the reduced model back to
    continuous form (this requires a second-order reduction) and evaluates
    on the imaginary axis.  ``scheme`` names the discretization used either
    way.

    Both the error curve and the full-system curve are evaluated on the
    same grid with the same refinement, so identical models give exactly 0
    and a zero reduction gives exactly 1.
    """
    f_sys, r_sys = _align_domains(full, reduced, scheme, mode)
    err = error_response(f_sys, r_sys, grid, refinement_rounds=refinement_rounds)
    full_resp = frequency_response(f_sys, err.grid, refinement_rounds)
    return err.hinf_estimate / full_resp.hinf_estimate
