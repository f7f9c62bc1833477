"""One checkable predicate per operator bound in scope, and the registry.

Every refined bound divides a classical constant c by kappa^p, with
kappa = 1 + (ln x)^2 / 8 (natural log); each family's c, x and p are
written once, in _FAMILIES, which the evaluators and
refinement_constants both read.

THEOREMS holds one TheoremSpec per bound: its regime, default campaign
cells, minimum dimension, the variables of its instances (its space,
which _draw_states draws), its one evaluator, the probes and maps it
reads and its witnesses. The evaluator checks a stack of instance states
at once through a ``stacked.StackedView``: a campaign chunk's draws,
each with many random and eigenvector probes under a drawn map and its
hypotheses checked, or a search block's candidates, each with its own
probe under the identity map. One row of a view is one instance, its
probe and map included; snapshot writes it as JSON values and
instance_view reads it back.

Each bound's arithmetic is written once, on stacked operands, and hands
its left side and core to a record builder of ``opineq.stacked``, which
checks the refined and the classical bound and returns both verdicts,
the ratio and the improvement factor of every record. Its evaluator
reads the operands off a view; its public ``check_*`` function takes
one instance, runs the same arithmetic on its matrices and probes as
they are, without a row axis, and returns IneqRecords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .means_maps import PositiveMapSpec, congruence_sum_map
from .samplers import (
    BoundParams,
    RegimeId,
    _gaussians,
    _is_int,
    _unit_vectors,
    _window_spectra,
    regime_window,
    require_feasible,
)
from .spd import DEFAULT_TOL, CheckVerdict, SpdMatrix, SpectralInterval, _require_same_dim
from .stacked import (
    Rows,
    StackedMap,
    StackedSpd,
    StackedView,
    apply_map,
    arithmetic_mean,
    bilinear,
    dot,
    geometric_mean,
    haar,
    identity_rows,
    least_eigenvalue,
    like_rows,
    loewner_leq,
    loewner_ratio,
    loewner_rows,
    make_rows,
    map_spd,
    operator_norm,
    per_row,
    per_value,
    quad_form,
    require_frame,
    require_isometry_pair,
    require_rows,
    require_spectrum,
    scalar_leq,
    scalar_rows,
    spectral_norm,
    squares,
    symmetrize,
    transpose,
    unital_family,
)

LOG_BASE_NOTE = "natural (base e)"

# Relative slack allowed when re-checking stated hypotheses on inputs.
_REGIME_TOL = 1e-8
# Absolute floor for dimensionless norm bounds that vanish when M = m.
_DEGENERATE_ATOL = 1e-12


def kantorovich_constant(h: float) -> float:
    """K(h) = (h+1)^2 / (4h) for finite h > 0."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and > 0, got {h}")
    return (h + 1.0) ** 2 / (4.0 * h)


def refinement_factor(c: float) -> float:
    """1 + (ln c)^2 / 8 for finite c > 0, the divisor shrinking a classical constant."""
    if not 0.0 < c < math.inf:
        raise ValueError(f"refinement argument c must be finite and > 0, got {c}")
    return 1.0 + math.log(c) ** 2 / 8.0


@dataclass(frozen=True)
class IneqRecord:
    """One inequality check: both verdicts plus scale bookkeeping.

    lhs_value / rhs_value are scalars for scalar bounds and lambda_max
    descriptors for Loewner bounds; ratio is the scale-free attained
    ratio (lambda_max(R^{-1/2} L R^{-1/2}) in the Loewner case), and
    improvement_ratio = refined_rhs_scale / classical_rhs_scale.
    """

    theorem_id: str
    lhs_value: float
    rhs_value: float
    ratio: float
    verdict: CheckVerdict
    classical_verdict: CheckVerdict | None
    classical_rhs_scale: float
    refined_rhs_scale: float
    improvement_ratio: float
    detail: str = ""
    extras: dict = field(default_factory=dict)


# Every refined family: its classical constant c at the params, the
# argument x of kappa = refinement_factor(x), and the power p of kappa
# that divides c.
_FAMILIES = {
    "kantorovich": (lambda p: p.K_h, lambda p: p.m_prime, 2),
    "polya_szego": (lambda p: (p.M + p.m) / (2.0 * math.sqrt(p.M * p.m)),
                    lambda p: p.m_prime, 1),
    "lin_squared": (lambda p: p.K_h ** 2, lambda p: p.M_prime / p.m_prime, 2),
    "lin_norm": (lambda p: (p.M + p.m) ** 2 / (4.0 * (p.m * p.M)),
                 lambda p: p.M_prime / p.m_prime, 1),
    "wielandt": (lambda p: (p.M - p.m) ** 2 / (2.0 * math.sqrt(p.M * p.m) * (p.M + p.m)),
                 lambda p: p.m_prime, 1),
}


def _refined(family: str, params: BoundParams) -> tuple[float, float]:
    """A family's classical constant c and the kappa^p dividing it, at params."""
    constant, argument, power = _FAMILIES[family]
    return constant(params), refinement_factor(argument(params)) ** power


def _constants(family: str, params):
    """The family's c and kappa^p, as scalars or each row's own."""
    return per_row(partial(_refined, family), params)


# The hypothesis checks, on every row of stacked operands. Each raises
# InfeasibleRegime naming the first row outside the regime.


def _plain(params: BoundParams) -> SpectralInterval:
    return SpectralInterval(params.m, params.M)


_LOW = partial(regime_window, RegimeId.SELF_INVERSE_LOW)
_HIGH = partial(regime_window, RegimeId.SELF_INVERSE_HIGH)


def _require_window(a: StackedSpd, window, params, label: str = "A") -> None:
    """Every row's spectrum inside window(its params), to _REGIME_TOL."""
    def bounds(p):
        interval = window(p)
        return interval.lo, interval.hi
    require_spectrum(a, *per_row(bounds, params), label, _REGIME_TOL)


def _require_unit(*probes: np.ndarray, labels: tuple = ("x", "y")) -> None:
    """Raise ValueError unless every probe vector has norm 1, to 1e-10; ``labels`` names them."""
    for label, x in zip(labels, probes):
        norm = np.sqrt(dot(x, x))
        bad = np.abs(norm - 1.0) > 1e-10
        if bad.any():
            raise ValueError(f"{label} must be a unit vector, got norm {norm[bad][0]!r}")


def _require_orthogonal(x: np.ndarray, y: np.ndarray) -> None:
    """Raise ValueError unless every probe pair has |<x,y>| <= 1e-10."""
    inner = np.abs(dot(x, y))
    if (inner > 1e-10).any():
        raise ValueError(f"x and y must be orthogonal, got |<x,y>| = {inner.max():.3e}")


def _require_shifted(a: StackedSpd, b: StackedSpd, params) -> None:
    """mI <= m'A <= B <= MI: A on the shifted window, m'A <= B and B <= MI."""
    _require_window(a, partial(regime_window, RegimeId.SHIFTED), params)
    m_prime, big_m = per_row(lambda p: (p.m_prime, p.M), params)
    gap = least_eigenvalue(b.entries - like_rows(m_prime, a.entries) * a.entries)
    require_rows(~(gap < -_REGIME_TOL * operator_norm(b)),
                 lambda r: f"shifted needs m'A <= B: min eig of B - m'A is {gap.flat[r]:.3e}")
    top = b.eigenvalues[..., -1]
    big_m = np.broadcast_to(big_m, top.shape)
    require_rows(~(top > big_m * (1.0 + _REGIME_TOL)), lambda r: (
        f"shifted needs B <= MI: lambda_max(B) = {top.flat[r]:.8g} > {big_m.flat[r]}"))


def _sandwich(p: BoundParams) -> tuple:
    require_feasible(RegimeId.SANDWICH, p)
    return p.m, p.m_prime, p.M_prime, p.M


def _require_sandwich(a: StackedSpd, b: StackedSpd, params) -> None:
    """mI <= A <= m'I <= M'I <= B <= MI."""
    a_lo, a_hi, b_lo, b_hi = per_row(_sandwich, params)
    require_spectrum(a, a_lo, a_hi, "A", _REGIME_TOL)
    require_spectrum(b, b_lo, b_hi, "B", _REGIME_TOL)


# One instance of a public check_*: its matrices and probes, without a row axis.


def _probe(x) -> np.ndarray:
    """A vector as the one probe of one instance, (1, n)."""
    return np.asarray(x, dtype=float)[None, :]


def _mapped_pair(bound, require, map_spec: PositiveMapSpec, a: SpdMatrix, b: SpdMatrix,
                 params, tol: float, validate: bool) -> Rows:
    """bound(phi, A, B, params, tol) on one pair, after require(A, B, params) if validating."""
    _require_same_dim(a, b)
    if validate:
        require(a, b, params)
    return bound(map_spec, a, b, params, tol)


def _records(theorem_id: str, rows: Rows, classical: bool = True,
             details=()) -> list[IneqRecord]:
    """One instance's IneqRecords, named by ``details``; classical False: no such verdict."""
    records = []
    for item, r in enumerate(map(Rows._make, zip(*(np.ravel(f).tolist() for f in rows)))):
        held = CheckVerdict(r.classical, r.classical_gap, r.classical_slack) if classical else None
        records.append(IneqRecord(theorem_id, r.lhs, r.rhs, r.ratio,
                                  CheckVerdict(r.holds, r.gap, r.slack), held, r.classical_scale,
                                  r.scale, r.improvement, details[item] if details else ""))
    return records


class SearchVar(NamedTuple):
    """One variable of an instance state, as a TheoremSpec's space declares it.

    kind is "spd" (a spectrum kept in ``window``, on an orthogonal frame),
    "weights" (numbers kept in ``window``, no frame), "vector" (a unit
    vector), "frame" (an orthogonal matrix) or "scalar" (a number kept in
    ``window``). ``start`` is the range the first values of weights or of
    a scalar are drawn from (default: the window). ``size`` 0 means the
    instance dim.
    """

    kind: str
    window: SpectralInterval | None = None
    start: tuple[float, float] | None = None
    size: int = 0


@dataclass(frozen=True)
class TheoremSpec:
    """Everything the package knows about one bound, written once.

    ``regime`` is the hypothesis every cell and search box must satisfy
    and ``cells`` the default campaign grid. A classical search moves to
    ``classical_regime`` when it is set, where the unrefined constant has
    its equality cases. ``space(dim, params, classical)`` maps each
    instance variable's name to its SearchVar, in the order _draw_states
    draws them. ``evaluate(view, tol)`` returns ``stacked.Rows`` for every
    state a ``stacked.StackedView`` holds: a record per probe the view
    holds, under its maps, or per link of lin_chain, which ``details``
    names. It checks the hypotheses where the view asks. A campaign draws
    the probes the evaluator reads, ``probes`` "units" or "pairs", and the
    maps it reads, on dim // ``map_divisor`` (0: none). ``witnesses``
    names worked instances in snapshot's format; ``opineq demo`` prints
    their records, a name's ``{}`` filled with each record's detail.
    """

    theorem_id: str
    regime: RegimeId
    cells: tuple[BoundParams, ...]
    space: Callable
    evaluate: Callable
    min_dim: int = 1
    classical_regime: RegimeId | None = None
    details: tuple[str, ...] = ()
    witnesses: dict = field(default_factory=dict)
    probes: str = ""
    map_divisor: int = 0


# An instance state's groups of variables, in _draw_states' order, and for each
# SearchVar kind the groups of its values, with their number of axes of its size.
_GROUPS = ("spectra", "frames", "vectors", "scalars")
_VALUE_AXES = {"spd": {"spectra": 1, "frames": 2}, "weights": {"spectra": 1},
               "vector": {"vectors": 1}, "frame": {"frames": 2}, "scalar": {"scalars": 0}}


def _draw_states(space: dict, dim: int, count: int, rng) -> tuple[dict, dict, dict, dict]:
    """count states of ``space`` as (spectra, frames, vectors, scalars), count rows each.

    Variable ``name`` draws from rng((name, 0)), and its spectrum's Haar
    frame or its vector's redraws from rng((name, 1)). Weights and scalars
    are uniform on their start range.
    """
    spectra, frames, vectors, scalars = {}, {}, {}, {}
    for name, var in space.items():
        size, first = var.size or dim, rng((name, 0))
        if var.kind == "spd":
            spectra[name] = _window_spectra(
                var.window, first.uniform(var.window.lo, var.window.hi, (count, size)))
            frames[name] = (haar(rng((name, 1)).standard_normal((count, size, size)))
                            if size >= 2 else np.ones((count, 1, 1)))
        elif var.kind == "vector":
            vectors[name] = _unit_vectors(
                _gaussians(rng, (name, 0), (name, 1), (dim,), count, _unit_vectors))[0]
        elif var.kind == "frame":
            frames[name] = haar(first.standard_normal((count, dim, dim)))
        else:
            lo, hi = var.start or (var.window.lo, var.window.hi)
            shape = (count, size) if var.kind == "weights" else (count,)
            (spectra if var.kind == "weights" else scalars)[name] = first.uniform(lo, hi, shape)
    return spectra, frames, vectors, scalars


def _unit_probes(view: StackedView) -> np.ndarray:
    """(S, k, n) unit vectors: the view's probes, or each row's own vector x."""
    return view.vectors["x"][:, None, :] if view.probes is None else view.probes[0]


def snapshot(view: StackedView, row: int, probe: int = 0) -> dict:
    """Row ``row`` of a view as JSON values, with the view's ``dim`` and ``classical`` flag.

    from_eigh(spectra[k], frames[k]) rebuilds matrix k. Where the view has
    probes, ``probe`` holds the row's probe number ``probe``, its x (and y);
    where its map is not the identity, ``map`` holds its ``StackedMap.to_json``.
    """
    params = view.params[row] if isinstance(view.params, tuple) else view.params
    out = {"dim": view.dim, "classical": view.classical, "params": params.as_dict(),
           **{group: {k: v[row].tolist() for k, v in getattr(view, group).items()}
              for group in _GROUPS}}
    if view.probes is not None:
        out["probe"] = dict(zip("xy", (p[row, probe].tolist() for p in view.probes)))
    if view.maps is not None and (phi := view.maps.to_json(row)) is not None:
        out["map"] = phi
    return out


def _check_value(group: str, name: str, values: np.ndarray) -> None:
    """Raise ValueError unless an instance's value is what its group holds, beyond its shape.

    Spectra and weights are finite and > 0, frames orthonormal, and vectors
    and probes of unit length.
    """
    if group == "spectra" and not (np.isfinite(values).all() and (values > 0.0).all()):
        raise ValueError(f"values must be finite and > 0, got {values[0].tolist()}")
    if group == "frames":
        require_frame(values, "frame")
    if group in ("vectors", "probe"):
        _require_unit(values, labels=(name,))


def _values(group: str, name: str, value, shape: tuple) -> np.ndarray:
    """An instance's value as one row of floats of ``shape``, or a ValueError naming its key."""
    try:
        array = np.array([value], dtype=float)
        if array.shape[1:] != shape:
            raise ValueError(f"expected shape {shape}, got {array.shape[1:]}")
        _check_value(group, name, array)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"instance {group!r}[{name!r}]: {exc}") from exc
    return array


def instance_view(instance: dict, spec: TheoremSpec) -> StackedView:
    """snapshot's inverse: an instance of ``spec`` as the one row of a view, probe and map included.

    Raises ValueError naming the key where ``dim`` (below the spec's
    ``min_dim`` included), ``classical`` or ``params`` is missing or
    malformed, where a group does not map exactly
    the variables of ``spec.space(dim, params, classical)`` to values of
    their shapes, or where the probe or the map is not one ``spec`` reads:
    a probe maps x for unit probes and x and y for pairs to dim values,
    and a map is read by ``StackedMap.from_json`` on (dim // map_divisor) x
    (dim // map_divisor) matrices.
    """
    missing = [k for k in ("dim", "classical", "params", *_GROUPS) if k not in instance]
    if missing:
        raise ValueError(f"instance has no {missing[0]!r}")
    dim, classical = instance["dim"], instance["classical"]
    probe, phi = instance.get("probe"), instance.get("map")
    if not (_is_int(dim) and dim >= spec.min_dim):
        raise ValueError(f"instance 'dim' of {spec.theorem_id} must be an integer >= "
                         f"{spec.min_dim}, got {dim!r}")
    if not isinstance(classical, bool):
        raise ValueError(f"instance 'classical' must be true or false, got {classical!r}")
    try:
        params = BoundParams(**instance["params"])
        space = spec.space(dim, params, classical)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"instance 'params': {exc}") from exc
    groups = {group: {} for group in _GROUPS}
    for name, var in space.items():
        for group, axes in _VALUE_AXES[var.kind].items():
            groups[group][name] = (var.size or dim,) * axes
    if probe is not None:
        groups["probe"] = {k: (dim,) for k in {"units": "x", "pairs": "xy"}.get(spec.probes, "")}
    for group, shapes in groups.items():
        given = instance[group]
        if not (isinstance(given, dict) and set(given) == set(shapes)):
            raise ValueError(f"instance {group!r} of {spec.theorem_id} must map exactly "
                             f"{sorted(shapes)} to values, got {given!r}")
        groups[group] = {name: _values(group, name, given[name], shape)
                         for name, shape in shapes.items()}
    probes = maps = None
    if probe is not None:
        probes = tuple(x[None] for x in groups.pop("probe").values())
        if len(probes) == 2:
            try:
                _require_orthogonal(*probes)
            except ValueError as exc:
                raise ValueError(f"instance 'probe'['y']: {exc}") from exc
    if phi is not None:
        if not spec.map_divisor:
            raise ValueError(f"instance 'map' given, but {spec.theorem_id} reads none: {phi!r}")
        maps = StackedMap.from_json(phi, dim // spec.map_divisor)
    return StackedView(params, dim, *groups.values(), classical, probes=probes, maps=maps)


def _witness(dim: int, params: BoundParams, spectra: dict, frames=(), vectors=(),
             classical: bool = False) -> dict:
    """A witness instance: spectra on frames, the identity where none is given, and vectors."""
    eyes = {name: np.eye(len(vals)).tolist() for name, vals in spectra.items()}
    return {"dim": dim, "classical": classical, "params": params.as_dict(), "spectra": spectra,
            "frames": {**eyes, **dict(frames)}, "vectors": dict(vectors), "scalars": {}}


# The entries of the witnesses' vectors and frames at 45 degrees.
_R = 1.0 / math.sqrt(2.0)


# One spec per bound, each registered below next to its evaluator, in
# campaign order: a theorem's index here seeds its campaign draws.
THEOREMS: dict[str, TheoremSpec] = {}


def _register(*args, **kwargs):
    spec = TheoremSpec(*args, **kwargs)
    THEOREMS[spec.theorem_id] = spec


_LOW_CELL = (BoundParams(m=0.5, M=4.0, m_prime=1.5),)
_SHIFTED_CELL = (BoundParams(m=1.0, M=8.0, m_prime=2.0),)
_SANDWICH_CELL = (BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0),)

_VECTOR = SearchVar("vector")
_FRAME = SearchVar("frame")
# The mixing weight t of the shifted pair B = (1-t) m' A + t M I.
_SHIFT = SearchVar("scalar", SpectralInterval(1e-6, 1.0), (0.25, 1.0))


def _shifted_pair(view):
    """The shifted pairs A, B = (1-t) m' A + t M I of a view."""
    a = view.spd("a")
    t = view.scalars["t"]
    m_prime, big_m = per_row(lambda p: (p.m_prime, p.M), view.params)
    b = StackedSpd.from_eigh(
        ((1.0 - t) * m_prime)[:, None] * a.eigenvalues + (t * big_m)[:, None], a.eigenvectors)
    return a, b


def _scalar_amgm(a, b, tol):
    kappa = per_value(refinement_factor, b / a)
    mean_geo = np.sqrt(a * b)
    lhs = kappa * mean_geo
    rhs = 0.5 * (a + b)
    return make_rows(lhs / rhs, scalar_leq(lhs, rhs, tol), scalar_leq(mean_geo, rhs, tol),
                     lambda: (lhs, rhs), 1.0 / kappa, 1.0, 1.0 / kappa)


def scalar_refined_amgm(a: float, b: float, tol: float = DEFAULT_TOL) -> IneqRecord:
    """(1 + (ln b - ln a)^2 / 8) sqrt(ab) <= (a + b) / 2 for finite a, b > 0."""
    for name, value in (("a", a), ("b", b)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    rows = _scalar_amgm(np.array([a], dtype=float), np.array([b], dtype=float), tol)
    return _records("scalar_amgm", rows)[0]


def _space_scalar_amgm(dim, params, classical):
    return {"a": SearchVar("spd", _plain(params), size=1),
            "b": SearchVar("spd", _plain(params), size=1)}


def _evaluate_scalar_amgm(view, tol):
    return _scalar_amgm(view.spectra["a"][:, 0], view.spectra["b"][:, 0], tol)


def _scalars(a: float, b: float) -> dict:
    """The scalars a and b as a witness on the box [a, b]."""
    return _witness(1, BoundParams(m=a, M=b), {"a": [a], "b": [b]})


_register("scalar_amgm", RegimeId.PLAIN, (BoundParams(m=0.25, M=4.0),), _space_scalar_amgm,
          _evaluate_scalar_amgm, witnesses={"scalar refined am-gm a=1 b=4": _scalars(1.0, 4.0),
                                            "scalar equality a=b=3": _scalars(3.0, 3.0)})


def _lemma_amgm(a, b, m, tol, validate):
    """m is a scalar or each row's own; validate checks mA <= B with 1 < m, failing a NaN m."""
    if validate:
        rows_m = np.broadcast_to(m, a.eigenvalues.shape[:-1])
        require_rows(rows_m > 1.0, lambda r: f"relative needs 1 < m: m = {rows_m.flat[r]}")
        inv_root = a.inv_sqrt().entries
        low = least_eigenvalue(inv_root @ b.entries @ inv_root)
        require_rows(low >= rows_m * (1.0 - _REGIME_TOL), lambda r: (
            f"relative needs mA <= B: min relative eigenvalue {low.flat[r]:.8g} "
            f"< m = {rows_m.flat[r]}"))
    kappa = per_value(refinement_factor, m) if isinstance(m, np.ndarray) else refinement_factor(m)
    mean_geo = geometric_mean(a, b)
    rhs = arithmetic_mean(a, b)
    return make_rows(kappa * loewner_ratio(mean_geo.entries, rhs),
                     loewner_leq(like_rows(kappa, rhs.entries) * mean_geo.entries, rhs, tol),
                     loewner_leq(mean_geo, rhs, tol),
                     lambda: (kappa * operator_norm(mean_geo), operator_norm(rhs)), 1.0 / kappa,
                     1.0, 1.0 / kappa)


def check_lemma_refined_amgm(a: SpdMatrix, b: SpdMatrix, m: float,
                             tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """(1 + (ln m)^2 / 8) A#B <= (A+B)/2 under mA <= B with 1 < m."""
    _require_same_dim(a, b)
    return _records("lemma_amgm", _lemma_amgm(a, b, m, tol, validate))[0]


# Spectrum window used for the free factor A in the relative regime,
# where the hypothesis constrains only B relative to A.
RELATIVE_BASE_WINDOW = SpectralInterval(0.5, 2.0)


def _space_lemma_amgm(dim, params, classical):
    return {"a": SearchVar("spd", RELATIVE_BASE_WINDOW), "c": SearchVar("spd", _plain(params))}


def _evaluate_lemma_amgm(view, tol):
    """B = A^{1/2} C A^{1/2} with C on [m, M] keeps mA <= B <= MA."""
    a = view.spd("a")
    root = a.sqrt().entries
    b = StackedSpd(root @ view.spd("c").entries @ root)
    return _lemma_amgm(a, b, per_row(lambda p: p.m, view.params), tol, view.validate)


_register("lemma_amgm", RegimeId.RELATIVE, (BoundParams(m=4.0, M=9.0),), _space_lemma_amgm,
          _evaluate_lemma_amgm)


def _kantorovich(a, x, params, tol, validate):
    if validate:
        _require_window(a, _LOW, params)
        _require_unit(x)
    lhs = quad_form(a, x) * quad_form(a.inv(), x)
    return scalar_rows(lhs, 1.0, tol, *_constants("kantorovich", params))


def check_kantorovich_refined(a: SpdMatrix, x: np.ndarray, m: float, m_prime: float,
                              M: float, tol: float = DEFAULT_TOL,
                              validate: bool = True) -> IneqRecord:
    """<Ax,x><A^{-1}x,x> <= (M+m)^2 / (4Mm kappa(m')^2).

    Regime: mI <= m'A <= A^{-1} <= MI with m' > 1; the classical
    Kantorovich constant is the same bound without the divisor.
    """
    params = BoundParams(m=m, M=M, m_prime=m_prime)
    return _records("kantorovich", _kantorovich(a, _probe(x), params, tol, validate))[0]


def _space_low_vector(dim, params, classical):
    window = _plain(params) if classical else regime_window(RegimeId.SELF_INVERSE_LOW, params)
    return {"a": SearchVar("spd", window), "x": _VECTOR}


def _evaluate_vector(bound, view, tol):
    """bound(A, x, params, tol, validate) on the view's unit vector probes x."""
    return bound(view.spd("a"), _unit_probes(view), view.params, tol, view.validate)


# A = diag(1, 4) and x = (e1 + e2)/sqrt2 attain K(4), at m' = 1 where kappa is 1.
_register("kantorovich", RegimeId.SELF_INVERSE_LOW, _LOW_CELL, _space_low_vector,
          partial(_evaluate_vector, _kantorovich), classical_regime=RegimeId.PLAIN, probes="units",
          witnesses={"kantorovich equality witness": _witness(
              2, BoundParams(m=1.0, M=4.0), {"a": [1.0, 4.0]}, vectors={"x": [_R, _R]},
              classical=True)})


def _kantorovich_product(a, b, x, params, tol, validate):
    if validate:
        _require_shifted(a, b, params)
        _require_unit(x)
    lhs = quad_form(a, x) * quad_form(b, x)
    core = squares(quad_form(geometric_mean(a, b), x))
    return scalar_rows(lhs, core, tol, *_constants("kantorovich", params))


def check_kantorovich_product_refined(a: SpdMatrix, b: SpdMatrix, x: np.ndarray,
                                      params: BoundParams, tol: float = DEFAULT_TOL,
                                      validate: bool = True) -> IneqRecord:
    """<Ax,x><Bx,x> <= [(M+m)^2 / (4Mm kappa(m')^2)] <(A#B)x,x>^2.

    Squared right-hand side; the classical constant drops the kappa^2
    divisor. Regime: mI <= m'A <= B <= MI with m' > 1.
    """
    _require_same_dim(a, b)
    rows = _kantorovich_product(a, b, _probe(x), params, tol, validate)
    return _records("kantorovich_product", rows)[0]


def _space_shifted(dim, params, classical):
    return {"a": SearchVar("spd", regime_window(RegimeId.SHIFTED, params)), "t": _SHIFT}


def _space_kantorovich_product(dim, params, classical):
    if classical:
        return {"a": SearchVar("spd", _plain(params)), "b": SearchVar("spd", _plain(params)),
                "x": _VECTOR}
    return {**_space_shifted(dim, params, classical), "x": _VECTOR}


def _evaluate_kantorovich_product(view, tol):
    a, b = (view.spd("a"), view.spd("b")) if view.classical else _shifted_pair(view)
    return _kantorovich_product(a, b, _unit_probes(view), view.params, tol, view.validate)


_register("kantorovich_product", RegimeId.SHIFTED, _SHIFTED_CELL, _space_kantorovich_product,
          _evaluate_kantorovich_product, classical_regime=RegimeId.PLAIN, probes="units")


def _holder_mccarthy(a, x, params, tol, validate):
    if validate:
        _require_window(a, _LOW, params)
        _require_unit(x)
    ax = a.entries[..., None, :, :] @ x[..., None]
    return scalar_rows((transpose(ax) @ ax)[..., 0, 0], squares(quad_form(a, x)), tol,
                       *_constants("kantorovich", params))


def check_holder_mccarthy_refined(a: SpdMatrix, x: np.ndarray, params: BoundParams,
                                  tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """<A^2 x,x> <= [(M+m)^2 / (4Mm kappa(m')^2)] <Ax,x>^2 on the low window."""
    rows = _holder_mccarthy(a, _probe(x), params, tol, validate)
    return _records("holder_mccarthy", rows)[0]


_register("holder_mccarthy", RegimeId.SELF_INVERSE_LOW, _LOW_CELL, _space_low_vector,
          partial(_evaluate_vector, _holder_mccarthy), classical_regime=RegimeId.PLAIN,
          probes="units")


def _square_order(a, b, params, tol, validate):
    if validate:
        _require_window(a, _LOW, params)
        order = loewner_leq(a, b, _REGIME_TOL)
        require_rows(order.holds, lambda r: (
            f"square_order needs A <= B: min eig of B - A is {order.gap.flat[r]:.3e}"))
    return loewner_rows(a.square(), b.square(), tol, *_constants("kantorovich", params))


def check_square_order_refined(a: SpdMatrix, b: SpdMatrix, params: BoundParams,
                               tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """A^2 <= [(M+m)^2 / (4Mm kappa(m')^2)] B^2 when A <= B and A sits on the low window."""
    _require_same_dim(a, b)
    return _records("square_order", _square_order(a, b, params, tol, validate))[0]


def _space_square_order(dim, params, classical):
    return {"a": SearchVar("spd", regime_window(RegimeId.SELF_INVERSE_LOW, params)),
            "bump": SearchVar("spd", SpectralInterval(1e-3, 1.0)),
            "eps": SearchVar("scalar", SpectralInterval(1e-6, 0.5))}


def _evaluate_square_order(view, tol):
    """B = A + eps * bump keeps A <= B."""
    a = view.spd("a")
    b = StackedSpd(a.entries + view.scalars["eps"][:, None, None] * view.spd("bump").entries)
    return _square_order(a, b, view.params, tol, view.validate)


_register("square_order", RegimeId.SELF_INVERSE_LOW, _LOW_CELL, _space_square_order,
          _evaluate_square_order)


def _polya_szego(phi, a, b, params, tol):
    mapped_a = map_spd(phi, a)
    lhs = geometric_mean(mapped_a, map_spd(phi, b))
    # Under the identity, map_spd hands back A and B, and Phi(A)#Phi(B) is Phi(A#B).
    target = lhs if mapped_a is a else map_spd(phi, geometric_mean(a, b))
    return loewner_rows(lhs, target, tol, *_constants("polya_szego", params))


def check_polya_szego_refined(map_spec: PositiveMapSpec, a: SpdMatrix, b: SpdMatrix,
                              params: BoundParams, tol: float = DEFAULT_TOL,
                              validate: bool = True) -> IneqRecord:
    """Phi(A)#Phi(B) <= [(M+m) / (2 sqrt(Mm) kappa(m'))] Phi(A#B) on the shifted regime."""
    rows = _mapped_pair(_polya_szego, _require_shifted, map_spec, a, b, params, tol, validate)
    return _records("polya_szego", rows)[0]


def _evaluate_polya_szego(view, tol):
    if view.validate:
        _require_shifted(*_shifted_pair(view), view.params)
    return view.per_map(view.dim, lambda sub, phi: _polya_szego(phi, *_shifted_pair(sub),
                                                                sub.params, tol))


_register("polya_szego", RegimeId.SHIFTED, _SHIFTED_CELL, _space_shifted, _evaluate_polya_szego,
          map_divisor=1)


def _isometry_family(phi, a, params, tol, validate):
    if validate:
        _require_window(a, _LOW, params)
    lhs = geometric_mean(map_spd(phi, a), map_spd(phi, a.inv()))
    return identity_rows(lhs, tol, *_constants("polya_szego", params))


def check_isometry_family_bound(family, a: SpdMatrix, params: BoundParams,
                                tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """(sum U^T A U) # (sum U^T A^{-1} U) <= [(M+m) / (2 sqrt(Mm) kappa(m'))] I.

    The family must satisfy sum U_j^T U_j = I; A sits on the low window.
    """
    return _records("isometry_family", _isometry_family(congruence_sum_map(family), a, params, tol,
                                                         validate))[0]


def _space_isometry_family(dim, params, classical):
    return {"a": SearchVar("spd", regime_window(RegimeId.SELF_INVERSE_LOW, params)),
            "w": SearchVar("weights", SpectralInterval(0.01, 0.99), (0.2, 0.8)),
            "q": _FRAME}


def _evaluate_isometry_family(view, tol):
    """The family (sqrt(w) Q, sqrt(1-w) Q) sums to the identity."""
    w = np.clip(view.spectra["w"], 0.01, 0.99)
    q = view.frames["q"]
    phi = StackedMap.single(view.dim, "congruence_sum", unital_family(
        (np.sqrt(w)[..., None] * q, np.sqrt(1.0 - w)[..., None] * q), "isometry family"))
    return _isometry_family(phi, view.spd("a"), view.params, tol, view.validate)


_register("isometry_family", RegimeId.SELF_INVERSE_LOW, _LOW_CELL, _space_isometry_family,
          _evaluate_isometry_family)


LIN_VARIANTS = ("mapped_mean", "mean_of_maps")


def _lin_squared(variant, phi, a, b, params, tol):
    half = map_spd(phi, arithmetic_mean(a, b))
    if variant == "mapped_mean":
        target = map_spd(phi, geometric_mean(a, b))
    else:
        target = geometric_mean(map_spd(phi, a), map_spd(phi, b))
    return loewner_rows(half.square(), target.square(), tol,
                        *_constants("lin_squared", params))


def check_lin_refined_squared(map_spec: PositiveMapSpec, a: SpdMatrix, b: SpdMatrix,
                              params: BoundParams, variant: str,
                              tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """Phi^2((A+B)/2) <= [K^2(h) / kappa(M'/m')^2] T^2 on the sandwich regime.

    variant "mapped_mean" takes T = Phi(A#B); "mean_of_maps" takes
    T = Phi(A)#Phi(B). The classical constant is Lin's K^2(h).
    """
    if variant not in LIN_VARIANTS:
        raise ValueError(f"variant must be one of {LIN_VARIANTS}, got {variant!r}")
    rows = _mapped_pair(partial(_lin_squared, variant), _require_sandwich, map_spec, a, b,
                        params, tol, validate)
    return _records("lin_squared_mapped" if variant == "mapped_mean" else "lin_squared_means",
                    rows)[0]


def _space_sandwich(dim, params, classical):
    return {"a": SearchVar("spd", SpectralInterval(params.m, params.m_prime)),
            "b": SearchVar("spd", SpectralInterval(params.M_prime, params.M))}


def _evaluate_sandwich(bound, view, tol):
    """bound(phi, A, B, params, tol) once per map output size, the hypotheses on every row."""
    if view.validate:
        _require_sandwich(view.spd("a"), view.spd("b"), view.params)
    return view.per_map(view.dim, lambda sub, phi: bound(phi, sub.spd("a"), sub.spd("b"),
                                                         sub.params, tol))


# The paper's squared bound at A = 1, B = 4: ((A+B)/2)^2 = 6.25 <= K^2(4) / kappa(4)^2 *
# (A#B)^2 = 6.3489.
_register("lin_squared_mapped", RegimeId.SANDWICH, _SANDWICH_CELL, _space_sandwich,
          partial(_evaluate_sandwich, partial(_lin_squared, "mapped_mean")),
          map_divisor=1, witnesses={"squared mean bound a=1 b=4": _scalars(1.0, 4.0)})
_register("lin_squared_means", RegimeId.SANDWICH, _SANDWICH_CELL, _space_sandwich,
          partial(_evaluate_sandwich, partial(_lin_squared, "mean_of_maps")), map_divisor=1)


LIN_CHAIN_LINKS = (
    "half_a",
    "half_b",
    "summed",
    "geo_inverse",
    "mapped_inverse_mean",
    "mapped_mean_inverse",
    "norm_product",
)


def _lin_chain(phi, a, b, params, tol):
    """The seven links, in LIN_CHAIN_LINKS order."""
    m, M = per_row(lambda p: (p.m, p.M), params)
    # lin_norm divides by kappa itself (power 1), the factor every link uses.
    norm_bound, kappa = _constants("lin_norm", params)
    # m M and kappa as factors of each row's link matrices.
    mm, link_kappa = like_rows(m * M, a.entries), like_rows(kappa, a.entries)
    a_inv = a.inv().entries
    b_inv = b.inv().entries
    half = 0.5 * (a.entries + b.entries)
    mean_geo = geometric_mean(a, b)
    geo_inv = mean_geo.inv().entries
    mapped_half = symmetrize(apply_map(phi, half))
    mapped_geo = map_spd(phi, mean_geo)
    mapped_geo_inv = symmetrize(apply_map(phi, geo_inv))
    inv_mapped_geo = mapped_geo.inv().entries

    def link(lhs, bound, classical_lhs=None):
        return identity_rows(lhs, tol, bound, classical_lhs=classical_lhs)

    return Rows.columns([
        link(0.5 * a.entries + 0.5 * mm * a_inv, 0.5 * (M + m)),
        link(0.5 * b.entries + 0.5 * mm * b_inv, 0.5 * (M + m)),
        link(half + 0.5 * mm * (a_inv + b_inv), M + m),
        link(half + mm * link_kappa * geo_inv, M + m, half + mm * geo_inv),
        link(mapped_half + mm * link_kappa * mapped_geo_inv, M + m,
             mapped_half + mm * mapped_geo_inv),
        link(mapped_half + mm * link_kappa * inv_mapped_geo, M + m,
             mapped_half + mm * inv_mapped_geo),
        scalar_rows(spectral_norm(mapped_half @ inv_mapped_geo), 1.0, tol, norm_bound, kappa),
    ])


def check_lin_chain(map_spec: PositiveMapSpec, a: SpdMatrix, b: SpdMatrix,
                    params: BoundParams, tol: float = DEFAULT_TOL,
                    validate: bool = True) -> list[IneqRecord]:
    """Verdicts for every intermediate step behind the squared bound.

    Links, in proof order:
      half_a:              A/2 + Mm A^{-1}/2 <= (M+m)/2 I
      half_b:              the same for B
      summed:              (A+B)/2 + Mm (A^{-1}+B^{-1})/2 <= (M+m) I
      geo_inverse:         (A+B)/2 + Mm kappa (A#B)^{-1} <= (M+m) I
      mapped_inverse_mean: Phi((A+B)/2) + Mm kappa Phi((A#B)^{-1}) <= (M+m) I
      mapped_mean_inverse: Phi((A+B)/2) + Mm kappa (Phi(A#B))^{-1} <= (M+m) I
      norm_product:        ||Phi((A+B)/2) (Phi(A#B))^{-1}|| <= (M+m)^2 / (4Mm kappa)
    with kappa = 1 + (ln(M'/m'))^2 / 8. The kappa = 1 forms serve as the
    classical verdicts where the factor applies.
    """
    records = _records("lin_chain", _mapped_pair(_lin_chain, _require_sandwich, map_spec, a, b,
                                                 params, tol, validate), details=LIN_CHAIN_LINKS)
    # The links that carry the factor kappa.
    for record in records[3:6]:
        record.extras["kappa"] = _refined("lin_norm", params)[1]
    return records


_register("lin_chain", RegimeId.SANDWICH, _SANDWICH_CELL, _space_sandwich,
          partial(_evaluate_sandwich, _lin_chain), details=LIN_CHAIN_LINKS, map_divisor=1,
          witnesses={"chain {} at m=M": _witness(2, BoundParams(m=2.0, M=2.0),
                                                 {"a": [2.0, 2.0], "b": [2.0, 2.0]})})


def _conjecture_scale(m: float, M: float) -> float:
    return ((M - m) / (M + m)) ** 2


def _conjecture_scales(params):
    return per_row(lambda p: _conjecture_scale(p.m, p.M), params)


def _wielandt_scalar(a, x, y, m, M, c, tol, validate):
    """m, M, c scalars or each row's own; the tolerance scales by <x,Ax><y,Ay>, 0 at M = m."""
    if validate:
        require_spectrum(a, m, M, "A", _REGIME_TOL)
        _require_unit(x, y)
    _require_orthogonal(x, y)
    product = quad_form(a, x) * quad_form(a, y)
    return scalar_rows(squares(bilinear(a, x, y)), product, tol, c, scale=product)


def check_wielandt_scalar(a: SpdMatrix, x: np.ndarray, y: np.ndarray, m: float, M: float,
                          tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """<x,Ay>^2 <= ((M-m)/(M+m))^2 <x,Ax><y,Ay> for orthonormal x, y.

    m and M are BoundParams values, with m <= M (InfeasibleRegime
    otherwise), whether or not the spectrum is validated.
    """
    params = BoundParams(m=m, M=M)
    require_feasible(RegimeId.PLAIN, params)
    rows = _wielandt_scalar(a, _probe(x), _probe(y), params.m, params.M,
                            _conjecture_scale(params.m, params.M), tol, validate)
    return _records("wielandt_scalar", rows, classical=False)[0]


def _space_plain_pair(dim, params, classical):
    return {"a": SearchVar("spd", _plain(params)), "pair": _FRAME}


def _evaluate_wielandt_scalar(view, tol):
    a = view.spd("a")
    frame = view.frames["pair"]
    x, y = view.probes or (frame[:, None, :, 0], frame[:, None, :, 1])
    m, M = per_row(lambda p: (p.m, p.M), view.params)
    return _wielandt_scalar(a, x, y, m, M, _conjecture_scales(view.params), tol, view.validate)


# Orthonormal pairs and isometry ranges need at least two dimensions.
_register("wielandt_scalar", RegimeId.PLAIN, (BoundParams(m=1.0, M=4.0),), _space_plain_pair,
          _evaluate_wielandt_scalar, min_dim=2, probes="pairs",
          witnesses={"wielandt scalar equality pair": _witness(
              2, BoundParams(m=1.0, M=4.0), {"a": [1.0, 4.0]}, {"pair": [[_R, _R], [_R, -_R]]})})


WIELANDT_VARIANTS = ("bhatia_davis", "gumus", "refined")


def _wielandt_operator(variant, phi, a, x, y, params, tol):
    """W = Phi(X^T A Y) [Phi(Y^T A Y)]^{-1} Phi(Y^T A X) against Phi(X^T A X)."""
    e = a.entries
    xt, yt = transpose(x), transpose(y)
    mapped_cross = apply_map(phi, xt @ e @ y)
    mapped_cross_t = apply_map(phi, yt @ e @ x)
    mapped_yy = StackedSpd(apply_map(phi, yt @ e @ y))
    mapped_xx = StackedSpd(apply_map(phi, xt @ e @ x))
    if variant == "refined":
        require_spectrum(mapped_xx, *per_row(lambda p: (p.m, p.M), params), "Phi(X^T A X)",
                         _REGIME_TOL)
    triple = symmetrize(mapped_cross @ mapped_yy.inv().entries @ mapped_cross_t)
    if variant == "bhatia_davis":
        return loewner_rows(triple, mapped_xx, tol, _conjecture_scales(params),
                            atol=_DEGENERATE_ATOL * operator_norm(mapped_xx))
    gumus, kappa_pow = _constants("wielandt", params)
    return scalar_rows(spectral_norm(triple @ mapped_xx.inv().entries), 1.0, tol, gumus,
                       kappa_pow if variant == "refined" else None, atol=_DEGENERATE_ATOL)


def check_wielandt_operator(map_spec: PositiveMapSpec, a: SpdMatrix, pair,
                            params: BoundParams, variant: str,
                            tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """Operator Wielandt bounds for orthogonal-range isometries X, Y.

    With W = Phi(X^T A Y) [Phi(Y^T A Y)]^{-1} Phi(Y^T A X):
      bhatia_davis: W <= ((M-m)/(M+m))^2 Phi(X^T A X)   (Loewner, plain regime)
      gumus:        ||W [Phi(X^T A X)]^{-1}|| <= (M-m)^2 / (2 sqrt(Mm) (M+m))
      refined:      the same norm against the gumus bound divided by
                    kappa(m'), on the regime mI <= m'A^{-1} <= A <= MI;
                    mI <= Phi(X^T A X) <= MI is verified as a derived
                    precondition rather than assumed.
    Every record also carries the conjectured ((M-m)/(M+m))^2 target in
    extras for comparison, never asserted.
    """
    if variant not in WIELANDT_VARIANTS:
        raise ValueError(f"variant must be one of {WIELANDT_VARIANTS}, got {variant!r}")
    if validate:
        _require_window(a, _HIGH if variant == "refined" else _plain, params)
    rows = _wielandt_operator(variant, map_spec, a, pair.x, pair.y, params, tol)
    (record,) = _records(f"wielandt_{variant}", rows, classical=variant == "refined")
    record.extras["conjecture_scale"] = scale = _conjecture_scale(params.m, params.M)
    if variant != "bhatia_davis":
        record.extras["within_conjecture"] = bool(record.lhs_value <= scale)
    return record


def _space_high_pair(dim, params, classical):
    return {"a": SearchVar("spd", regime_window(RegimeId.SELF_INVERSE_HIGH, params)),
            "pair": _FRAME}


def _evaluate_wielandt_operator(variant, view, tol):
    """X and Y are the first and last dim // 2 columns of one frame, checked as IsometryPair."""
    r = view.dim // 2
    if view.validate:
        _require_window(view.spd("a"), _HIGH if variant == "refined" else _plain, view.params)

    def group(sub, phi):
        f = sub.frames["pair"]
        x, y = f[..., :r].copy(), f[..., view.dim - r:].copy()
        require_isometry_pair(x, y)
        return _wielandt_operator(variant, phi, sub.spd("a"), x, y, sub.params, tol)
    return view.per_map(r, group)


# A = [[2.3, 0.3], [0.3, 2.3]] with X = e1, Y = e2.
_WIELANDT_2X2 = _witness(2, BoundParams(m=1.5, M=4.0, m_prime=4.0), {"a": [2.0, 2.6]},
                         {"a": [[-_R, _R], [_R, _R]], "pair": [[1.0, 0.0], [0.0, 1.0]]})
_register("wielandt_bhatia_davis", RegimeId.PLAIN, (BoundParams(m=1.5, M=4.0),),
          _space_plain_pair, partial(_evaluate_wielandt_operator, "bhatia_davis"), min_dim=2,
          map_divisor=2)
_register("wielandt_gumus", RegimeId.PLAIN, (BoundParams(m=1.5, M=4.0),), _space_plain_pair,
          partial(_evaluate_wielandt_operator, "gumus"), min_dim=2, map_divisor=2,
          witnesses={"wielandt gumus 2x2 witness": _WIELANDT_2X2})
_register("wielandt_refined", RegimeId.SELF_INVERSE_HIGH,
          (BoundParams(m=1.5, M=4.0, m_prime=4.0),), _space_high_pair,
          partial(_evaluate_wielandt_operator, "refined"), min_dim=2, map_divisor=2,
          witnesses={"wielandt refined 2x2 witness": _WIELANDT_2X2})


def _choi(phi, a, tol):
    mapped = StackedSpd(apply_map(phi, a))
    return loewner_rows(mapped.inv(), StackedSpd(apply_map(phi, a.inv())), tol)


def check_choi_record(map_spec: PositiveMapSpec, t: SpdMatrix,
                      tol: float = DEFAULT_TOL) -> IneqRecord:
    """(Phi(T))^{-1} <= Phi(T^{-1}) for a unital positive map Phi and T > 0."""
    rows = _choi(map_spec, t, tol)
    return _records("choi", rows, classical=False)[0]


def _space_plain(dim, params, classical):
    return {"a": SearchVar("spd", _plain(params))}


def _evaluate_choi(view, tol):
    return view.per_map(view.dim, lambda sub, phi: _choi(phi, sub.spd("a"), tol))


_register("choi", RegimeId.PLAIN, (BoundParams(m=0.5, M=4.0),), _space_plain, _evaluate_choi,
          map_divisor=1)


def _norm_amgm(a, b, tol):
    core = 0.25 * squares(spectral_norm(a.entries + b.entries))
    return scalar_rows(spectral_norm(a.entries @ b.entries), core, tol)


def check_norm_amgm_record(a: SpdMatrix, b: SpdMatrix, tol: float = DEFAULT_TOL) -> IneqRecord:
    """||AB|| <= ||A+B||^2 / 4; the norm is the largest singular value, as AB is not symmetric."""
    _require_same_dim(a, b)
    return _records("norm_amgm", _norm_amgm(a, b, tol), classical=False)[0]


def _space_plain_two(dim, params, classical):
    return {"a": SearchVar("spd", _plain(params)), "b": SearchVar("spd", _plain(params))}


def _evaluate_norm_amgm(view, tol):
    return _norm_amgm(view.spd("a"), view.spd("b"), tol)


_register("norm_amgm", RegimeId.PLAIN, (BoundParams(m=0.5, M=4.0),), _space_plain_two,
          _evaluate_norm_amgm)

# Stable report identifiers, in campaign order.
THEOREM_IDS = tuple(THEOREMS)


@dataclass(frozen=True)
class ConstantRow:
    """Classical constant, its refined counterpart, and the shrink factor."""

    name: str
    classical: float
    refined: float
    argument: float
    power: int
    improvement_ratio: float


@dataclass(frozen=True)
class ConstantsTable:
    params: BoundParams
    log_base: str
    rows: tuple[ConstantRow, ...]

    def row(self, name: str) -> ConstantRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def refinement_constants(params: BoundParams) -> ConstantsTable:
    """All classical constants with their refined counterparts.

    Requires the sandwich ordering m <= m' <= M' <= M so every family's
    argument is well defined.
    """
    require_feasible(RegimeId.SANDWICH, params)
    rows = []
    for name, (_, argument, power) in _FAMILIES.items():
        classical, kappa_pow = _refined(name, params)
        rows.append(ConstantRow(
            name=name,
            classical=classical,
            refined=classical / kappa_pow,
            argument=argument(params),
            power=power,
            improvement_ratio=1.0 / kappa_pow,
        ))
    return ConstantsTable(params=params, log_base=LOG_BASE_NOTE, rows=tuple(rows))
