"""The per-instance checkers: the reference the package's stacked evaluators must match.

The package evaluates every theorem on stacked arrays, one row per
instance. This module keeps the code that evaluated one instance at a
time, through spd, means_maps and the scalar record builders: the
per-instance checkers, InstanceView (a search state's own probes under
the identity map) and DrawView (a campaign draw's random and
eigenvector probes under a map drawn from the catalog). The campaign
and search tests compare the package against it bit for bit.

Unlike ``oracles``, it uses the package's matrix algebra, its families
of constants and its theorem spaces; what it replaces is the stacking.
It also keeps its own per-instance draw rules (first_values and the
unit vector, orthonormal pair and congruence family samplers), as they
were before the package wrote each rule once on stacked rows, so that
draw_views rebuilds a campaign's draws without the package's rules.
"""

import math
from functools import partial

import numpy as np

from opineq import (
    LIN_VARIANTS,
    WIELANDT_VARIANTS,
    BoundParams,
    InfeasibleRegime,
    IneqRecord,
    IsometryPair,
    NotPositiveDefinite,
    PositiveMapSpec,
    RegimeId,
    SpdMatrix,
    apply_map,
    arithmetic_mean,
    compression_map,
    congruence_sum_map,
    geometric_mean,
    haar_orthogonal,
    identity_map,
    make_spd,
    pinching_map,
    regime_window,
    require_feasible,
    trace_normalize_map,
)
from opineq import campaign, samplers, stacked
from opineq.inequalities import (
    _DEGENERATE_ATOL,
    _REGIME_TOL,
    _draw_states,
    _refined,
    refinement_factor,
)
from opineq.spd import (
    DEFAULT_TOL,
    CheckVerdict,
    SpectralInterval,
    loewner_leq,
    loewner_ratio,
    operator_norm,
    scalar_leq,
    spectral_norm,
    symmetrize,
)


def _degenerate_ratio(verdict: CheckVerdict) -> float:
    """The ratio when the right side is exactly 0: 1 if the left vanishes too."""
    return 1.0 if verdict.holds else math.inf


def _scalar_record(theorem_id: str, lhs: float, core: float, tol: float, c: float = 1.0,
                   kappa_pow: float | None = None, detail: str = "", extras=None,
                   **leq) -> IneqRecord:
    """lhs <= (c / kappa_pow) core; the classical check (c core) only when refined.

    ``leq`` goes to both scalar_leq calls (``scale``, ``atol``).
    """
    refined = c if kappa_pow is None else c / kappa_pow
    rhs = refined * core
    verdict = scalar_leq(lhs, rhs, tol, **leq)
    classical = None if kappa_pow is None else scalar_leq(lhs, c * core, tol, **leq)
    return IneqRecord(
        theorem_id=theorem_id,
        lhs_value=lhs,
        rhs_value=rhs,
        ratio=lhs / rhs if rhs != 0.0 else _degenerate_ratio(verdict),
        verdict=verdict,
        classical_verdict=classical,
        classical_rhs_scale=c,
        refined_rhs_scale=refined,
        improvement_ratio=1.0 if kappa_pow is None else 1.0 / kappa_pow,
        detail=detail,
        extras=extras or {},
    )


def _loewner_record(theorem_id: str, lhs, core: SpdMatrix, tol: float, c: float = 1.0,
                    kappa_pow: float | None = None, extras=None, **leq) -> IneqRecord:
    """L <= (c / kappa_pow) CORE; the classical check (c CORE) only when refined.

    ``lhs`` is an SpdMatrix or a symmetric array; ``leq`` goes to both
    loewner_leq calls (``atol``).
    """
    refined = c if kappa_pow is None else c / kappa_pow
    verdict = loewner_leq(lhs, refined * core.entries, tol, **leq)
    classical = None if kappa_pow is None else loewner_leq(lhs, c * core.entries, tol, **leq)
    top = operator_norm(lhs)
    rhs = refined * operator_norm(core)
    return IneqRecord(
        theorem_id=theorem_id,
        lhs_value=top,
        rhs_value=rhs,
        # The ratio to refined * CORE, as the ratio to CORE over the constant.
        ratio=(loewner_ratio(lhs, core) / refined if refined != 0.0
               else _degenerate_ratio(verdict)),
        verdict=verdict,
        classical_verdict=classical,
        classical_rhs_scale=c,
        refined_rhs_scale=refined,
        improvement_ratio=1.0 if kappa_pow is None else 1.0 / kappa_pow,
        extras=extras or {},
    )


def _identity_record(theorem_id: str, lhs, tol: float, c: float,
                     kappa_pow: float | None = None, classical_lhs=None, detail: str = "",
                     extras=None) -> IneqRecord:
    """L <= (c / kappa_pow) I, with classical_lhs (default L) <= c I as the classical check.

    When neither kappa_pow nor classical_lhs is given the two checks are
    the same, and the refined verdict serves as the classical one.
    """
    refined = c if kappa_pow is None else c / kappa_pow
    eye = np.eye(lhs.dim if isinstance(lhs, SpdMatrix) else lhs.shape[0])
    verdict = loewner_leq(lhs, refined * eye, tol)
    if kappa_pow is None and classical_lhs is None:
        classical = verdict
    else:
        classical = loewner_leq(lhs if classical_lhs is None else classical_lhs, c * eye, tol)
    top = operator_norm(lhs)
    return IneqRecord(
        theorem_id=theorem_id,
        lhs_value=top,
        rhs_value=refined,
        ratio=top / refined if refined != 0.0 else _degenerate_ratio(verdict),
        verdict=verdict,
        classical_verdict=classical,
        classical_rhs_scale=c,
        refined_rhs_scale=refined,
        improvement_ratio=1.0 if kappa_pow is None else 1.0 / kappa_pow,
        detail=detail,
        extras=extras or {},
    )


def _require_unit(x: np.ndarray):
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise ValueError(f"x must be a unit vector, got norm {np.linalg.norm(x)!r}")


def _require_spectrum(a: SpdMatrix, window: SpectralInterval, label: str):
    vals = a.eigenvalues
    lo_ok = vals[0] >= window.lo * (1.0 - _REGIME_TOL) - 1e-14
    hi_ok = vals[-1] <= window.hi * (1.0 + _REGIME_TOL) + 1e-14
    if not (lo_ok and hi_ok):
        raise InfeasibleRegime(
            f"{label} spectrum [{vals[0]:.8g}, {vals[-1]:.8g}] "
            f"outside window [{window.lo:.8g}, {window.hi:.8g}]"
        )


def _require_shifted(a: SpdMatrix, b: SpdMatrix, params: BoundParams):
    require_feasible(RegimeId.SHIFTED, params)
    _require_spectrum(a, regime_window(RegimeId.SHIFTED, params), "A")
    gap = float(np.linalg.eigvalsh(symmetrize(b.entries - params.m_prime * a.entries))[0])
    if gap < -_REGIME_TOL * operator_norm(b):
        raise InfeasibleRegime(f"shifted needs m'A <= B: min eig of B - m'A is {gap:.3e}")
    if b.eigenvalues[-1] > params.M * (1.0 + _REGIME_TOL):
        raise InfeasibleRegime(
            f"shifted needs B <= MI: lambda_max(B) = {b.eigenvalues[-1]:.8g} > {params.M}"
        )


def _require_sandwich(a: SpdMatrix, b: SpdMatrix, params: BoundParams):
    require_feasible(RegimeId.SANDWICH, params)
    _require_spectrum(a, SpectralInterval(params.m, params.m_prime), "A")
    _require_spectrum(b, SpectralInterval(params.M_prime, params.M), "B")


class InstanceView:
    """What a TheoremSpec's evaluate reads of one instance state.

    By default the state's own variables are the probes, as a search
    wants: unit_vectors gives the named vector, orthonormal_pairs the
    first two columns of the named frame, and map the identity. A
    campaign's view overrides these three. ``validate`` asks the
    checkers to verify the hypotheses.
    """

    __slots__ = ("_memo", "dim", "classical", "validate", "params", "spectra", "frames",
                 "vectors", "scalars")

    def __init__(self, state: dict, dim: int, classical: bool = False, validate: bool = False):
        self._memo = {}
        self.dim = dim
        self.classical = classical
        self.validate = validate
        self.params = state["params"]
        self.spectra = state["spectra"]
        self.frames = state["frames"]
        self.vectors = state["vectors"]
        self.scalars = state["scalars"]

    def spd(self, name: str) -> SpdMatrix:
        """The matrix with spectrum ``name`` on frame ``name``."""
        vals, frame = self.spectra[name], self.frames[name]
        return self.memo(name, (vals, frame), lambda: SpdMatrix.from_eigh(vals, frame))

    def memo(self, key: str, deps: tuple, build):
        """build(), kept in the state's memo while ``deps`` are the same objects.

        That is enough because no array is written after it joins a state.
        """
        hit = self._memo.get(key)
        if hit is not None and all(old is new for old, new in zip(hit[0], deps)):
            return hit[1]
        value = build()
        self._memo[key] = (deps, value)
        return value

    def unit_vectors(self, name: str, a: SpdMatrix) -> list:
        """The unit vectors to check against A."""
        return [self.vectors[name]]

    def orthonormal_pairs(self, name: str, a: SpdMatrix) -> list:
        """The orthonormal pairs (x, y) to check against A."""
        frame = self.frames[name]
        return [(frame[:, 0], frame[:, 1])]

    def map(self, n: int) -> PositiveMapSpec:
        """The positive unital map on n x n matrices to check under."""
        return identity_map(n)


def _shifted_pair(view):
    """The shifted pair A, B = (1-t) m' A + t M I a view holds."""
    a = view.spd("a")
    t, params = view.scalars["t"], view.params
    b = view.memo("shifted_b", (a, t, params), lambda: SpdMatrix.from_eigh(
        (1.0 - t) * params.m_prime * a.eigenvalues + t * params.M, a.eigenvectors))
    return a, b


def scalar_refined_amgm(a: float, b: float, tol: float = DEFAULT_TOL) -> IneqRecord:
    """(1 + (ln b - ln a)^2 / 8) sqrt(ab) <= (a + b) / 2 for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"need positive scalars, got a = {a}, b = {b}")
    kappa = refinement_factor(b / a)
    mean_geo = math.sqrt(a * b)
    lhs = kappa * mean_geo
    rhs = 0.5 * (a + b)
    verdict = scalar_leq(lhs, rhs, tol)
    classical = scalar_leq(mean_geo, rhs, tol)
    return IneqRecord(
        theorem_id="scalar_amgm",
        lhs_value=lhs,
        rhs_value=rhs,
        ratio=lhs / rhs,
        verdict=verdict,
        classical_verdict=classical,
        classical_rhs_scale=1.0,
        refined_rhs_scale=1.0 / kappa,
        improvement_ratio=1.0 / kappa,
    )


def _eval_scalar_amgm(view, tol):
    return [scalar_refined_amgm(float(view.spectra["a"][0]), float(view.spectra["b"][0]), tol)]


def check_lemma_refined_amgm(a: SpdMatrix, b: SpdMatrix, m: float,
                             tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """(1 + (ln m)^2 / 8) A#B <= (A+B)/2 under mA <= B with 1 < m."""
    if validate:
        if m <= 1.0:
            raise InfeasibleRegime(f"relative needs 1 < m: m = {m}")
        inv_root = a.inv_sqrt().entries
        rel = np.linalg.eigvalsh(symmetrize(inv_root @ b.entries @ inv_root))
        if rel[0] < m * (1.0 - _REGIME_TOL):
            raise InfeasibleRegime(
                f"relative needs mA <= B: min relative eigenvalue {rel[0]:.8g} < m = {m}"
            )
    kappa = refinement_factor(m)
    mean_geo = geometric_mean(a, b)
    rhs = arithmetic_mean(a, b)
    verdict = loewner_leq(kappa * mean_geo.entries, rhs, tol)
    classical = loewner_leq(mean_geo, rhs, tol)
    return IneqRecord(
        theorem_id="lemma_amgm",
        lhs_value=kappa * operator_norm(mean_geo),
        rhs_value=operator_norm(rhs),
        ratio=kappa * loewner_ratio(mean_geo.entries, rhs),
        verdict=verdict,
        classical_verdict=classical,
        classical_rhs_scale=1.0,
        refined_rhs_scale=1.0 / kappa,
        improvement_ratio=1.0 / kappa,
    )


def _eval_lemma_amgm(view, tol):
    """B = A^{1/2} C A^{1/2} with C on [m, M] keeps mA <= B <= MA."""
    a = view.spd("a")
    root = a.sqrt().entries
    b = make_spd(root @ view.spd("c").entries @ root)
    return [check_lemma_refined_amgm(a, b, view.params.m, tol, view.validate)]


def check_kantorovich_refined(a: SpdMatrix, x: np.ndarray, m: float, m_prime: float,
                              M: float, tol: float = DEFAULT_TOL,
                              validate: bool = True) -> IneqRecord:
    """<Ax,x><A^{-1}x,x> <= (M+m)^2 / (4Mm kappa(m')^2).

    Regime: mI <= m'A <= A^{-1} <= MI with m' > 1; the classical
    Kantorovich constant is the same bound without the divisor.
    """
    params = BoundParams(m=m, M=M, m_prime=m_prime)
    if validate:
        _require_spectrum(a, regime_window(RegimeId.SELF_INVERSE_LOW, params), "A")
        _require_unit(x)
    lhs = a.quad_form(x) * a.inv().quad_form(x)
    return _scalar_record("kantorovich", lhs, 1.0, tol, *_refined("kantorovich", params))


def _eval_kantorovich(view, tol):
    p, a = view.params, view.spd("a")
    return [check_kantorovich_refined(a, x, p.m, p.m_prime, p.M, tol, view.validate)
            for x in view.unit_vectors("x", a)]


def check_kantorovich_product_refined(a: SpdMatrix, b: SpdMatrix, x: np.ndarray,
                                      params: BoundParams, tol: float = DEFAULT_TOL,
                                      validate: bool = True,
                                      mean_ab: SpdMatrix | None = None) -> IneqRecord:
    """<Ax,x><Bx,x> <= [(M+m)^2 / (4Mm kappa(m')^2)] <(A#B)x,x>^2.

    Squared right-hand side; the classical constant drops the kappa^2
    divisor. Regime: mI <= m'A <= B <= MI with m' > 1.
    """
    if validate:
        _require_shifted(a, b, params)
        _require_unit(x)
    if mean_ab is None:
        mean_ab = geometric_mean(a, b)
    lhs = a.quad_form(x) * b.quad_form(x)
    core = mean_ab.quad_form(x) ** 2
    return _scalar_record("kantorovich_product", lhs, core, tol,
                          *_refined("kantorovich", params))


def _eval_kantorovich_product(view, tol):
    a, b = (view.spd("a"), view.spd("b")) if view.classical else _shifted_pair(view)
    # Every probe of the pair shares one geometric mean.
    mean_ab = view.memo("mean_ab", (a, b), lambda: geometric_mean(a, b))
    return [check_kantorovich_product_refined(a, b, x, view.params, tol, view.validate, mean_ab)
            for x in view.unit_vectors("x", a)]


def check_holder_mccarthy_refined(a: SpdMatrix, x: np.ndarray, params: BoundParams,
                                  tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """<A^2 x,x> <= [(M+m)^2 / (4Mm kappa(m')^2)] <Ax,x>^2 on the low window."""
    if validate:
        _require_spectrum(a, regime_window(RegimeId.SELF_INVERSE_LOW, params), "A")
        _require_unit(x)
    ax = a.entries @ x
    lhs = float(ax @ ax)
    return _scalar_record("holder_mccarthy", lhs, a.quad_form(x) ** 2, tol,
                          *_refined("kantorovich", params))


def _eval_holder_mccarthy(view, tol):
    a = view.spd("a")
    return [check_holder_mccarthy_refined(a, x, view.params, tol, view.validate)
            for x in view.unit_vectors("x", a)]


def check_square_order_refined(a: SpdMatrix, b: SpdMatrix, params: BoundParams,
                               tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """A^2 <= [(M+m)^2 / (4Mm kappa(m')^2)] B^2 when A <= B and A sits on the low window."""
    if validate:
        _require_spectrum(a, regime_window(RegimeId.SELF_INVERSE_LOW, params), "A")
        order = loewner_leq(a, b, _REGIME_TOL)
        if not order.holds:
            raise InfeasibleRegime(
                f"square_order needs A <= B: min eig of B - A is {order.min_gap_eig:.3e}")
    return _loewner_record("square_order", a.square(), b.square(), tol,
                           *_refined("kantorovich", params))


def _eval_square_order(view, tol):
    """B = A + eps * bump keeps A <= B."""
    a = view.spd("a")
    b = make_spd(a.entries + view.scalars["eps"] * view.spd("bump").entries)
    return [check_square_order_refined(a, b, view.params, tol, view.validate)]


def check_polya_szego_refined(map_spec: PositiveMapSpec, a: SpdMatrix, b: SpdMatrix,
                              params: BoundParams, tol: float = DEFAULT_TOL,
                              validate: bool = True) -> IneqRecord:
    """Phi(A)#Phi(B) <= [(M+m) / (2 sqrt(Mm) kappa(m'))] Phi(A#B) on the shifted regime."""
    if validate:
        _require_shifted(a, b, params)
    mapped_a = make_spd(apply_map(map_spec, a.entries))
    mapped_b = make_spd(apply_map(map_spec, b.entries))
    lhs = geometric_mean(mapped_a, mapped_b)
    target = make_spd(apply_map(map_spec, geometric_mean(a, b).entries))
    return _loewner_record("polya_szego", lhs, target, tol, *_refined("polya_szego", params))


def _eval_polya_szego(view, tol):
    a, b = _shifted_pair(view)
    return [check_polya_szego_refined(view.map(view.dim), a, b, view.params, tol,
                                      view.validate)]


def check_isometry_family_bound(family, a: SpdMatrix, params: BoundParams,
                                tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """(sum U^T A U) # (sum U^T A^{-1} U) <= [(M+m) / (2 sqrt(Mm) kappa(m'))] I.

    The family must satisfy sum U_j^T U_j = I; A sits on the low window.
    """
    spec = congruence_sum_map(family)
    if validate:
        _require_spectrum(a, regime_window(RegimeId.SELF_INVERSE_LOW, params), "A")
    mapped = make_spd(apply_map(spec, a.entries))
    mapped_inv = make_spd(apply_map(spec, a.inv().entries))
    lhs = geometric_mean(mapped, mapped_inv)
    return _identity_record("isometry_family", lhs, tol, *_refined("polya_szego", params))


def _eval_isometry_family(view, tol):
    """The family (sqrt(w) Q, sqrt(1-w) Q) sums to the identity."""
    w = np.clip(view.spectra["w"], 0.01, 0.99)
    q = view.frames["q"]
    family = (np.sqrt(w)[:, None] * q, np.sqrt(1.0 - w)[:, None] * q)
    return [check_isometry_family_bound(family, view.spd("a"), view.params, tol, view.validate)]


def check_lin_refined_squared(map_spec: PositiveMapSpec, a: SpdMatrix, b: SpdMatrix,
                              params: BoundParams, variant: str,
                              tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """Phi^2((A+B)/2) <= [K^2(h) / kappa(M'/m')^2] T^2 on the sandwich regime.

    variant "mapped_mean" takes T = Phi(A#B); "mean_of_maps" takes
    T = Phi(A)#Phi(B). The classical constant is Lin's K^2(h).
    """
    if variant not in LIN_VARIANTS:
        raise ValueError(f"variant must be one of {LIN_VARIANTS}, got {variant!r}")
    if validate:
        _require_sandwich(a, b, params)
    mapped_half = make_spd(apply_map(map_spec, arithmetic_mean(a, b).entries))
    if variant == "mapped_mean":
        target = make_spd(apply_map(map_spec, geometric_mean(a, b).entries))
        theorem_id = "lin_squared_mapped"
    else:
        target = geometric_mean(make_spd(apply_map(map_spec, a.entries)),
                                make_spd(apply_map(map_spec, b.entries)))
        theorem_id = "lin_squared_means"
    return _loewner_record(theorem_id, mapped_half.square(), target.square(), tol,
                           *_refined("lin_squared", params))


def _eval_lin_squared(variant, view, tol):
    return [check_lin_refined_squared(view.map(view.dim), view.spd("a"), view.spd("b"),
                                      view.params, variant, tol, view.validate)]


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
    if validate:
        _require_sandwich(a, b, params)
    m, M = params.m, params.M
    mm = m * M
    # lin_norm divides by kappa itself (power 1), the factor every link uses.
    norm_bound, kappa = _refined("lin_norm", params)
    a_inv = a.inv().entries
    b_inv = b.inv().entries
    half = 0.5 * (a.entries + b.entries)
    mean_geo = geometric_mean(a, b)
    geo_inv = mean_geo.inv().entries
    mapped_half = symmetrize(apply_map(map_spec, half))
    mapped_geo = make_spd(apply_map(map_spec, mean_geo.entries))
    mapped_geo_inv = symmetrize(apply_map(map_spec, geo_inv))

    def loewner_link(name, lhs, bound, classical_lhs=None, extras=None):
        return _identity_record("lin_chain", lhs, tol, bound, classical_lhs=classical_lhs,
                                detail=name, extras=extras)

    records = [
        loewner_link("half_a", 0.5 * a.entries + 0.5 * mm * a_inv, 0.5 * (M + m)),
        loewner_link("half_b", 0.5 * b.entries + 0.5 * mm * b_inv, 0.5 * (M + m)),
        loewner_link("summed", half + 0.5 * mm * (a_inv + b_inv), M + m),
        loewner_link("geo_inverse", half + mm * kappa * geo_inv, M + m,
                     classical_lhs=half + mm * geo_inv, extras={"kappa": kappa}),
        loewner_link("mapped_inverse_mean", mapped_half + mm * kappa * mapped_geo_inv, M + m,
                     classical_lhs=mapped_half + mm * mapped_geo_inv, extras={"kappa": kappa}),
        loewner_link("mapped_mean_inverse", mapped_half + mm * kappa * mapped_geo.inv().entries,
                     M + m, classical_lhs=mapped_half + mm * mapped_geo.inv().entries,
                     extras={"kappa": kappa}),
    ]

    norm_lhs = spectral_norm(mapped_half @ mapped_geo.inv().entries)
    records.append(_scalar_record("lin_chain", norm_lhs, 1.0, tol, norm_bound, kappa,
                                  detail="norm_product"))
    return records


def _eval_lin_chain(view, tol):
    return check_lin_chain(view.map(view.dim), view.spd("a"), view.spd("b"), view.params, tol,
                           view.validate)


def check_wielandt_scalar(a: SpdMatrix, x: np.ndarray, y: np.ndarray, m: float, M: float,
                          tol: float = DEFAULT_TOL, validate: bool = True) -> IneqRecord:
    """<x,Ay>^2 <= ((M-m)/(M+m))^2 <x,Ax><y,Ay> for orthonormal x, y.

    Tolerance is scaled by the product <x,Ax><y,Ay> because the right
    side vanishes identically when M = m.
    """
    if validate:
        _require_spectrum(a, SpectralInterval(m, M), "A")
        _require_unit(x)
        _require_unit(y)
    if abs(float(x @ y)) > 1e-10:
        raise ValueError(f"x and y must be orthogonal, got <x,y> = {float(x @ y):.3e}")
    cross = float(x @ a.entries @ y)
    lhs = cross ** 2
    product = a.quad_form(x) * a.quad_form(y)
    return _scalar_record("wielandt_scalar", lhs, product, tol, ((M - m) / (M + m)) ** 2,
                          scale=product)


def _eval_wielandt_scalar(view, tol):
    p, a = view.params, view.spd("a")
    return [check_wielandt_scalar(a, x, y, p.m, p.M, tol, view.validate)
            for x, y in view.orthonormal_pairs("pair", a)]


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
    m, M = params.m, params.M
    if validate:
        if variant == "refined":
            _require_spectrum(a, regime_window(RegimeId.SELF_INVERSE_HIGH, params), "A")
        else:
            _require_spectrum(a, SpectralInterval(m, M), "A")
    x, y = pair.x, pair.y
    mapped_cross = apply_map(map_spec, x.T @ a.entries @ y)
    mapped_cross_t = apply_map(map_spec, y.T @ a.entries @ x)
    mapped_yy = make_spd(apply_map(map_spec, y.T @ a.entries @ y))
    mapped_xx = make_spd(apply_map(map_spec, x.T @ a.entries @ x))
    if variant == "refined":
        _require_spectrum(mapped_xx, SpectralInterval(m, M), "Phi(X^T A X)")
    triple = symmetrize(mapped_cross @ mapped_yy.inv().entries @ mapped_cross_t)
    conjecture_scale = ((M - m) / (M + m)) ** 2

    if variant == "bhatia_davis":
        floor = _DEGENERATE_ATOL * operator_norm(mapped_xx)
        return _loewner_record("wielandt_bhatia_davis", triple, mapped_xx, tol,
                               conjecture_scale, atol=floor,
                               extras={"conjecture_scale": conjecture_scale})

    norm_lhs = spectral_norm(triple @ mapped_xx.inv().entries)
    gumus, kappa_pow = _refined("wielandt", params)
    return _scalar_record(f"wielandt_{variant}", norm_lhs, 1.0, tol, gumus,
                          kappa_pow if variant == "refined" else None, atol=_DEGENERATE_ATOL,
                          extras={"conjecture_scale": conjecture_scale,
                                  "within_conjecture": bool(norm_lhs <= conjecture_scale)})


def _eval_wielandt_operator(variant, view, tol):
    """X and Y are the first and last dim // 2 columns of one frame."""
    r = view.dim // 2
    f = view.frames["pair"]
    pair = IsometryPair(f[:, :r].copy(), f[:, view.dim - r:].copy())
    return [check_wielandt_operator(view.map(r), view.spd("a"), pair, view.params, variant,
                                    tol, view.validate)]


def check_choi_record(map_spec: PositiveMapSpec, t: SpdMatrix,
                      tol: float = DEFAULT_TOL) -> IneqRecord:
    """(Phi(T))^{-1} <= Phi(T^{-1}) for a unital positive map Phi and T > 0."""
    mapped = make_spd(apply_map(map_spec, t.entries))
    mapped_inv_arg = make_spd(apply_map(map_spec, t.inv().entries))
    return _loewner_record("choi", mapped.inv(), mapped_inv_arg, tol)


def _eval_choi(view, tol):
    return [check_choi_record(view.map(view.dim), view.spd("a"), tol)]


def check_norm_amgm_record(a: SpdMatrix, b: SpdMatrix, tol: float = DEFAULT_TOL) -> IneqRecord:
    """||AB|| <= ||A+B||^2 / 4; the norm is the largest singular value, as AB is not symmetric."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    lhs = spectral_norm(a.entries @ b.entries)
    return _scalar_record("norm_amgm", lhs, 0.25 * spectral_norm(a.entries + b.entries) ** 2,
                          tol)


def _eval_norm_amgm(view, tol):
    return [check_norm_amgm_record(view.spd("a"), view.spd("b"), tol)]


# Each theorem's per-instance evaluate, by id.
EVALUATE = {
    "scalar_amgm": _eval_scalar_amgm,
    "lemma_amgm": _eval_lemma_amgm,
    "kantorovich": _eval_kantorovich,
    "kantorovich_product": _eval_kantorovich_product,
    "holder_mccarthy": _eval_holder_mccarthy,
    "square_order": _eval_square_order,
    "polya_szego": _eval_polya_szego,
    "isometry_family": _eval_isometry_family,
    "lin_squared_mapped": partial(_eval_lin_squared, "mapped_mean"),
    "lin_squared_means": partial(_eval_lin_squared, "mean_of_maps"),
    "lin_chain": _eval_lin_chain,
    "wielandt_scalar": _eval_wielandt_scalar,
    "wielandt_bhatia_davis": partial(_eval_wielandt_operator, "bhatia_davis"),
    "wielandt_gumus": partial(_eval_wielandt_operator, "gumus"),
    "wielandt_refined": partial(_eval_wielandt_operator, "refined"),
    "choi": _eval_choi,
    "norm_amgm": _eval_norm_amgm,
}


def lone_ratio(spec, state, dim, classical, tol) -> float:
    """A search state's ratio, one instance at a time: -inf where it is not SPD or in regime."""
    try:
        records = EVALUATE[spec.theorem_id](InstanceView(state, dim, classical), tol)
    except (InfeasibleRegime, NotPositiveDefinite):
        return -math.inf
    return max(r.ratio * r.improvement_ratio if classical else r.ratio for r in records)


def search_block(states, dim, classical=False, maps=None):
    """Search states, stacked in order, as the rows of one view, under ``maps`` if given.

    The rows share one params object where every state has the same.
    """
    def rows(group):
        return {name: np.stack([state[group][name] for state in states])
                for name in states[0][group]}
    params = tuple(state["params"] for state in states)
    return stacked.StackedView(params[0] if all(p is params[0] for p in params) else params,
                               dim, rows("spectra"), rows("frames"), rows("vectors"),
                               {name: np.array([state["scalars"][name] for state in states])
                                for name in states[0]["scalars"]}, classical, maps=maps)


def draw_view(space: dict, params: BoundParams, dim: int, rng) -> stacked.StackedView:
    """A new one-row view of ``space``, every variable drawn from rng in space order."""
    return stacked.StackedView(params, dim, *_draw_states(space, dim, 1, lambda key: rng))


def state_of(view: stacked.StackedView) -> dict:
    """A one-row view's state as this module's state dict: arrays, and scalars as floats."""
    state = {group: {name: value[0] for name, value in getattr(view, group).items()}
             for group in ("spectra", "frames", "vectors", "scalars")}
    state["scalars"] = {name: float(value) for name, value in state["scalars"].items()}
    return {"params": view.params, **state}


def snapshot(state: dict) -> dict:
    """A state's values as JSON lists, in the package's snapshot format."""
    return {
        "params": state["params"].as_dict(),
        "spectra": {k: v.tolist() for k, v in state["spectra"].items()},
        "frames": {k: v.tolist() for k, v in state["frames"].items()},
        "vectors": {k: v.tolist() for k, v in state["vectors"].items()},
        "scalars": dict(state["scalars"]),
    }


# The per-instance draw rules. The floors are read from ``opineq.samplers``
# at each call, so a test that patches them there patches these too.


def _window_spectrum(interval: SpectralInterval, size: int, rng) -> np.ndarray:
    """size sorted uniform draws on [lo, hi]; from size 2 on, the ends are lo and hi."""
    vals = np.sort(rng.uniform(interval.lo, interval.hi, size=size))
    if size >= 2:
        vals[0] = interval.lo
        vals[-1] = interval.hi
    return vals


def sample_unit_vector(dim: int, rng) -> np.ndarray:
    """Gaussian direction normalized to unit length."""
    while True:
        x = rng.standard_normal(dim)
        norm = np.linalg.norm(x)
        if norm > samplers._UNIT_FLOOR:
            return x / norm


def sample_orthonormal_pair(dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal vectors (x, y), Gram-Schmidt on Gaussian draws."""
    while True:
        x = sample_unit_vector(dim, rng)
        y = rng.standard_normal(dim)
        y -= (x @ y) * x
        norm = np.linalg.norm(y)
        if norm > samplers._PAIR_FLOOR:
            return x, y / norm


def sample_congruence_family(n: int, k: int, rng) -> tuple[np.ndarray, ...]:
    """Matrices U_j = D_j Q with sum_j U_j^T U_j = I, Q Haar orthogonal."""
    q = haar_orthogonal(n, rng)
    weights = rng.uniform(0.2, 1.0, size=(k, n))
    weights /= np.sqrt((weights ** 2).sum(axis=0))
    return tuple(weights[j][:, None] * q for j in range(k))


def first_values(space: dict, params: BoundParams, dim: int, rng) -> dict:
    """A new instance state with every variable's first value, drawn in space order."""
    state = {"params": params, "spectra": {}, "frames": {}, "vectors": {}, "scalars": {}}
    for name, var in space.items():
        size = var.size or dim
        if var.kind == "spd":
            state["spectra"][name] = _window_spectrum(var.window, size, rng)
            state["frames"][name] = haar_orthogonal(size, rng) if size >= 2 else np.eye(size)
        elif var.kind == "vector":
            state["vectors"][name] = sample_unit_vector(dim, rng)
        elif var.kind == "frame":
            state["frames"][name] = haar_orthogonal(dim, rng)
        else:
            lo, hi = var.start or (var.window.lo, var.window.hi)
            if var.kind == "weights":
                state["spectra"][name] = rng.uniform(lo, hi, size=size)
            else:
                state["scalars"][name] = float(rng.uniform(lo, hi))
    return state


class Replay:
    """A generator stand-in: it hands given draws, in order, to a per-instance sampler."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def _next(self, size):
        draw = self._draws.pop(0)
        assert np.shape(draw) == np.empty(size or ()).shape, (np.shape(draw), size)
        return draw

    def standard_normal(self, size=None):
        return self._next(size)

    def uniform(self, low, high, size=None):
        return self._next(size)

    def done(self) -> bool:
        return not self._draws


def _pinching_blocks(dim: int) -> tuple:
    return (tuple(range(dim // 2)), tuple(range(dim // 2, dim)))


def _row_map(n: int, group: int, z: np.ndarray, w: np.ndarray) -> tuple:
    """One draw's map from the catalog, built from its drawn fields by the per-instance samplers.

    With it comes its instance ``map``, written from the data its
    constructor took: the kind, and the isometry, family or blocks; None
    for the identity.
    """
    name, k = campaign._MAP_GROUPS[group]
    if name == "identity":
        return identity_map(n), None
    if name == "trace_normalize":
        return trace_normalize_map(n), {"kind": name}
    if name == "compression":
        v = haar_orthogonal(n, Replay(z))[:, : n - 1]
        return compression_map(v), {"kind": name, "isometry": v.tolist()}
    if name == "congruence_sum":
        family = sample_congruence_family(n, k, Replay(z, w[:k]))
        return congruence_sum_map(family), {"kind": name, "family": [u.tolist() for u in family]}
    blocks = _pinching_blocks(n)
    return pinching_map(blocks), {"kind": name, "blocks": [list(block) for block in blocks]}


class DrawView(InstanceView):
    """One campaign draw: many probes per instance, under a map drawn from the catalog.

    It takes the draw's random probes and its map; the hypotheses are
    checked, as the campaign checks them on every draw.
    """

    __slots__ = ("_state", "_units", "_pairs", "_phi", "_payload", "_probes", "_map")

    def __init__(self, state: dict, dim: int, units: list, pairs: list, phi: tuple):
        super().__init__(state, dim, validate=True)
        self._state = state
        self._units = units
        self._pairs = pairs
        self._phi, self._payload = phi
        self._probes = ()
        self._map = None

    def unit_vectors(self, name, a):
        """The random unit vectors, then A's eigenvectors, where the extremes live."""
        xs = [*self._units, *a.eigenvectors.T.copy()]
        self._probes = [(x,) for x in xs]
        return xs

    def orthonormal_pairs(self, name, a):
        """The random pairs, then (v_i + v_j, v_i - v_j)/sqrt2 over eigenvector pairs.

        The pairs (i, j) are (0, n-1), where the bound is attained, and (k, k+1).
        """
        pairs = list(self._pairs)
        vecs = a.eigenvectors
        for i, j in sorted({(0, self.dim - 1)} | {(k, k + 1) for k in range(self.dim - 1)}):
            pairs.append(((vecs[:, i] + vecs[:, j]) / math.sqrt(2.0),
                          (vecs[:, i] - vecs[:, j]) / math.sqrt(2.0)))
        self._probes = pairs
        return pairs

    def map(self, n):
        assert self._phi.in_dim == n, (self._phi.in_dim, n)
        self._map = self._phi
        return self._map

    def instance(self, item: int) -> dict:
        """The state, the probe that scored record ``item`` and the map, as JSON values.

        As the package's instances, it gives the dim and the classical flag,
        and no map where the map is the identity.
        """
        out = {"dim": self.dim, "classical": self.classical, **snapshot(self._state)}
        if self._probes:
            out["probe"] = dict(zip("xy", (v.tolist() for v in self._probes[item])))
        if self._map is not None and self._payload is not None:
            out["map"] = self._payload
        return out


def _kept(sample, dim: int, g: np.ndarray, redraws, block_ndim: int) -> np.ndarray:
    """g's Gaussian blocks, its last block_ndim axes, as ``sample`` keeps them.

    A sampler that rejects a block asks for more draws than the block
    holds; such a block is drawn again whole from ``redraws``, in order.
    The sampler gets a copy, as sample_orthonormal_pair writes to its y.
    """
    g = g.copy()
    for item in np.ndindex(g.shape[:g.ndim - block_ndim]):
        while True:
            try:
                sample(dim, Replay(*g[item].reshape(-1, dim).copy()))
                break
            except IndexError:
                g[item] = redraws.standard_normal(g[item].shape)
    return g


def _state_draws(draws: campaign._Draws, count: int) -> list:
    """The next count draws' state arrays, read from the cell's generators in first_values order."""
    rng, dim, drawn = draws._rng, draws.dim, []
    for name, var in draws.space.items():
        size, first = var.size or dim, rng((name, 0))
        if var.kind == "spd":
            drawn.append(first.uniform(var.window.lo, var.window.hi, (count, size)))
            if size >= 2:
                drawn.append(rng((name, 1)).standard_normal((count, size, size)))
        elif var.kind == "vector":
            drawn.append(_kept(sample_unit_vector, dim, first.standard_normal((count, dim)),
                               rng((name, 1)), 1))
        elif var.kind == "frame":
            drawn.append(first.standard_normal((count, dim, dim)))
        else:
            lo, hi = var.start or (var.window.lo, var.window.hi)
            drawn.append(first.uniform(lo, hi, (count, size) if var.kind == "weights"
                                       else (count,)))
    return drawn


def draw_views(draws: campaign._Draws, params: BoundParams, count: int, n: int) -> list:
    """The next count draws of a campaign cell, one DrawView each, built one draw at a time.

    Each draw's slice of the arrays drawn from the cell's generators goes
    through this module's per-instance samplers: its state through
    first_values, its probes through sample_unit_vector and
    sample_orthonormal_pair, and its map, drawn for n x n matrices,
    through the catalog's constructors.
    """
    rng, dim = draws._rng, draws.dim
    drawn = _state_draws(draws, count)
    units = _kept(sample_unit_vector, dim,
                  rng("units").standard_normal((count, campaign.VECTORS_PER_INSTANCE, dim)),
                  rng("unit redraws"), 1)
    pairs = np.empty((count, 0, 2, 1))
    if dim >= 2:
        pairs = _kept(sample_orthonormal_pair, dim, rng("pairs").standard_normal(
            (count, campaign.VECTORS_PER_INSTANCE, 2, dim)), rng("pair redraws"), 2)
    maps = (campaign._map_kind(n, rng("map groups"), count),
            rng("map frames").standard_normal((count, n, n)),
            rng("map weights").uniform(0.2, 1.0, (count, 3, n)))
    views = []
    for row in range(count):
        replay = Replay(*(a[row] for a in drawn))
        state = first_values(draws.space, params, dim, replay)
        assert replay.done()
        views.append(DrawView(
            state, dim, [sample_unit_vector(dim, Replay(g)) for g in units[row]],
            [sample_orthonormal_pair(dim, Replay(*g)) for g in pairs[row]],
            _row_map(n, *(field[row] for field in maps))))
    return views
