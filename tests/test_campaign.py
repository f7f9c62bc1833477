import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

import reference
from opineq import (
    THEOREM_IDS,
    THEOREMS,
    BoundParams,
    CampaignConfig,
    MAP_KINDS,
    InfeasibleRegime,
    RegimeId,
    maximize_ratio,
    regime_feasible,
    run_campaign,
)
from opineq import campaign, samplers, stacked
from opineq.campaign import NEAR_TIGHT_REL, CellStats
from opineq.cli import cli_main
from opineq.inequalities import instance_view
from opineq.report import canonical_dumps


def test_default_grids_cover_every_theorem():
    for spec in THEOREMS.values():
        assert spec.cells, spec.theorem_id
        for cell in spec.cells:
            assert regime_feasible(spec.regime, cell) == (True, ""), spec.theorem_id


# One box per constrained regime besides the default cells.
EXTRA_BOXES = {
    RegimeId.RELATIVE: BoundParams(m=1.5, M=4.0),
    RegimeId.SHIFTED: BoundParams(m=1.0, m_prime=2.0, M=8.0),
    RegimeId.SANDWICH: BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0),
    RegimeId.SELF_INVERSE_LOW: BoundParams(m=0.5, m_prime=2.0, M=4.0),
    RegimeId.SELF_INVERSE_HIGH: BoundParams(m=0.5, m_prime=2.0, M=4.0),
}


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_first_values_satisfy_the_hypotheses(theorem_id):
    # Validating evaluation raises InfeasibleRegime on a first value outside the regime.
    spec = THEOREMS[theorem_id]
    extra = (EXTRA_BOXES[spec.regime],) if spec.regime in EXTRA_BOXES else ()
    for params in (*spec.cells, *extra):
        for dim in (*range(spec.min_dim, 5), 8):
            space = spec.space(dim, params, False)
            states = [reference.state_of(reference.draw_view(space, params, dim,
                                                             np.random.default_rng(seed)))
                      for seed in range(8)]
            view = reference.search_block(states, dim)
            view.validate = True
            assert spec.evaluate(view, 1e-8).ratio.shape[0] == 8


def test_config_validation():
    with pytest.raises(ValueError, match="unknown theorem"):
        CampaignConfig(theorem_ids=("nope",))
    with pytest.raises(ValueError, match="repeated theorem ids"):
        CampaignConfig(theorem_ids=("scalar_amgm", "choi", "scalar_amgm"))
    with pytest.raises(ValueError, match="repeated dims"):
        CampaignConfig(dims=(2, 3, 2))
    with pytest.raises(ValueError, match="grids name theorems not in theorem_ids"):
        CampaignConfig(grids={"nope": BoundParams(m=1.0, M=2.0)})
    with pytest.raises(ValueError, match="grids name theorems not in theorem_ids"):
        CampaignConfig(theorem_ids=("choi",), grids={"norm_amgm": BoundParams(m=1.0, M=2.0)})
    with pytest.raises(ValueError, match="no cells"):
        CampaignConfig(theorem_ids=("choi", "norm_amgm"), grids={"choi": ()})
    with pytest.raises(ValueError, match="samples"):
        CampaignConfig(samples=0)
    with pytest.raises(ValueError, match="dims"):
        CampaignConfig(dims=())
    with pytest.raises(ValueError, match="tol"):
        CampaignConfig(tol=-1.0)
    for samples in (True, 2.5, "3"):
        with pytest.raises(ValueError, match="samples"):
            CampaignConfig(samples=samples)
    for dims in ((2.0,), (2, True)):
        with pytest.raises(ValueError, match="dims"):
            CampaignConfig(dims=dims)
    for seed in (-1, True, 1.5, None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            CampaignConfig(seed=seed)
    assert CampaignConfig(samples=np.int64(3), dims=(np.int32(2),), seed=np.uint8(7)).seed == 7


def test_config_rejects_bool_and_non_real_tolerances():
    # A bool is an int, and a string or None fails the comparison itself.
    for tol in (True, False, np.bool_(True), "1e-8", None, 1e-8j):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            CampaignConfig(tol=tol)
    assert CampaignConfig(tol=0).tol == 0
    assert CampaignConfig(tol=np.float64(1e-6)).tol == 1e-6


def test_grid_for_accepts_single_params():
    cell = BoundParams(m=1.0, M=2.0)
    config = CampaignConfig(grids={"scalar_amgm": cell})
    assert config.grid_for("scalar_amgm") == (cell,)
    assert config.grid_for("choi") == THEOREMS["choi"].cells
    assert CampaignConfig(grids={"choi": iter([cell])}).grid_for("choi") == (cell,)


@pytest.mark.parametrize("cells", [[{"m": 1.0, "M": 2.0}], [(1.0, 2.0)], "ab"],
                         ids=["dict", "tuple", "str"])
def test_config_refuses_grid_cells_that_are_not_bound_params(cells):
    with pytest.raises(ValueError, match=r"not BoundParams for: \['choi'\]"):
        CampaignConfig(theorem_ids=("choi",), grids={"choi": cells})


def test_small_campaign_across_all_theorems_has_no_violations():
    config = CampaignConfig(dims=(2, 3), samples=6, seed=11)
    report = run_campaign(config)
    assert report.ok
    assert report.total_violations == 0
    assert not report.skipped
    assert len(report.cells) == 2 * len(THEOREM_IDS)
    for cell in report.cells:
        assert cell.classical_violations == 0
        assert cell.max_ratio <= 1.0 + config.tol
        assert cell.min_slack >= -config.tol
        assert cell.samples > 0
        assert math.isfinite(cell.mean_slack)


def test_campaign_is_deterministic_for_a_fixed_seed():
    config = CampaignConfig(theorem_ids=("kantorovich", "lin_chain"), dims=(2,),
                            samples=5, seed=3)
    first = run_campaign(config)
    second = run_campaign(config)
    for a, b in zip(first.cells, second.cells):
        assert a.max_ratio == b.max_ratio
        assert a.min_slack == b.min_slack
        assert a.mean_slack == b.mean_slack
        assert a.extremal == b.extremal


def test_seed_changes_the_draws():
    config = CampaignConfig(theorem_ids=("kantorovich",), dims=(3,), samples=5, seed=0)
    other = CampaignConfig(theorem_ids=("kantorovich",), dims=(3,), samples=5, seed=1)
    assert run_campaign(config).cells[0].max_ratio != run_campaign(other).cells[0].max_ratio


def test_lemma_cell_runs_clean():
    config = CampaignConfig(theorem_ids=("lemma_amgm",), dims=(2,), samples=10, seed=42)
    report = run_campaign(config)
    (cell,) = report.cells
    assert cell.samples == 10
    assert cell.violations == 0
    assert 0.0 < cell.max_ratio <= 1.0 + config.tol


def test_wielandt_below_min_dim_is_skipped_not_dropped():
    bounded = [spec for spec in THEOREMS.values() if spec.min_dim > 1]
    assert {spec.theorem_id for spec in bounded} >= {"wielandt_scalar", "wielandt_refined"}
    for spec in bounded:
        low, ok = spec.min_dim - 1, spec.min_dim
        config = CampaignConfig(theorem_ids=(spec.theorem_id,), dims=(low, ok), samples=3,
                                seed=0)
        report = run_campaign(config)
        assert len(report.cells) == 1 and report.cells[0].dim == ok
        (skip,) = report.skipped
        assert skip.dim == low
        assert f"dim >= {ok}" in skip.reason
        box = spec.cells[0].as_dict()
        with pytest.raises(ValueError, match=f"dim >= {ok}"):
            maximize_ratio(spec.theorem_id, box, budget=10, dim=low)


def test_infeasible_cell_is_skipped_with_reason():
    config = CampaignConfig(theorem_ids=("lemma_amgm",), dims=(2,), samples=3, seed=0,
                            grids={"lemma_amgm": BoundParams(m=0.5, M=4.0)})
    report = run_campaign(config)
    assert not report.cells
    (skip,) = report.skipped
    assert "1 < m" in skip.reason


def test_degenerate_chain_cell_sits_at_equality():
    flat = BoundParams(m=2.0, m_prime=2.0, M_prime=2.0, M=2.0)
    config = CampaignConfig(theorem_ids=("lin_chain",), dims=(2,), samples=5, seed=0,
                            grids={"lin_chain": flat})
    report = run_campaign(config)
    (cell,) = report.cells
    assert cell.violations == 0
    assert cell.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert cell.min_slack == pytest.approx(0.0, abs=1e-12)
    # every link of every draw is tight, so all count as near tight
    assert cell.near_tight == cell.samples


def test_sandwich_grid_sweep_runs_clean():
    cells = tuple(BoundParams(m=1.0, m_prime=mp, M_prime=Mp, M=4.0)
                  for mp in (1.0, 2.0) for Mp in (2.0, 3.0))
    config = CampaignConfig(
        theorem_ids=("lin_squared_mapped", "lin_squared_means", "lin_chain"),
        dims=(2,), samples=4, seed=7,
        grids={tid: cells for tid in ("lin_squared_mapped", "lin_squared_means",
                                      "lin_chain")})
    report = run_campaign(config)
    assert len(report.cells) == 3 * len(cells)
    assert report.total_violations == 0


def _replayed_ratio(theorem_id: str, instance: dict, tol: float) -> float:
    """The largest ratio of the instance's records, re-evaluated through instance_view."""
    spec = THEOREMS[theorem_id]
    rows = spec.evaluate(instance_view(instance, spec), tol)
    return max(np.ravel(rows.ratio).tolist())


def _pinched(dim: int) -> dict:
    return {"kind": "pinching", "blocks": [[i] for i in range(dim)]}


@pytest.mark.parametrize("theorem_id, dim, edit, named", [
    ("wielandt_scalar", 3, lambda i: {**i, "probe": {"x": i["probe"]["x"]}}, "'probe'"),
    ("kantorovich", 2, lambda i: {**i, "probe": {**i["probe"], "y": i["probe"]["x"]}}, "'probe'"),
    ("kantorovich", 2, lambda i: {**i, "map": {"kind": "trace_normalize"}}, "'map'"),
    ("scalar_amgm", 2, lambda i: {**i, "probe": {"x": [1.0, 0.0]}}, "'probe'"),
    ("lin_chain", 4, lambda i: {**i, "map": _pinched(2)}, "'map'"),
    ("wielandt_gumus", 4, lambda i: {**i, "map": _pinched(4)}, "'map'"),
], ids=["pair_without_y", "units_with_y", "map_of_no_map_spec", "probe_of_no_probe_spec",
        "half_map_of_full_map_spec", "full_map_of_half_map_spec"])
def test_instance_view_refuses_a_probe_or_map_its_spec_does_not_read(theorem_id, dim, edit,
                                                                    named):
    # An extremal instance edited to carry a probe or map its spec does not read
    # (or lacking one it does) is refused by name, not evaluated without it.
    config = CampaignConfig(theorem_ids=(theorem_id,), dims=(dim,), samples=3, seed=0)
    (cell,) = run_campaign(config).cells
    instance, spec = cell.extremal["instance"], THEOREMS[theorem_id]
    assert _replayed_ratio(theorem_id, instance, config.tol) == cell.max_ratio
    with pytest.raises(ValueError, match=named):
        spec.evaluate(instance_view(edit(instance), spec), config.tol)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_every_drawn_map_reads_back_from_its_json(dim):
    # Each row of a chunk's drawn maps, written as an instance's map and read back
    # from the JSON text a report holds, applies to the same bytes as its part.
    count = 64
    maps = campaign._Draws([42, 0, dim, 0], {}, dim).maps(dim, count)
    t = np.random.default_rng(dim).standard_normal((count, dim, dim))
    kinds = set()
    for part in maps:
        rows = part.rows.tolist()
        for row, want in zip(rows, stacked.apply_map(maps.pick(rows), t[rows])):
            written = json.loads(canonical_dumps(maps.to_json(row) or {"kind": "identity"}))
            kinds.add(written["kind"])
            read = stacked.StackedMap.from_json(written, dim)
            assert stacked.apply_map(read, t[row]).tobytes() == want.tobytes(), written
    assert kinds == set(MAP_KINDS)


def test_extremal_instance_carries_the_worst_draw():
    config = CampaignConfig(dims=(2, 4), samples=6, seed=5)
    report = run_campaign(config)
    assert len(report.cells) == 2 * len(THEOREM_IDS)
    for cell in report.cells:
        ex = cell.extremal
        assert (ex["theorem_id"], ex["dim"]) == (cell.theorem_id, cell.dim)
        assert ex["ratio"] == cell.max_ratio
        instance = ex["instance"]
        assert (instance["dim"], instance["classical"]) == (cell.dim, False)
        # A probe instance replays its one probe; lin_chain replays every link.
        assert ("probe" in instance) == bool(THEOREMS[cell.theorem_id].probes)
        ratio = _replayed_ratio(cell.theorem_id, instance, config.tol)
        assert ratio == ex["ratio"], (cell.theorem_id, cell.dim)


def test_every_extremal_instance_replays_its_ratio_from_the_report():
    # Each reported instance names its state, its scoring probe and its map, so
    # instance_view rebuilds the reported ratio bit for bit, also from the JSON
    # the report writes.
    config = CampaignConfig(dims=(2, 4), samples=50, seed=42)
    report = run_campaign(config)
    assert len(report.cells) == 34
    kinds = set()
    for cell in report.cells:
        instance = cell.extremal["instance"]
        kinds.add(instance.get("map", {}).get("kind"))
        for replayed in (instance, json.loads(canonical_dumps(instance))):
            ratio = _replayed_ratio(cell.theorem_id, replayed, config.tol)
            assert ratio.hex() == cell.extremal["ratio"].hex(), (cell.theorem_id, cell.dim)
    # The replayed maps are not all the default identity.
    assert len(kinds - {None}) >= 2, kinds


def test_eigen_pairs_make_wielandt_scalar_tight():
    config = CampaignConfig(theorem_ids=("wielandt_scalar",), dims=(3,), samples=4,
                            seed=2)
    report = run_campaign(config)
    (cell,) = report.cells
    # the (v_min +- v_max)/sqrt2 combination attains the bound exactly
    assert cell.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert cell.near_tight >= 4
    assert cell.violations == 0


def test_total_checks_counts_every_record():
    config = CampaignConfig(theorem_ids=("scalar_amgm", "lin_chain"), dims=(2,),
                            samples=3, seed=0)
    report = run_campaign(config)
    by_id = {cell.theorem_id: cell for cell in report.cells}
    assert by_id["scalar_amgm"].samples == 3
    assert by_id["lin_chain"].samples == 3 * 7
    assert report.total_checks == 3 + 21


def test_seed_42_report_bytes_are_pinned(tmp_path, capsys):
    # Every theorem's campaign draw, on every default cell, at four dims.
    out = tmp_path / "report.json"
    code = cli_main(["verify", "--theorems", "all", "--dims", "2,3,4,8", "--samples", "2",
                     "--seed", "42", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    raw = re.sub(rb'"timestamp":"[^"]*"', b'"timestamp":""', out.read_bytes())
    assert hashlib.sha256(raw).hexdigest() == (
        "f9decbc22205d82aacb6cdb4ebc3bfc3f856a51f5b7d8ecff502cdea3ee9b298")


# The theorems whose maps act on the r = dim // 2 compressions of A.
HALF_MAPS = ("wielandt_bhatia_davis", "wielandt_gumus", "wielandt_refined")


def _reference_cell(theorem_id: str, dim: int, cell_index: int, params: BoundParams,
                    cfg: CampaignConfig) -> tuple[CellStats, list]:
    """One cell, one draw at a time through the per-instance reference, and its records.

    The cell's random arrays are drawn whole, and each draw's slice is
    built into its instance by the per-instance samplers.
    """
    spec = THEOREMS[theorem_id]
    theorem_index = THEOREM_IDS.index(theorem_id)
    draws = campaign._Draws([cfg.seed, theorem_index, dim, cell_index],
                            spec.space(dim, params, False), dim)
    views = reference.draw_views(draws, params, cfg.samples,
                                 dim // 2 if theorem_id in HALF_MAPS else dim)
    checks = violations = classical_violations = near_tight = 0
    max_ratio = -math.inf
    min_slack = math.inf
    slack_sum = 0.0
    extremal = None
    worst = None
    records = []
    for draw, view in enumerate(views):
        for item, record in enumerate(reference.EVALUATE[theorem_id](view, cfg.tol)):
            records.append(record)
            checks += 1
            slack = 1.0 - record.ratio
            if not record.verdict.holds:
                violations += 1
            if record.classical_verdict is not None and not record.classical_verdict.holds:
                classical_violations += 1
            if slack < NEAR_TIGHT_REL:
                near_tight += 1
            if math.isfinite(slack):
                slack_sum += slack
                min_slack = min(min_slack, slack)
            if record.ratio > max_ratio:
                max_ratio = record.ratio
                worst = view
                extremal = {"theorem_id": theorem_id, "dim": dim, "draw": draw, "item": item,
                            "detail": record.detail, "ratio": record.ratio,
                            "lhs": record.lhs_value, "rhs": record.rhs_value,
                            **params.as_dict()}
    if extremal is not None:
        extremal["instance"] = worst.instance(extremal["item"])
    cell = CellStats(theorem_id=theorem_id, dim=dim, params=params, samples=checks,
                     violations=violations, classical_violations=classical_violations,
                     near_tight=near_tight, max_ratio=max_ratio, min_slack=min_slack,
                     mean_slack=slack_sum / checks, extremal=extremal)
    return cell, records


# Each field of stacked.Rows, read off a reference record. A record without
# a classical verdict has the refined verdict's gap and slack there.
ROW_FIELDS = {
    "ratio": lambda r: r.ratio,
    "holds": lambda r: r.verdict.holds,
    "classical": lambda r: r.classical_verdict is None or r.classical_verdict.holds,
    "lhs": lambda r: r.lhs_value,
    "rhs": lambda r: r.rhs_value,
    "improvement": lambda r: r.improvement_ratio,
    "gap": lambda r: r.verdict.min_gap_eig,
    "slack": lambda r: r.verdict.rel_slack,
    "classical_gap": lambda r: (r.classical_verdict or r.verdict).min_gap_eig,
    "classical_slack": lambda r: (r.classical_verdict or r.verdict).rel_slack,
    "scale": lambda r: r.refined_rhs_scale,
    "classical_scale": lambda r: r.classical_rhs_scale,
}


def _campaign_rows(config: CampaignConfig):
    """run_campaign(config), and every Rows each cell's evaluator returned, by cell."""
    returned = {}

    def recording(theorem_id, evaluate):
        def wrapped(view, tol):
            rows = evaluate(view, tol)
            returned.setdefault((theorem_id, view.dim, view.params), []).append(rows)
            return rows
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        for theorem_id in config.theorem_ids:
            spec = THEOREMS[theorem_id]
            patch.setitem(THEOREMS, theorem_id, dataclasses.replace(
                spec, evaluate=recording(theorem_id, spec.evaluate)))
        report = run_campaign(config)
    return report, returned


def _assert_matches_reference(config: CampaignConfig) -> tuple:
    """Every cell, and every record of every draw, equals the per-instance reference's.

    Cells are compared field for field, and records bit for bit in every
    field of stacked.Rows. Returns the cells.
    """
    report, returned = _campaign_rows(config)
    assert report.cells
    for cell in report.cells:
        index = config.grid_for(cell.theorem_id).index(cell.params)
        reference_cell, records = _reference_cell(cell.theorem_id, cell.dim, index,
                                                  cell.params, config)
        where = (cell.theorem_id, cell.dim, config.seed)
        for field in dataclasses.fields(CellStats):
            assert getattr(cell, field.name) == getattr(reference_cell, field.name), (
                *where, field.name)
        chunks = returned[(cell.theorem_id, cell.dim, cell.params)]
        for name, read in ROW_FIELDS.items():
            kind = bool if name in ("holds", "classical") else np.float64
            got = np.concatenate([np.ravel(getattr(rows, name)) for rows in chunks])
            want = np.array([read(record) for record in records], kind)
            assert got.astype(kind).tobytes() == want.tobytes(), (*where, name)
    return report.cells


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_stacked_cells_equal_the_per_draw_loop(theorem_id):
    spec = THEOREMS[theorem_id]
    dims = (*range(spec.min_dim, 5), 8)
    for seed in (0, 1, 2):
        _assert_matches_reference(CampaignConfig(theorem_ids=(theorem_id,), dims=dims,
                                                 samples=6, seed=seed))


@pytest.mark.parametrize("theorem_id,dim", [("choi", 3), ("wielandt_scalar", 2)])
def test_stacked_cells_cross_a_chunk_boundary(theorem_id, dim):
    _assert_matches_reference(CampaignConfig(theorem_ids=(theorem_id,), dims=(dim,),
                                             samples=campaign._CHUNK + 1, seed=4))


PLAIN_IDS = tuple(t for t in THEOREM_IDS if THEOREMS[t].regime is RegimeId.PLAIN)
SANDWICH_IDS = tuple(t for t in THEOREM_IDS if THEOREMS[t].regime is RegimeId.SANDWICH)


@pytest.mark.parametrize("theorem_ids,params", [
    # m = M: the degenerate ratio-1 rule of the plain and Wielandt theorems.
    (PLAIN_IDS, BoundParams(m=2.0, M=2.0)),
    (("wielandt_refined",), BoundParams(m=2.0, m_prime=4.0, M=2.0)),
    (SANDWICH_IDS, BoundParams(m=2.0, m_prime=2.0, M_prime=2.0, M=2.0)),
    (PLAIN_IDS, BoundParams(m=1e-4, M=1e4)),
])
def test_stacked_edge_boxes_equal_the_per_draw_loop(theorem_ids, params):
    config = CampaignConfig(theorem_ids=theorem_ids, dims=(2, 3, 4, 8), samples=20, seed=42,
                            grids={t: params for t in theorem_ids})
    cells = _assert_matches_reference(config)
    if params.M / params.m == 1e8:
        # choi fails by rounding alone at h = 1e8; the counts still match.
        assert sum(c.violations for c in cells if c.theorem_id == "choi") > 0


def _report_bytes(args: list, path) -> bytes:
    """verify's report for ``args``, timestamp aside."""
    assert cli_main(["verify", *args, "--out", str(path)]) == 0
    return re.sub(rb'"timestamp":"[^"]*"', b'"timestamp":""', path.read_bytes())


# A probe theorem, a pair theorem and a map theorem.
@pytest.mark.parametrize("theorem_id", ["kantorovich", "wielandt_scalar", "lin_chain"])
def test_results_do_not_depend_on_the_chunk_size(theorem_id, tmp_path, capsys, monkeypatch):
    config = CampaignConfig(theorem_ids=(theorem_id,), dims=(2, 3, 4), samples=70, seed=6)
    seen = []
    for chunk in (1, 7, 64):
        monkeypatch.setattr(campaign, "_CHUNK", chunk)
        report = _report_bytes(["--theorems", theorem_id, "--dims", "2,3,4", "--samples", "70",
                                "--seed", "6"], tmp_path / f"{chunk}.json")
        seen.append((run_campaign(config).cells, report))
    capsys.readouterr()
    assert seen[0] == seen[1] == seen[2]


def _recorded_probes(monkeypatch) -> dict:
    """Patch the campaign's draws to record each cell's raw probes and the generators it makes."""
    recorded = {"units": [], "pairs": [], "generators": set()}
    gaussians, rng = samplers._gaussians, campaign._Draws._rng

    def recording(rngs, key, *args):
        drawn = gaussians(rngs, key, *args)
        if key in ("units", "pairs"):
            recorded[key].append(drawn)
        return drawn

    def recording_rng(self, key):
        recorded["generators"].add(key)
        return rng(self, key)

    monkeypatch.setattr(samplers, "_gaussians", recording)
    monkeypatch.setattr(campaign._Draws, "_rng", recording_rng)
    return recorded


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_a_cell_draws_only_the_probes_and_maps_its_evaluator_reads(theorem_id, monkeypatch):
    spec = THEOREMS[theorem_id]
    recorded = _recorded_probes(monkeypatch)
    run_campaign(CampaignConfig(theorem_ids=(theorem_id,), dims=(4,), samples=3))
    maps = {"map groups", "map frames", "map weights"}
    want = ({spec.probes} if spec.probes else set()) | (maps if spec.map_divisor else set())
    assert recorded["generators"] & {"units", "pairs", *maps} == want


def test_rejected_probes_are_drawn_again(monkeypatch):
    # The median norm of a 2-d Gaussian: the floors reject about half of the draws.
    floor = math.sqrt(2.0 * math.log(2.0))
    monkeypatch.setattr(samplers, "_UNIT_FLOOR", floor)
    monkeypatch.setattr(samplers, "_PAIR_FLOOR", floor)
    config = CampaignConfig(theorem_ids=("kantorovich", "kantorovich_product",
                                         "wielandt_scalar"), dims=(2, 3), samples=20, seed=9)
    runs = []
    for chunk in (64, 64, 3):
        monkeypatch.setattr(campaign, "_CHUNK", chunk)
        with pytest.MonkeyPatch.context() as patch:
            recorded = _recorded_probes(patch)
            runs.append(run_campaign(config).cells)
        assert {"units", "unit redraws", "pairs", "pair redraws", ("x", 1)} <= (
            recorded["generators"])
        for g in recorded["units"]:
            x, kept = samplers._unit_vectors(g)
            assert kept.all() and (np.linalg.norm(g, axis=-1) > floor).all()
            assert np.abs(np.linalg.norm(x, axis=-1) - 1.0).max() <= 1e-12
        for g in recorded["pairs"]:
            x, y, kept = samplers._orthonormal_pairs(g)
            assert kept.all() and (np.linalg.norm(g[..., 0, :], axis=-1) > floor).all()
            assert np.abs(np.linalg.norm(x, axis=-1) - 1.0).max() <= 1e-12
            assert np.abs(np.linalg.norm(y, axis=-1) - 1.0).max() <= 1e-12
            assert np.abs((x * y).sum(axis=-1)).max() <= 1e-12
    # Same seed, same cells; and the chunk size changes nothing.
    assert runs[0] == runs[1] == runs[2]
    _assert_matches_reference(config)


def test_stacked_row_off_by_one_ulp_raises(monkeypatch):
    spec = THEOREMS["kantorovich"]

    def skewed(view, tol):
        rows = spec.evaluate(view, tol)
        ratio = np.array(rows.ratio)
        ratio[0, 0] = np.nextafter(ratio[0, 0], np.inf)
        rows.ratio = ratio
        return rows

    monkeypatch.setitem(THEOREMS, "kantorovich", dataclasses.replace(spec, evaluate=skewed))
    with pytest.raises(AssertionError, match="'kantorovich', 2, 0, 'ratio'"):
        _assert_matches_reference(CampaignConfig(theorem_ids=("kantorovich",), dims=(2,),
                                                 samples=3))


# The variable each hypothesis bounds, the index of one of its values, and a
# value outside its window: lemma_amgm's C below m breaks mA <= B, the
# others' A above its window's top.
PUSHED = {theorem_id: ("c", 0, 0.5) if theorem_id == "lemma_amgm" else ("a", -1, 100.0)
          for theorem_id in THEOREM_IDS
          if theorem_id not in ("scalar_amgm", "choi", "norm_amgm")}


@pytest.mark.parametrize("theorem_id", PUSHED)
def test_a_later_draw_outside_the_regime_raises_naming_its_row(theorem_id, monkeypatch):
    name, index, value = PUSHED[theorem_id]
    drawn = campaign._draw_states

    def pushed(space, dim, count, rng):
        spectra, *rest = drawn(space, dim, count, rng)
        spectra[name][5, index] = value
        return (spectra, *rest)

    monkeypatch.setattr(campaign, "_draw_states", pushed)
    with pytest.raises(InfeasibleRegime, match=r"\(row 5\)$"):
        run_campaign(CampaignConfig(theorem_ids=(theorem_id,), dims=(4,), samples=8))


def _record_passes(monkeypatch) -> list:
    """Patch StackedView.per_map to record its evaluator passes, one list per chunk.

    A pass is recorded as (output sizes of its map's parts, map groups):
    a group is a kind, or (kind, family size) for congruence_sum.
    """
    chunks = []
    per_map = stacked.StackedView.per_map

    def recording(self, n, evaluate):
        passes = []
        chunks.append(passes)

        def counted(view, phi):
            passes.append(({n - 1 if part.kind == "compression" else n for part in phi},
                           {(part.kind, len(part.data)) if part.kind == "congruence_sum"
                            else part.kind for part in phi}))
            return evaluate(view, phi)
        return per_map(self, n, counted)

    monkeypatch.setattr(stacked.StackedView, "per_map", recording)
    return chunks


ALL_MAP_GROUPS = {"identity", "trace_normalize", "compression", ("congruence_sum", 2),
                  ("congruence_sum", 3), "pinching"}
MAP_CELLS = [(theorem_id, dim) for theorem_id in ("lin_chain", "polya_szego", "choi")
             for dim in (2, 3, 4, 8)] + [("wielandt_refined", 4), ("wielandt_refined", 8)]


@pytest.mark.parametrize("theorem_id,dim", MAP_CELLS)
def test_one_pass_over_all_six_map_groups_equals_the_per_draw_loop(theorem_id, dim,
                                                                   monkeypatch):
    chunks = _record_passes(monkeypatch)
    _assert_matches_reference(CampaignConfig(theorem_ids=(theorem_id,), dims=(dim,),
                                             samples=40, seed=3))
    (passes,) = chunks
    assert set().union(*(groups for _, groups in passes)) == ALL_MAP_GROUPS
    n = dim // 2 if theorem_id == "wielandt_refined" else dim
    assert sorted(size for sizes, _ in passes for size in sizes) == [n - 1, n]


@pytest.mark.parametrize("theorem_id,dim", MAP_CELLS)
def test_a_chunk_without_compression_rows_equals_the_per_draw_loop(theorem_id, dim,
                                                                   monkeypatch):
    kind = campaign._map_kind

    def no_compression(n, rng, count):
        # The draw is the catalog's, so the generators stay in step.
        drawn = kind(n, rng, count)
        return np.where(drawn == campaign._MAP_GROUPS.index(("compression", 0)), 0, drawn)

    monkeypatch.setattr(campaign, "_map_kind", no_compression)
    chunks = _record_passes(monkeypatch)
    _assert_matches_reference(CampaignConfig(theorem_ids=(theorem_id,), dims=(dim,),
                                             samples=12, seed=5))
    ((sizes, groups),) = chunks[0]
    assert len(sizes) == 1 and "compression" not in groups and len(groups) > 1


def test_a_chunk_evaluates_once_per_map_output_size(monkeypatch):
    chunks = _record_passes(monkeypatch)
    run_campaign(CampaignConfig(theorem_ids=("polya_szego", "lin_squared_mapped",
                                             "lin_squared_means", "lin_chain",
                                             "wielandt_bhatia_davis", "wielandt_refined",
                                             "choi"),
                                dims=(1, 2, 3, 4, 8), samples=campaign._CHUNK + 5, seed=1))
    assert len(chunks) > 2 * 6
    for passes in chunks:
        sizes = [size for sizes, _ in passes for size in sizes]
        assert all(len(pass_sizes) == 1 for pass_sizes, _ in passes)
        assert 1 <= len(passes) <= 2 and len(set(sizes)) == len(passes)


def test_a_sweep_computes_every_verdict_inside_its_errstate(linalg_calls):
    # A campaign reads every field of every record, so every verdict and side is
    # decomposed: 424 eigvalsh on the benchmark's sweep shape. Each stack a mean
    # or ratio reads is factored by one Cholesky (98), and each factor inverted;
    # 184 stacks have their spectrum read by eigh. Every zero division stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_campaign(CampaignConfig(dims=(2, 3, 4, 8), samples=25, seed=42))
    assert report.total_checks == 9975
    assert (linalg_calls["eigvalsh"], linalg_calls["eigh"], linalg_calls["cholesky"],
            linalg_calls["inv"]) == (424, 184, 98, 98)
