"""Local-search parity: the batched 2-opt seam changes nothing but quality.

Two invariants pin the third engine seam:

* **kernel parity** — :func:`~repro.tsp.local_search.two_opt_batch` is
  bit-identical, per batch row, to the solo nn-restricted
  :func:`~repro.tsp.local_search.two_opt` run on that row alone (tours,
  lengths *and* exchange counts), including heterogeneous rows and capped
  passes.  The batch dimension is pure vectorization, never semantics.
* **engine parity** — a ``local_search="2opt"`` :class:`BatchEngine` run at
  B=4 reproduces, per row, the corresponding B=1 engine run exactly, for
  both report cadences.  Batching composes with the ls stage the same way
  it composes with the choice/update seams (PR-5 parity grid).

Plus the seam's raison d'être: at the first report boundary an ls-enabled
run is never behind the plain run on the same seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import WorkBuffers
from repro.core import ACOParams, BatchEngine
from repro.tsp import uniform_instance
from repro.tsp.local_search import two_opt, two_opt_batch
from repro.tsp.tour import random_tour, tour_length, validate_tour

ITERATIONS = 6
SIZES = (14, 18)
SEEDS = (3, 11)


def _rows(n_rows, n, seed):
    """Heterogeneous (tours, dists, nns): distinct instances, equal n."""
    tours, dists, nns = [], [], []
    rng = np.random.default_rng(seed)
    for r in range(n_rows):
        inst = uniform_instance(n, seed=51 + r)
        tours.append(random_tour(n, rng))
        dists.append(inst.distance_matrix())
        nns.append(inst.nn_lists(7))
    return np.stack(tours), np.stack(dists), np.stack(nns)


class TestKernelParity:
    @pytest.mark.parametrize("B", [1, 4])
    @pytest.mark.parametrize("max_passes", [None, 2])
    def test_batch_rows_bit_identical_to_solo(self, B, max_passes):
        tours, dists, nns = _rows(B, 15, seed=7)
        res = two_opt_batch(
            tours, dists, nn_list=nns, max_passes=max_passes, work=WorkBuffers()
        )
        for b in range(B):
            solo = two_opt(
                tours[b], dists[b], nn_list=nns[b], max_passes=max_passes
            )
            np.testing.assert_array_equal(res.tours[b], solo.tour)
            assert int(res.lengths[b]) == solo.length, b
            assert int(res.exchanges[b]) == solo.exchanges, b
            assert int(res.lengths[b]) == tour_length(res.tours[b], dists[b])

    def test_shared_instance_rows_match_solo(self):
        """Broadcast (stride-0) distance/nn batch views: still per-row
        identical to solo — the engine's replica layout."""
        inst = uniform_instance(18, seed=21)
        d, nn = inst.distance_matrix(), inst.nn_lists(7)
        rng = np.random.default_rng(3)
        tours = np.stack([random_tour(18, rng) for _ in range(4)])
        res = two_opt_batch(
            tours,
            np.broadcast_to(d, (4,) + d.shape),
            nn_list=np.broadcast_to(nn, (4,) + nn.shape),
            work=WorkBuffers(),
        )
        for b in range(4):
            solo = two_opt(tours[b], d, nn_list=nn)
            np.testing.assert_array_equal(res.tours[b], solo.tour)
            assert int(res.exchanges[b]) == solo.exchanges


class TestEngineParity:
    @pytest.mark.parametrize("variant", ["as", "acs"])
    @pytest.mark.parametrize("report_every", [1, 3])
    def test_batched_ls_rows_match_single_row_engines(
        self, variant, report_every
    ):
        """B=4 with ls on ≡ four B=1 ls-on engines, row by row."""
        for n in SIZES:
            instance = uniform_instance(n, seed=100 + n)
            for seed in SEEDS:
                params = ACOParams(seed=seed, nn=7)
                engine = BatchEngine.replicas(
                    instance,
                    params,
                    replicas=4,
                    variant=variant,
                    local_search="2opt",
                )
                batch = engine.run(ITERATIONS, report_every=report_every)
                for b in range(4):
                    solo = BatchEngine(
                        instance,
                        ACOParams(seed=seed + b, nn=7),
                        variant=variant,
                        local_search="2opt",
                    ).run(ITERATIONS, report_every=report_every)
                    row = batch.results[b]
                    ref = solo.results[0]
                    assert (
                        row.iteration_best_lengths
                        == ref.iteration_best_lengths
                    ), (variant, report_every, n, seed, b)
                    assert row.best_length == ref.best_length
                    np.testing.assert_array_equal(
                        row.best_tour, ref.best_tour
                    )

    def test_ls_run_not_behind_plain_at_first_boundary(self):
        """Quality direction: after one polished boundary the ls run's
        best-so-far is <= the plain run's on identical seeds."""
        instance = uniform_instance(18, seed=118)
        for variant in ("as", "acs", "mmas"):
            for seed in SEEDS:
                params = ACOParams(seed=seed, nn=7)
                plain = BatchEngine(instance, params, variant=variant).run(2)
                polished = BatchEngine(
                    instance, params, variant=variant, local_search="2opt"
                ).run(2)
                assert polished.best_length <= plain.best_length, (
                    variant,
                    seed,
                )

    def test_best_so_far_target_smoke(self):
        """ls-target=best-so-far: results stay internally consistent (the
        reported best length matches its tour) and stats are surfaced."""
        instance = uniform_instance(16, seed=120)
        d = instance.distance_matrix()
        engine = BatchEngine(
            instance,
            ACOParams(seed=5, nn=7),
            variant="mmas",
            local_search="2opt",
            local_search_options={"target": "best-so-far", "passes": 3},
        )
        batch = engine.run(6, report_every=2)
        res = batch.results[0]
        validate_tour(res.best_tour, instance.n)
        assert res.best_length == tour_length(res.best_tour, d)
        assert batch.ls_exchanges >= 0
        assert batch.ls_gain >= 0
        assert batch.ls_wall_seconds >= 0.0

    def test_report_surfaces_ls_stats(self):
        """Boundary reports carry the per-row exchange/gain counters, and
        they reconcile with the engine's running totals."""
        instance = uniform_instance(16, seed=121)
        engine = BatchEngine(
            instance,
            ACOParams(seed=2, nn=7),
            local_search="2opt",
        )
        reports = []
        for _ in range(4):
            reports.extend(engine.run_iteration())
        assert all(r.ls_exchanges >= 0 and r.ls_gain >= 0 for r in reports)
        assert sum(r.ls_gain for r in reports) == engine.ls_gain_total
        assert (
            sum(r.ls_exchanges for r in reports) == engine.ls_exchanges_total
        )
