import pytest

import shellcert as sc
from shellcert.catalog import dunce_hat, projective_plane
from shellcert.hunt import STAGES, hunt_counterexample, screen_candidate


class TestGenerators:
    def test_same_seed_same_complex(self):
        for seed in (0, 1, 17, 2**31):
            assert sc.random_complex(seed, 6, 0.5) == sc.random_complex(seed, 6, 0.5)
            assert sc.random_flag_complex(seed, 6, 0.5) == sc.random_flag_complex(seed, 6, 0.5)

    def test_density_one_gives_full_simplex(self):
        for seed in range(5):
            c = sc.random_complex(seed, 5, 1.0)
            assert c.facet_members() == [(1, 2, 3, 4, 5)]

    def test_flag_generator_output_is_flag(self):
        for seed in range(30):
            c = sc.random_flag_complex(seed, 7, 0.4 + (seed % 5) / 10.0)
            assert sc.is_flag(c)
            assert not c.has_ghost_vertices

    def test_complete_graph_gives_full_simplex(self):
        c = sc.random_flag_complex(3, 5, 1.0)
        assert c.facet_members() == [(1, 2, 3, 4, 5)]

    def test_bad_parameters_rejected(self):
        with pytest.raises(sc.InputError):
            sc.random_complex(1, 0, 0.5)
        with pytest.raises(sc.InputError):
            sc.random_complex(1, 99, 0.5)
        with pytest.raises(sc.InputError):
            sc.random_complex(1, 5, 1.5)
        with pytest.raises(sc.InputError):
            sc.random_flag_complex(1, 5, -0.1)


class TestScreening:
    def test_projective_plane_filtered_as_weakly_shellable(self):
        # no two of its ten triangles cover all six vertices
        assert screen_candidate(projective_plane()) == "trivially-weakly-shellable"

    def test_wide_complex_filtered_before_scm(self):
        d = dunce_hat()
        assert d.universe.n >= 2 * d.dim + 3
        assert screen_candidate(d) == "trivially-weakly-shellable"

    def test_oversized_facet_filtered(self):
        c = sc.from_facets(sc.VertexSet.of(range(1, 5)), [{1, 2, 3}, {2, 3, 4}])
        assert screen_candidate(c) == "oversized-facet"

    def test_triangle_boundary_is_not_scm_free_pass(self):
        # boundary of a triangle: not weakly shellable but CM (a circle is),
        # facets of size 2 on 3 vertices are oversized though
        c = sc.from_facets(sc.VertexSet.of(range(1, 4)), [{1, 2}, {2, 3}, {1, 3}])
        assert screen_candidate(c) == "oversized-facet"

    def test_degenerate(self):
        assert screen_candidate(sc.from_facets(sc.VertexSet.of([1]), [])) == "degenerate"
        assert screen_candidate(sc.from_facets(sc.VertexSet.of([1]), [()])) == "degenerate"

    def test_weak_order_found_stage(self):
        # two long facets unioning to the universe, glued along most of it
        c = sc.from_facets(sc.VertexSet.of(range(1, 7)),
                           [{1, 2, 3, 4}, {3, 4, 5, 6}, {2, 3, 4, 5}])
        stage = screen_candidate(c)
        assert stage in ("weak-order-found", "trivially-weakly-shellable")


class TestHunt:
    def test_deterministic(self):
        a = hunt_counterexample(11, 60)
        b = hunt_counterexample(11, 60)
        assert a.counts == b.counts and a.hits == b.hits

    def test_desk_scale_run_is_empty(self):
        report = hunt_counterexample(1, 200)
        assert report.hits == []
        assert report.sampled == 200
        assert set(report.counts) == set(STAGES)
        # the pipeline actually exercises its stages
        assert report.counts["weak-order-found"] > 0
        assert report.counts["not-sequentially-cm"] > 0
        # sampling still wastes candidates on the two discard stages
        assert report.counts["degenerate"] > 0
        assert report.counts["oversized-facet"] > 0

    @pytest.mark.parametrize("seed, budget, counts", [
        (1, 500, (174, 157, 5, 149, 0, 15, 0)),
        (3, 200, (75, 64, 1, 56, 0, 4, 0)),
        (4, 200, (75, 44, 1, 78, 0, 2, 0)),
        (6, 200, (72, 59, 2, 60, 0, 7, 0)),
        (7, 200, (76, 57, 5, 57, 0, 5, 0)),
    ])
    def test_stage_counts_at_benchmark_seeds(self, seed, budget, counts):
        # counts in STAGES order; seed 1 is the docstring's 174 degenerate, 157 oversized
        report = hunt_counterexample(seed, budget)
        assert tuple(report.counts[s] for s in STAGES) == counts

    def test_negative_budget_rejected(self):
        with pytest.raises(sc.InputError):
            hunt_counterexample(1, -3)
        assert hunt_counterexample(1, 0).sampled == 0

    def test_report_text(self):
        report = hunt_counterexample(2, 20)
        text = report.as_text()
        assert "sampled: 20" in text
        assert "no counterexample found" in text
