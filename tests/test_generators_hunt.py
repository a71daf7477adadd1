from collections import Counter
from itertools import product

import pytest

import shellcert as sc
from shellcert import hunt
from shellcert.catalog import dunce_hat, projective_plane
from shellcert.cli import EX_FAIL, main
from shellcert.formats import to_json_document
from shellcert.hunt import STAGES, hunt_counterexample, screen_candidate

# the boundary of the octahedron: a 2-sphere, sequentially CM over every
# field, and its opposite triangles {1,3,5} and {2,4,6} cover all 6 vertices
OCTAHEDRON = sc.from_facets(sc.VertexSet.of(range(1, 7)), product((1, 2), (3, 4), (5, 6)))
TWO_TRIANGLES = sc.from_facets(sc.VertexSet.of(range(1, 7)), [{1, 2, 3}, {4, 5, 6}])


@pytest.fixture
def scm_fields(monkeypatch):
    """The fields the screen sweeps for sequential Cohen-Macaulayness, in order."""
    calls = []
    original = hunt.is_sequentially_cm

    def counting(c, field):
        calls.append(str(field))
        return original(c, field)

    monkeypatch.setattr(hunt, "is_sequentially_cm", counting)
    return calls


def has_facet_missing_one_vertex(c):
    return any(f.bit_count() == c.universe.n - 1 for f in c.facets)


def sampled_stages(monkeypatch, seed, budget):
    """(random complex restricted to its support, stage) for each hunt sample."""
    drawn, out = [], []
    draw, screen = hunt.random_complex, hunt.screen_candidate

    def recording_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def recording_screen(c):
        stage = screen(c)
        out.append((sc.restrict_to_support(drawn[-1]), stage))
        return stage

    monkeypatch.setattr(hunt, "random_complex", recording_draw)
    monkeypatch.setattr(hunt, "screen_candidate", recording_screen)
    assert hunt_counterexample(seed, budget).sampled == len(out) == budget
    return out


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

    def test_hit_stage_sweeps_gf2_only(self, monkeypatch, scm_fields):
        assert screen_candidate(OCTAHEDRON) == "weak-order-found"
        # with the search pretending no weak order exists, the octahedron is a
        # hit; GF(2) passes, so Q passes without its own sweep
        monkeypatch.setattr(hunt, "find_weak_shelling_order", lambda c: None)
        assert screen_candidate(OCTAHEDRON) == "hit"
        assert scm_fields == ["GF(2)"]

    def test_not_sequentially_cm_stage_stops_at_the_first_failing_field(self, scm_fields):
        # no weak order, and a disconnected pure complex is not CM over GF(2)
        assert screen_candidate(TWO_TRIANGLES) == "not-sequentially-cm"
        assert scm_fields == ["GF(2)"]

    def test_undecided_stage(self, monkeypatch, scm_fields):
        def exhausted(c):
            raise sc.Undecided("search budget of 10 states exhausted")

        monkeypatch.setattr(hunt, "find_weak_shelling_order", exhausted)
        assert screen_candidate(OCTAHEDRON) == "undecided"
        assert scm_fields == []


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

    def test_sweep_runs_once_per_screened_candidate_over_gf2(self, scm_fields):
        # all() stops at the first failing field and cm_reports skips Q after
        # GF(2) passes, so each candidate that reaches the sweep costs one
        # GF(2) call: 15 at seed 1, all failing
        report = hunt_counterexample(1, 500)
        swept = report.counts["not-sequentially-cm"] + report.counts["hit"]
        assert swept == 15
        assert scm_fields == ["GF(2)"] * swept

    @pytest.mark.parametrize("seed, budget", [(1, 500), (3, 200), (4, 200), (6, 200), (7, 200)])
    def test_every_oversized_facet_sample_has_a_facet_missing_one_vertex(self, monkeypatch,
                                                                        seed, budget):
        samples = sampled_stages(monkeypatch, seed, budget)
        oversized = [r for r, stage in samples if stage == "oversized-facet"]
        assert oversized and all(has_facet_missing_one_vertex(r) for r in oversized)
        if seed == 1:
            # the docstring's figures: the converse fails on 44 of 201 samples
            ends = Counter(stage for r, stage in samples if has_facet_missing_one_vertex(r))
            assert ends == {"oversized-facet": 157, "weak-order-found": 42,
                            "trivially-weakly-shellable": 2}

    def test_a_facet_missing_one_vertex_need_not_give_an_oversized_facet(self):
        r = sc.from_facets(sc.VertexSet.of(range(1, 5)), [{1, 2, 3}, {1, 4}, {2, 4}, {3, 4}])
        assert has_facet_missing_one_vertex(r)
        dual = sc.alexander_dual(r)
        assert sc.restrict_to_support(dual).facet_members() == [(1,), (2,), (3,)]
        assert screen_candidate(dual) == "trivially-weakly-shellable"

    def test_negative_budget_rejected(self):
        with pytest.raises(sc.InputError):
            hunt_counterexample(1, -3)
        assert hunt_counterexample(1, 0).sampled == 0

    def test_report_text(self):
        report = hunt_counterexample(2, 20)
        text = report.as_text()
        assert "sampled: 20" in text
        assert "no counterexample found" in text

    def test_report_text_lists_hits_sorted(self, monkeypatch, capsys):
        # with the search pretending no weak order exists, every sequentially
        # CM survivor is a hit
        monkeypatch.setattr(hunt, "find_weak_shelling_order", lambda c: None)
        report = hunt_counterexample(1, 20)
        assert report.counts["hit"] == len(report.hits) > 1
        docs = [to_json_document(c) for c in report.hits]
        assert docs == sorted(docs)
        lines = report.as_text().splitlines()
        i = lines.index("counterexample candidates:")
        assert lines[i + 1:] == ["  " + d for d in docs]
        assert "no counterexample found" not in lines
        assert main(["hunt", "--seed", "1", "--budget", "20"]) == EX_FAIL
        assert capsys.readouterr().out == report.as_text() + "\n"
