import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellcert as sc
from shellcert import catalog
from shellcert.cli import EX_FAIL, EX_INPUT, EX_INTERNAL, EX_OK, EX_UNDECIDED, main
from shellcert.formats import parse_complex, to_json_document, to_text


# JSON documents of the right shape but the wrong types inside, or too deep to decode
MALFORMED_JSON = [
    pytest.param('{"vertices": 5, "facets": []}', id="vertices-number"),
    pytest.param('{"vertices": [[1]], "facets": []}', id="vertices-nested-list"),
    pytest.param('{"vertices": [1,2], "facets": [[[1]]]}', id="face-nested-list"),
    pytest.param('{"vertices": "ab", "facets": []}', id="vertices-string"),
    pytest.param('{"vertices": {"a": 1}, "facets": []}', id="vertices-object"),
    pytest.param('{"vertices": ' + "[" * 100000 + "]" * 100000 + "}", id="nested-100000-deep"),
]


# (arguments, a document whose path is appended, or None; the input error's message)
INPUT_ERRORS = [
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gfx"], None,
                 "unrecognized field 'gfx' (expected gf<p> or q)", id="field-gfx"),
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gf()"], None,
                 "unrecognized field 'gf()' (expected gf<p> or q)", id="field-gf()"),
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gf1"], None,
                 "characteristic must be prime, got 1", id="field-gf1"),
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gf(4)"], None,
                 "characteristic must be prime, got 4", id="field-gf(4)"),
    pytest.param(["check", "shelling", "--fixture", "pentagon", "--order", "0,1,x"], None,
                 "--order must be comma-separated integer positions", id="order-not-integers"),
    pytest.param(["dual"], '{"vertices": [1,2], "nonfaces": [[1,2],[1,2]]}',
                 "duplicate non-faces", id="nonfaces-duplicate"),
    pytest.param(["dual"], '{"vertices": [1,2], "nonfaces": [[]]}',
                 "the empty set cannot be a minimal non-face", id="nonfaces-empty-set"),
]


# `shellcert table --fixture NAME`, line by line
TABLE_GOLDEN = {
    "strong-gcd-witness": [
        "catalog claim: ('F', 'T', 'F', 'T')",
        "dual shellable: F            (computed)",
        "strong gcd:     T            (computed)",
        "dual seq. CM:   F            (computed)",
        "Golod:          T            (inferred:gcd-implies-golod)",
    ],
    "strong-gcd-witness-dual": [
        "dual shellable: T            (computed)",
        "strong gcd:     T            (computed)",
        "dual seq. CM:   T            (inferred:shelling-implies-seq-cm)",
        "Golod:          T            (inferred:gcd-implies-golod)",
    ],
    "dunce-hat": [
        "dual shellable: F            (computed)",
        "strong gcd:     F            (computed)",
        "dual seq. CM:   F            (computed)",
        "Golod:          out-of-scope [no algebraic verification performed]",
    ],
    "dunce-hat-dual": [
        "catalog claim: ('F', 'T', 'T', 'T')",
        "dual shellable: F            (computed)",
        "strong gcd:     T            (computed)",
        "dual seq. CM:   T            (computed)",
        "Golod:          T            (inferred:gcd-implies-golod)",
    ],
    "gcd-violator": [
        "catalog claim: ('F', 'F', 'F', 'claim:T')",
        "dual shellable: F            (computed)",
        "strong gcd:     F            (computed)",
        "dual seq. CM:   F            (computed)",
        "Golod:          out-of-scope [no algebraic verification performed]",
    ],
    "gcd-violator-dual": [
        "dual shellable: T            (computed)",
        "strong gcd:     T            (computed)",
        "dual seq. CM:   T            (inferred:shelling-implies-seq-cm)",
        "Golod:          T            (inferred:gcd-implies-golod)",
    ],
    "pentagon": [
        "dual shellable: F            (computed)",
        "strong gcd:     F            (inferred:flag-equivalence)",
        "dual seq. CM:   F            (inferred:flag-equivalence)",
        "Golod:          F            (inferred:flag-equivalence)",
    ],
    "projective-plane": [
        "dual shellable: F            (computed)",
        "strong gcd:     T            (computed)",
        "dual seq. CM:   unknown      [field-dependent: {'GF(2)': False, 'Q': True}]",
        "Golod:          T            (inferred:gcd-implies-golod)",
    ],
}


class TestParse:
    def test_json_nonface_form(self):
        c = parse_complex('{"vertices":[1,2,3,4,5,6], "nonfaces":[[1,2,3],[1,2,6],[4,5,6]]}')
        d = sc.alexander_dual(c)
        assert d.facet_members() == [(1, 2, 3), (3, 4, 5), (4, 5, 6)]

    def test_json_facet_form(self):
        c = parse_complex('{"vertices":[1,2], "facets":[[1,2]]}')
        assert c.facet_members() == [(1, 2)]

    def test_both_keys_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex('{"vertices":[1], "facets":[[1]], "nonfaces":[[1]]}')

    def test_neither_key_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex('{"vertices":[1,2]}')

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex('{"vertices":[1,1,2], "facets":[[1]]}')

    def test_unknown_key_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex('{"vertices":[1,2], "facets":[[1]], "colour":"red"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex('{"vertices": [1,2,')

    @pytest.mark.parametrize("doc", MALFORMED_JSON)
    def test_malformed_json_rejected(self, doc):
        with pytest.raises(sc.InputError):
            parse_complex(doc)

    def test_text_facet_form(self):
        c = parse_complex("vertices: 1 2 3 4\n1 2 3\n3 4\n")
        assert c.facet_members() == [(3, 4), (1, 2, 3)]

    def test_text_nonface_form(self):
        c = parse_complex("vertices: 0 1 2 3 4\nnonfaces\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        assert set(c.facet_members()) == {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}

    def test_text_string_labels(self):
        c = parse_complex("vertices: a b c\na b\nb c\n")
        assert c.facet_members() == [("a", "b"), ("b", "c")]

    def test_text_labels_coerced_once_for_the_whole_document(self):
        # one non-numeric label anywhere makes every label a string
        c = parse_complex("vertices: 1 2 a\n1 2\n")
        assert c.universe.labels == ("1", "2", "a")
        assert c.facet_members() == [("1", "2")]
        c = parse_complex("vertices: 1 2 a\n1 a\n")
        assert c.facet_members() == [("1", "a")]

    def test_text_comments_and_blanks(self):
        c = parse_complex("# a triangle\nvertices: 1 2 3\n\n1 2 3\n")
        assert c.facet_members() == [(1, 2, 3)]

    def test_text_missing_header_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex("1 2 3\n")

    def test_round_trips(self):
        for doc in (
            '{"vertices":[1,2,3], "facets":[[1,2],[2,3]]}',
            "vertices: 1 2 3\n1 2\n2 3\n",
        ):
            c = parse_complex(doc)
            assert parse_complex(to_json_document(c)) == c
            assert parse_complex(to_text(c)) == c

    def test_k48_skeleton_dual_from_a_facets_document(self):
        # 17,296 facets of one size: absorption must not compare all pairs
        vertices = list(range(48))
        facets = [[v for v in vertices if v not in t] for t in combinations(vertices, 3)]
        c = parse_complex(json.dumps({"vertices": vertices, "facets": facets}))
        skeleton = sc.from_facets(sc.VertexSet.of(vertices), combinations(vertices, 2))
        assert len(c.facets) == 17296
        assert c == sc.alexander_dual(skeleton)

    def test_json_output_is_loadable(self):
        c = parse_complex('{"vertices":[1,2,3], "facets":[[1,2],[2,3]]}')
        data = json.loads(to_json_document(c))
        assert data["vertices"] == [1, 2, 3]


def test_python_m_runs_from_checkout():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "shellcert", "scm", "--fixture", "projective-plane"],
                          env=env, cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Q: yes" in proc.stdout


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_dual_fixture(self, capsys):
        code, out, _ = self.run(["dual", "--fixture", "strong-gcd-witness"], capsys)
        assert code == 0
        assert json.loads(out)["facets"] == [[1, 2, 3], [3, 4, 5], [4, 5, 6]]

    def test_dual_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO('{"vertices":[1,2], "facets":[[1],[2]]}'))
        code, out, _ = self.run(["dual", "-"], capsys)
        assert code == 0

    def test_nonfaces(self, capsys):
        code, out, _ = self.run(["nonfaces", "--fixture", "pentagon"], capsys)
        assert code == 0
        rows = {tuple(map(int, ln.split())) for ln in out.strip().splitlines()}
        assert rows == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    def test_nonfaces_of_k48_one_skeleton(self, capsys, tmp_path):
        path = tmp_path / "k48.json"
        path.write_text(json.dumps({"vertices": list(range(48)),
                                    "facets": [[a, b] for a in range(48) for b in range(a + 1, 48)]}))
        code, out, _ = self.run(["nonfaces", str(path)], capsys)
        assert code == 0
        assert len(out.splitlines()) == 17296

    def test_flag_exit_codes(self, capsys):
        assert self.run(["flag", "--fixture", "pentagon"], capsys)[0] == 0
        assert self.run(["flag", "--fixture", "strong-gcd-witness"], capsys)[0] == 1

    def test_check_valid_and_invalid(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"vertices":[1,2,3,4], "facets":[[1,2,3],[2,3,4]]}')
        code, out, _ = self.run(["check", "shelling", str(path), "--order", "0,1"], capsys)
        assert code == 0 and "valid" in out
        path2 = tmp_path / "d.json"
        path2.write_text('{"vertices":[1,2,3,4], "facets":[[1,2],[3,4]]}')
        code, out, _ = self.run(["check", "shelling", str(path2), "--order", "0,1"], capsys)
        assert code == 1 and "invalid" in out

    def test_check_bad_order_is_input_error(self, capsys):
        code, _, err = self.run(
            ["check", "sgcd", "--order", "0,0,1", "--fixture", "strong-gcd-witness"], capsys)
        assert code == 2
        assert "input error" in err

    def test_check_accepts_the_empty_order_find_prints(self, capsys, tmp_path):
        simplex = tmp_path / "simplex.json"
        simplex.write_text('{"vertices":[1,2,3], "facets":[[1,2,3]]}')
        void = tmp_path / "void.json"
        void.write_text('{"vertices":[1,2,3], "facets":[]}')
        for condition, path in (("sgcd", simplex), ("shelling", void)):
            code, out, _ = self.run(["find", condition, str(path)], capsys)
            assert code == 0 and out.splitlines()[1:] == []
            code, out, _ = self.run(["check", condition, str(path), "--order", ""], capsys)
            assert code == 0 and out.startswith("valid")

    def test_check_empty_order_with_items_is_input_error(self, capsys):
        for condition in ("shelling", "sgcd"):
            code, _, err = self.run(
                ["check", condition, "--order", "", "--fixture", "pentagon"], capsys)
            assert code == 2
            assert "permutation" in err

    def test_find_exit_codes(self, capsys):
        assert self.run(["find", "shelling", "--fixture", "dunce-hat"], capsys)[0] == 1
        code, out, _ = self.run(["find", "weak", "--fixture", "dunce-hat"], capsys)
        assert code == 0 and "found" in out

    def test_find_shelling_of_a_flag_dual_with_a_hole_needs_no_search(self, capsys, monkeypatch, tmp_path):
        # the 1-skeleton of this flag complex has a chordless cycle; the search
        # alone ran out of its budget on the dual's 27 facets
        def no_search(*args):
            raise AssertionError("searched")

        path = tmp_path / "dual.json"
        path.write_text(to_json_document(sc.alexander_dual(sc.random_flag_complex(3, 9, 0.35))))
        monkeypatch.setattr("shellcert.orders._search", no_search)
        assert self.run(["find", "shelling", str(path)], capsys) == (EX_FAIL, "none exists\n", "")

    def test_find_shelling_of_a_chordal_flag_dual_needs_no_search(self, capsys, monkeypatch, tmp_path):
        # the 1-skeleton of this flag complex is chordal; its perfect
        # elimination order gives the dual's shelling
        def no_search(*args):
            raise AssertionError("searched")

        dual = sc.alexander_dual(sc.random_flag_complex(28, 9, 0.5))
        path = tmp_path / "dual.json"
        path.write_text(to_json_document(dual))
        monkeypatch.setattr("shellcert.orders._search", no_search)
        code, out, err = self.run(["find", "shelling", str(path)], capsys)
        assert (code, out.splitlines()[0], err) == (EX_OK, "found shelling order:", "")
        printed = ["  {%s}" % ",".join(map(str, f)) for f in dual.facet_members()]
        order = ",".join(str(printed.index(ln)) for ln in out.splitlines()[1:])
        assert len(dual.facets) == 13 and order != ",".join(map(str, range(13)))
        code, out, _ = self.run(["check", "shelling", str(path), "--order", order], capsys)
        assert (code, out) == (EX_OK, "valid shelling order\n")

    def test_find_rejected_certificate_is_an_internal_error(self, capsys, monkeypatch, tmp_path):
        # two disjoint edges have no shelling, in either order; a single facet
        # is not an order of both
        path = tmp_path / "edges.json"
        path.write_text('{"vertices":[1,2,3,4], "facets":[[1,2],[3,4]]}')
        for wrong in (lambda c: c.facets, lambda c: c.facets[:1]):
            monkeypatch.setattr("shellcert.cli.find_shelling_order",
                                lambda c: sc.OrderCertificate(sc.SHELLING, c, wrong(c)))
            code, out, err = self.run(["find", "shelling", str(path)], capsys)
            assert (code, out) == (EX_INTERNAL, "")
            assert "internal error" in err and "fails its check" in err

    def test_find_undecided_exit_code(self, capsys, monkeypatch):
        # 6 facets in the dual, every full-union pair has a possible saver, and
        # the budget is too small to decide weak shellability of the dual
        monkeypatch.setattr("shellcert.orders.NODE_BUDGET", 10)
        code, out, _ = self.run(["find", "sgcd", "--fixture", "gcd-violator"], capsys)
        assert code == 3
        assert "undecided" in out

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(c):
            raise RuntimeError("search state corrupted")

        monkeypatch.setattr("shellcert.cli.find_shelling_order", broken)
        code, out, err = self.run(["find", "shelling", "--fixture", "pentagon"], capsys)
        assert code == EX_INTERNAL == 4
        assert out == ""
        assert "internal error" in err and "search state corrupted" in err

    def test_homology_fields(self, capsys):
        code, out, _ = self.run(
            ["homology", "--fixture", "pentagon", "--field", "gf2", "--field", "q"], capsys)
        assert code == 0
        assert "H~1=1" in out and "GF(2)" in out and "over Q" in out

    def test_repeated_field_printed_once(self, capsys):
        fields = ["--field", "gf2", "--field", "GF2", "--field", "q", "--field", "gf2"]
        code, out, _ = self.run(["homology", "--fixture", "projective-plane"] + fields, capsys)
        assert code == 0
        assert out.splitlines() == ["[H~-1=0, H~0=0, H~1=1, H~2=1 over GF(2)]",
                                    "[H~-1=0, H~0=0, H~1=0, H~2=0 over Q]"]
        for cmd, skeleton in (("cm", "None"), ("scm", "2")):
            code, out, _ = self.run([cmd, "--fixture", "projective-plane"] + fields, capsys)
            assert code == 1
            assert out.splitlines() == [
                "GF(2): no, witness CMWitness(face=(), degree=1, rank=1, skeleton_dim=%s)" % skeleton,
                "Q: yes"]

    def test_homology_odd_prime(self, capsys):
        code, out, _ = self.run(
            ["homology", "--fixture", "projective-plane", "--field", "gf5"], capsys)
        assert code == 0
        assert "H~1=0" in out and "GF(5)" in out

    def test_homology_bad_field(self, capsys):
        code, _, err = self.run(
            ["homology", "--fixture", "pentagon", "--field", "gf9"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, doc, message", INPUT_ERRORS)
    def test_input_error_message(self, argv, doc, message, capsys, tmp_path):
        if doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(doc)
            argv = argv + [str(path)]
        assert self.run(argv, capsys) == (EX_INPUT, "", "input error: %s\n" % message)

    def test_field_names_as_printed(self, capsys):
        code, out, _ = self.run(["cm", "--fixture", "pentagon", "--field", "GF(2)"], capsys)
        assert (code, out) == (EX_OK, "GF(2): yes\n")

    def test_homology_huge_field(self, capsys):
        code, _, err = self.run(
            ["homology", "--fixture", "pentagon", "--field", "gf10000000000000000000000013"], capsys)
        assert code == EX_INPUT
        assert "below 2**31" in err

    def test_cm_scm(self, capsys):
        assert self.run(["cm", "--fixture", "dunce-hat"], capsys)[0] == 0
        code, out, _ = self.run(["cm", "--fixture", "strong-gcd-witness-dual"], capsys)
        assert code == 1 and "witness" in out
        assert self.run(["scm", "--fixture", "dunce-hat"], capsys)[0] == 0

    def test_cm_scm_skip_q_after_gf2_passes(self, capsys, monkeypatch):
        for cmd, test in (("cm", sc.is_cohen_macaulay), ("scm", sc.is_sequentially_cm)):
            swept = []

            def counting(c, field):
                swept.append(str(field))
                return test(c, field)

            monkeypatch.setattr("shellcert.cli." + test.__name__, counting)
            code, out, _ = self.run([cmd, "--fixture", "dunce-hat"], capsys)
            assert code == 0 and out.splitlines() == ["GF(2): yes", "Q: yes"]
            assert swept == ["GF(2)"]

    def test_cm_ghosted_input_is_answered(self, capsys, tmp_path):
        # vertex 3 is a ghost; the answer is that of the edge on {1, 2}
        path = tmp_path / "g.json"
        path.write_text('{"vertices":[1,2,3], "facets":[[1,2]]}')
        for cmd in ("cm", "scm"):
            code, out, _ = self.run([cmd, str(path)], capsys)
            assert code == 0 and out.splitlines() == ["GF(2): yes", "Q: yes"]

    @pytest.mark.parametrize("seed, expected", [(4, EX_OK), (5, EX_OK), (6, EX_FAIL)])
    def test_scm_of_a_ghosted_dual_agrees_with_the_table(self, capsys, tmp_path, seed, expected):
        # random | dual | scm: each of these duals has a ghost vertex
        c = sc.random_complex(seed, 6, 0.6)
        dual = sc.alexander_dual(c)
        assert dual.has_ghost_vertices
        path = tmp_path / "d.json"
        path.write_text(to_json_document(dual))
        code, _, _ = self.run(["scm", str(path)], capsys)
        slot = sc.build_fact_table(c).value("dual_seq_cm")
        assert code == expected and slot == ("T" if expected == EX_OK else "F")

    def test_table(self, capsys):
        # every line of every fixture's table, provenance and notes included
        for name, expected in TABLE_GOLDEN.items():
            code, out, _ = self.run(["table", "--fixture", name], capsys)
            assert code == EX_OK, name
            assert out.splitlines() == expected, name
        assert set(TABLE_GOLDEN) == set(catalog.FIXTURES)

    def test_table_rejected_gcd_order_is_an_internal_error(self, capsys, monkeypatch):
        # the dual's shelling always maps to a strong gcd-order, so a rejection is a bug
        monkeypatch.setattr("shellcert.facts.check_strong_gcd_order", lambda c, order: sc.CheckReport(False))
        code, out, err = self.run(["table", "--fixture", "gcd-violator-dual"], capsys)
        assert (code, out) == (EX_INTERNAL, "")
        assert "FactConflict" in err

    def test_table_undecided_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("shellcert.orders.NODE_BUDGET", 10)
        code, out, _ = self.run(["table", "--fixture", "gcd-violator"], capsys)
        assert code == EX_UNDECIDED == 3
        assert out.splitlines() == [
            "catalog claim: ('F', 'F', 'F', 'claim:T')",
            "dual shellable: F            (computed)",
            "strong gcd:     unknown      [undecided: search budget of 10 states exhausted]",
            "dual seq. CM:   F            (computed)",
            "Golod:          out-of-scope [no algebraic verification performed]",
        ]

    def test_random_deterministic(self, capsys):
        a = self.run(["random", "--seed", "5", "--vertices", "6", "--density", "0.5"], capsys)
        b = self.run(["random", "--seed", "5", "--vertices", "6", "--density", "0.5"], capsys)
        assert a == b and a[0] == 0

    def test_random_flag(self, capsys):
        code, out, _ = self.run(["random", "--seed", "3", "--vertices", "6", "--flag"], capsys)
        assert code == 0
        c = parse_complex(out)
        assert sc.is_flag(c)

    def test_hunt(self, capsys):
        code, out, _ = self.run(["hunt", "--seed", "2", "--budget", "25"], capsys)
        assert code == 0
        assert "no counterexample found" in out

    def test_hunt_negative_budget_is_input_error(self, capsys):
        code, out, err = self.run(["hunt", "--seed", "1", "--budget", "-3"], capsys)
        assert code == EX_INPUT
        assert out == "" and "input error" in err

    def test_verify_paper(self, capsys):
        code, out, _ = self.run(["verify-paper"], capsys)
        assert code == 0
        assert "FAIL" not in out
        lines = [ln for ln in out.splitlines() if ln.startswith("[PASS]")]
        assert len(lines) >= 15

    @pytest.mark.parametrize("doc", MALFORMED_JSON)
    def test_malformed_json_is_input_error(self, doc, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = self.run(["dual", str(path)], capsys)
        assert code == EX_INPUT
        assert out == "" and "input error" in err

    def test_numeric_faces_with_a_string_vertex(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("vertices: 1 2 a\n1 2\n")
        code, out, err = self.run(["dual", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["vertices"] == ["1", "2", "a"]

    def test_missing_input_is_input_error(self, capsys):
        code, _, err = self.run(["dual"], capsys)
        assert code == 2

    def test_unknown_fixture_is_input_error(self, capsys):
        code, _, _ = self.run(["dual", "--fixture", "nope"], capsys)
        assert code == 2

    def test_file_and_fixture_together_is_input_error(self, capsys, tmp_path):
        # the hollow triangle is not flag; the pentagon fixture is
        path = tmp_path / "tri.json"
        path.write_text('{"vertices":[1,2,3], "facets":[[1,2],[2,3],[1,3]]}')
        assert self.run(["flag", str(path)], capsys)[0] == EX_FAIL
        code, out, err = self.run(["flag", str(path), "--fixture", "pentagon"], capsys)
        assert code == EX_INPUT
        assert out == "" and "input error" in err

    def test_undecodable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"vertices: 1 2\n1 \xff\n")
        code, _, err = self.run(["dual", str(path)], capsys)
        assert code == EX_INPUT and "input error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = self.run(["dual", "/nonexistent/path.json"], capsys)
        assert code == 2


# Generated documents for the fuzz tests.  Every vertex list has at most six
# entries, so each example is small and finishes quickly.
_LABELS = st.one_of(st.integers(-2, 6), st.sampled_from("abcdef"))
_LABEL_LISTS = st.lists(_LABELS, max_size=6)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=3), _LABELS),
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
_JSON_DOCS = st.one_of(
    _JSON_VALUES,
    st.dictionaries(st.sampled_from(["vertices", "facets", "nonfaces", "extra"]),
                    st.one_of(_LABEL_LISTS, st.lists(_LABEL_LISTS, max_size=5), _JSON_VALUES),
                    max_size=4),
).map(json.dumps)
_TOKENS = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["a", "b", "x", "1.5", "#", "nonfaces"]))
_TEXT_DOCS = st.one_of(
    st.builds(lambda header, switch, lines: "\n".join(
        ["vertices: " + " ".join(header)] + ["nonfaces"] * switch + [" ".join(ln) for ln in lines]),
        st.lists(_TOKENS, max_size=6), st.booleans(), st.lists(st.lists(_TOKENS, max_size=4), max_size=5)),
    # too short to name more than six vertices
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
)
DOCUMENTS = st.one_of(_JSON_DOCS, _TEXT_DOCS)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("ignore:singleton non-face")
class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_parse_returns_complex_or_input_error(self, doc):
        try:
            c = parse_complex(doc)
        except sc.InputError:
            return
        assert isinstance(c, sc.Complex)
        assert c.universe.n <= 6

    @settings(max_examples=150, deadline=None)
    @given(DOCUMENTS)
    def test_dual_exits_ok_or_input_error(self, fuzz_dir, doc):
        path = fuzz_dir / "doc"
        path.write_text(doc, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["dual", str(path)])
        assert code in (0, EX_INPUT), err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS)
    def test_nonfaces_cm_and_scm_answer_or_reject(self, fuzz_dir, doc):
        # a ghosted document gets an answer too; only a malformed or void one exits 2
        path = fuzz_dir / "doc"
        path.write_text(doc, encoding="utf-8")
        for argv in (["nonfaces", str(path)], ["cm", str(path)], ["scm", str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EX_OK, EX_FAIL, EX_INPUT), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS)
    def test_find_and_table_never_exit_internal_error(self, fuzz_dir, doc):
        path = fuzz_dir / "doc"
        path.write_text(doc, encoding="utf-8")
        for argv in (["find", "weak", str(path)], ["table", str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EX_OK, EX_FAIL, EX_INPUT, EX_UNDECIDED), (argv, err.getvalue())
