import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations, count
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellcert as sc
from shellcert import catalog, orders
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


# JSON values other than an object: only text starting with "{" is decoded, so these
# are read as plain text and fail on their first line
JSON_NON_OBJECTS = ["[1, 2]", '"x"', "3", "null", '  [ {"vertices": [1]} ]']


# (arguments, a document whose path is appended, or None; the input error's message)
INPUT_ERRORS = [
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gfx"], None,
                 "unrecognized field 'gfx' (expected gf<p> or q)", id="field-gfx"),
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gf()"], None,
                 "unrecognized field 'gf()' (expected gf<p> or q)", id="field-gf()"),
    pytest.param(["cm", "--fixture", "pentagon", "--field", "rationals"], None,
                 "unrecognized field 'rationals' (expected gf<p> or q)", id="field-rationals"),
    pytest.param(["cm", "--fixture", "pentagon", "--field", "gf3_1"], None,
                 "unrecognized field 'gf3_1' (expected gf<p> or q)", id="field-gf3_1"),
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gf1"], None,
                 "characteristic must be prime, got 1", id="field-gf1"),
    pytest.param(["homology", "--fixture", "pentagon", "--field", "gf(4)"], None,
                 "characteristic must be prime, got 4", id="field-gf(4)"),
    pytest.param(["check", "shelling", "--fixture", "pentagon", "--order", "0,1,x"], None,
                 "--order must be comma-separated integer positions", id="order-not-integers"),
    pytest.param(["check", "sgcd", "--order", "0"], '{"vertices": [1,2,3], "facets": [[1,2,3]]}',
                 "--order must be empty: there is nothing to order", id="order-of-no-nonfaces"),
    pytest.param(["check", "shelling", "--order", "0"], '{"vertices": [1,2,3], "facets": []}',
                 "--order must be empty: there is nothing to order", id="order-of-no-facets"),
    pytest.param(["dual"], '{"vertices": [1,2], "nonfaces": [[1,2],[1,2]]}',
                 "duplicate non-faces", id="nonfaces-duplicate"),
    pytest.param(["dual"], '{"vertices": [1,2], "nonfaces": [[]]}',
                 "the empty set cannot be a minimal non-face", id="nonfaces-empty-set"),
    pytest.param(["cm"], '{"vertices": [1, 2, 3, 4], "facets": [[1, 2], [3, 4]], '
                 '"facets": [[1, 2], [2, 3], [3, 4]]}',
                 "duplicate key 'facets' in a JSON object", id="json-repeated-key"),
]


# every command that reads a complex: the arguments before its input, and after
READERS = [
    pytest.param(["dual"], [], id="dual"),
    pytest.param(["nonfaces"], [], id="nonfaces"),
    pytest.param(["flag"], [], id="flag"),
    pytest.param(["check", "shelling"], ["--order", "0"], id="check"),
    pytest.param(["check", "shelling", "--order", "0"], [], id="check-path-after-order"),
    pytest.param(["find", "weak"], [], id="find"),
    pytest.param(["homology"], [], id="homology"),
    pytest.param(["cm"], [], id="cm"),
    pytest.param(["scm"], [], id="scm"),
    pytest.param(["table"], [], id="table"),
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

    def test_repeated_key_rejected(self):
        # were the last value kept, the document would be read as its second list
        edges, path = '"facets": [[1, 2], [3, 4]]', '"facets": [[1, 2], [2, 3], [3, 4]]'
        for first, last in ((edges, path), (path, edges)):
            with pytest.raises(sc.InputError) as info:
                parse_complex('{"vertices": [1, 2, 3, 4], %s, %s}' % (first, last))
            assert str(info.value) == "duplicate key 'facets' in a JSON object"
        with pytest.raises(sc.InputError, match="^duplicate key 'vertices' in a JSON object$"):
            parse_complex('{"vertices": [1], "vertices": [1, 2], "facets": [[1, 2]]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(sc.InputError):
            parse_complex('{"vertices": [1,2,')

    @pytest.mark.parametrize("doc", MALFORMED_JSON)
    def test_malformed_json_rejected(self, doc):
        with pytest.raises(sc.InputError):
            parse_complex(doc)

    @pytest.mark.parametrize("doc", JSON_NON_OBJECTS)
    def test_json_non_objects_are_read_as_text(self, doc):
        with pytest.raises(sc.InputError) as info:
            parse_complex(doc)
        assert str(info.value) == "first line must be 'vertices: <labels>'"

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

    def test_text_integer_labels_are_ascii_digits_with_an_optional_minus(self):
        for label in ("1_2", "+1", "\u0663"):  # the last is ARABIC-INDIC DIGIT THREE
            c = parse_complex("vertices: %s 5\n%s 5\n" % (label, label))
            assert c.universe.labels == (label, "5")
        c = parse_complex("vertices: -1 0 01\n-1 0\n0 01\n")
        assert c.universe.labels == (-1, 0, 1)
        assert c.facet_members() == [(-1, 0), (0, 1)]
        # 1_2 is a string label, not a second 12
        c = parse_complex("vertices: 1_2 12\n1_2\n12\n")
        assert c.universe.labels == ("1_2", "12")

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

    @pytest.mark.parametrize("doc", JSON_NON_OBJECTS)
    def test_dual_stdin_json_non_object(self, doc, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert self.run(["dual", "-"], capsys) == (
            EX_INPUT, "", "input error: first line must be 'vertices: <labels>'\n")

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
        # a shelling witness prints its faces as labels: ab and cd meet in the
        # empty face, whose mask 0 would read as vertex a
        path2 = tmp_path / "d.txt"
        path2.write_text("vertices: a b c d e\na b\nc d\nb c\nd e\n")
        code, out, _ = self.run(["check", "shelling", str(path2), "--order", "0,2,1,3"], capsys)
        assert (code, out) == (EX_FAIL, "invalid shelling order: "
                               "StepWitness(step=1, intersection=((),), required_dim=0)\n")
        path2.write_text("vertices: a b c d e\na b c\nc d e\n")
        code, out, _ = self.run(["check", "shelling", str(path2), "--order", "0,1"], capsys)
        assert (code, out) == (EX_FAIL, "invalid shelling order: "
                               "StepWitness(step=1, intersection=(('c',),), required_dim=1)\n")

    def test_check_prints_the_library_witness(self, capsys, tmp_path):
        # the reversed canonical facet and non-face orders of the CI transcript's
        # sources: the CLI prints the checker's verdict and witness as returned
        path = tmp_path / "labelled.txt"
        path.write_text("vertices: a b c d e f\na b c\nc d\nd e f\nb e\na f\n")
        sources = [(["--fixture", name], make()) for name, make in catalog.FIXTURES.items()]
        sources.append(([str(path)], parse_complex(path.read_text())))
        conditions = {"shelling": ("shelling", sc.check_shelling_order),
                      "weak": ("weak-shelling", sc.check_weak_shelling_order),
                      "sgcd": ("strong-gcd", sc.check_strong_gcd_order)}
        failed = 0
        for where, c in sources:
            for condition, (kind, check) in conditions.items():
                items = sc.minimal_nonfaces(c) if condition == "sgcd" else c.facets
                rep = check(c, list(reversed(items)))
                order = ",".join(map(str, reversed(range(len(items)))))
                code, out, _ = self.run(["check", condition, "--order", order, *where], capsys)
                if rep.witness is None:
                    assert (code, out) == (EX_OK, "valid %s order\n" % kind)
                else:
                    assert (code, out) == (EX_FAIL, "invalid %s order: %r\n" % (kind, rep.witness))
                    failed += 1
        assert 0 < failed < 3 * len(sources)

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
                                lambda c: sc.OrderCertificate(c, wrong(c)))
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
        rejected = sc.CheckReport(sc.PairWitness(0, 1))
        monkeypatch.setattr("shellcert.facts.check_strong_gcd_order", lambda c, order: rejected)
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

    @pytest.mark.parametrize("case", ["missing-input", "file-and-fixture", "unknown-fixture",
                                      "missing-file", "undecodable-file"])
    @pytest.mark.parametrize("command, options", READERS)
    def test_every_reader_reports_a_loading_error_as_dual_does(self, command, options, case, capsys, tmp_path):
        good = tmp_path / "tri.json"
        good.write_text('{"vertices":[1,2,3], "facets":[[1,2],[2,3],[1,3]]}')
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes(b"vertices: 1 2\n1 \xff\n")
        source = {
            "missing-input": [],
            "file-and-fixture": [str(good), "--fixture", "pentagon"],
            "unknown-fixture": ["--fixture", "nope"],
            "missing-file": [str(tmp_path / "missing.json")],
            "undecodable-file": [str(undecodable)],
        }[case]
        code, out, err = self.run(["dual"] + source, capsys)
        assert (code, out) == (EX_INPUT, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert self.run(command + source + options, capsys) == (code, out, err)

    def test_check_reads_a_path_after_the_order(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "path.json"
        path.write_text('{"vertices":[1,2,3,4], "facets":[[1,2],[2,3],[3,4]]}')
        for order, code in (("0,1,2", EX_OK), ("0,2,1", EX_FAIL), ("", EX_INPUT)):
            expected = self.run(["check", "shelling", str(path), "--order", order], capsys)
            assert expected[0] == code
            assert self.run(["check", "shelling", "--order", order, str(path)], capsys) == expected
            monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
            assert self.run(["check", "shelling", "--order", order, "-"], capsys) == expected
        # a second path, or an unknown option, is still not accepted
        for extra in ([str(path)], ["--bogus"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["check", "shelling", "--order", "0,1,2", str(path)] + extra)
            assert exit_info.value.code == EX_INPUT
            assert "unrecognized arguments: %s" % extra[0] in capsys.readouterr().err

    def test_loading_error_wins_over_a_bad_order(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        expected = self.run(["dual", missing], capsys)
        assert expected[0] == EX_INPUT and expected[2].startswith("input error: [Errno 2]")
        assert self.run(["check", "shelling", missing, "--order", "x"], capsys) == expected


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


# one fresh file name per fuzzed document: rewriting one file costs far more than a new one
_FUZZ_NAMES = count()


def fuzz_path(fuzz_dir, doc):
    """A new file in fuzz_dir holding doc."""
    path = fuzz_dir / ("doc%d" % next(_FUZZ_NAMES))
    path.write_text(doc, encoding="utf-8")
    return path


def run_quietly(argv):
    """(exit code, stdout, stderr) of one CLI run, outside pytest's capture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the commands that search for an order, and the four slot lines of a table
SEARCHERS = (["find", "shelling"], ["find", "weak"], ["find", "sgcd"], ["table"])
SLOT_NAMES = ["dual shellable", "strong gcd", "dual seq. CM", "Golod"]


def run_searcher(argv):
    """Run one searching command; any answer but an internal error will do,
    and an undecided table still prints every slot."""
    code, out, err = run_quietly(argv)
    assert code in (EX_OK, EX_FAIL, EX_INPUT, EX_UNDECIDED), (argv, err)
    assert "Traceback" not in err, argv
    if argv[0] == "table" and code == EX_UNDECIDED:
        slots = [ln.split(":")[0] for ln in out.splitlines() if not ln.startswith("catalog claim")]
        assert slots == SLOT_NAMES, (argv, out)
    return code


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
        path = fuzz_path(fuzz_dir, doc)
        code, _, err = run_quietly(["dual", str(path)])
        assert code in (0, EX_INPUT), err

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS)
    def test_nonfaces_cm_and_scm_answer_or_reject(self, fuzz_dir, doc):
        # a ghosted document gets an answer too; only a malformed or void one exits 2
        path = fuzz_path(fuzz_dir, doc)
        for argv in (["nonfaces", str(path)], ["cm", str(path)], ["scm", str(path)]):
            code, _, err = run_quietly(argv)
            assert code in (EX_OK, EX_FAIL, EX_INPUT), (argv, err)
            assert "Traceback" not in err, argv

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS)
    def test_find_and_table_never_exit_internal_error(self, fuzz_dir, doc):
        path = fuzz_path(fuzz_dir, doc)
        for argv in (["find", "weak", str(path)], ["table", str(path)]):
            code, _, err = run_quietly(argv)
            assert code in (EX_OK, EX_FAIL, EX_INPUT, EX_UNDECIDED), (argv, err)

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS)
    def test_searches_at_a_budget_of_one_state_never_exit_internal_error(self, fuzz_dir, doc):
        # patched in the body: Hypothesis rejects function-scoped fixtures such as monkeypatch
        path = fuzz_path(fuzz_dir, doc)
        with mock.patch.object(orders, "NODE_BUDGET", 1):
            for argv in SEARCHERS:
                run_searcher(argv + [str(path)])

    def test_searches_on_the_fixtures_at_a_budget_of_one_state(self):
        # the fixtures reach the budget, so the undecided path is exercised
        with mock.patch.object(orders, "NODE_BUDGET", 1):
            codes = [run_searcher(argv + ["--fixture", name])
                     for name in sorted(catalog.FIXTURES) for argv in SEARCHERS]
        assert EX_UNDECIDED in codes
