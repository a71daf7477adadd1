import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellcert as sc
from shellcert.cli import EX_INPUT, EX_INTERNAL, main
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

    def test_find_exit_codes(self, capsys):
        assert self.run(["find", "shelling", "--fixture", "dunce-hat"], capsys)[0] == 1
        code, out, _ = self.run(["find", "weak", "--fixture", "dunce-hat"], capsys)
        assert code == 0 and "found" in out

    def test_find_undecided_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("SHELLCERT_MAX_FACETS", "2")
        # 6 facets in the dual, every full-union pair has a possible saver, and
        # the budget is too small to decide weak shellability of the dual
        monkeypatch.setattr("shellcert.orders.DEFAULT_NODE_BUDGET", 10)
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

    def test_homology_odd_prime(self, capsys):
        code, out, _ = self.run(
            ["homology", "--fixture", "projective-plane", "--field", "gf5"], capsys)
        assert code == 0
        assert "H~1=0" in out and "GF(5)" in out

    def test_homology_bad_field(self, capsys):
        code, _, err = self.run(
            ["homology", "--fixture", "pentagon", "--field", "gf9"], capsys)
        assert code == 2

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

    def test_cm_degenerate_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices":[1,2,3], "facets":[[1,2]]}')
        code, out, _ = self.run(["cm", str(path)], capsys)
        assert code == 2 and "degenerate" in out

    def test_table(self, capsys):
        code, out, _ = self.run(["table", "--fixture", "strong-gcd-witness"], capsys)
        assert code == 0
        assert "dual shellable: F" in out
        assert "strong gcd:     T" in out
        assert "inferred:gcd-implies-golod" in out

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

    def test_missing_input_is_input_error(self, capsys):
        code, _, err = self.run(["dual"], capsys)
        assert code == 2

    def test_unknown_fixture_is_input_error(self, capsys):
        code, _, _ = self.run(["dual", "--fixture", "nope"], capsys)
        assert code == 2

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
