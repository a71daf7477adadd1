"""Reading and writing complexes as JSON documents or plain text.

JSON form: ``{"vertices": [...], "facets": [[...], ...]}`` or the same with
``"nonfaces"`` instead of ``"facets"``; exactly one of the two keys must be
present.  Labels are JSON integers or strings.

Plain-text form: a first line ``vertices: a b c ...`` followed by one facet
per line (whitespace-separated labels); a line consisting of the word
``nonfaces`` switches the remaining lines to minimal non-face form.  When
every label in the document, on the vertices line and in the faces, parses
as an integer, all labels are integers; otherwise all are strings.
"""

from __future__ import annotations

import json

from .complexes import Complex, InputError, VertexSet, from_facets, from_minimal_nonfaces

__all__ = ["parse_complex", "to_json_document", "to_text"]


def _build(vertices, faces, nonface_form: bool) -> Complex:
    u = VertexSet.of(vertices)
    if nonface_form:
        return from_minimal_nonfaces(u, faces)
    return from_facets(u, faces)


def _parse_json(doc: dict) -> Complex:
    """The complex of a decoded JSON document, which is always an object.

    ``parse_complex`` decodes only text whose first character after
    ``str.lstrip`` is ``{``.  JSON's whitespace (space, tab, newline,
    carriage return) is a subset of what ``lstrip`` removes, so the decoder's
    first token is that ``{`` or a character it rejects; an object is then
    the only value it can return, since anything after the closing brace is
    "Extra data".  An array, string, number or null never gets here.
    """
    if "vertices" not in doc:
        raise InputError("document lacks a 'vertices' key")
    has_f = "facets" in doc
    has_n = "nonfaces" in doc
    if has_f == has_n:
        raise InputError("exactly one of 'facets'/'nonfaces' must be present")
    if not _is_labels(doc["vertices"]):
        raise InputError("'vertices' must be a list of integers or strings")
    faces = doc["facets"] if has_f else doc["nonfaces"]
    if not isinstance(faces, list) or not all(_is_labels(f) for f in faces):
        raise InputError("faces must be lists of integer or string labels")
    extra = set(doc) - {"vertices", "facets", "nonfaces"}
    if extra:
        raise InputError("unrecognized keys: %s" % ", ".join(sorted(extra)))
    return _build(doc["vertices"], faces, has_n)


def _is_labels(value) -> bool:
    """A list of integers or strings; JSON true and false decode to bool, not int."""
    return isinstance(value, list) and all(type(v) in (int, str) for v in value)


def _parse_text(text: str) -> Complex:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("vertices:"):
        raise InputError("first line must be 'vertices: <labels>'")
    vertices = lines[0].split(":", 1)[1].split()
    nonface_form = False
    body = lines[1:]
    if body and body[0].lower() == "nonfaces":
        nonface_form = True
        body = body[1:]
    faces = [ln.split() for ln in body]
    # one coercion for the whole document, so a label means the same everywhere
    try:
        vertices, faces = [int(t) for t in vertices], [[int(t) for t in f] for f in faces]
    except ValueError:
        pass
    return _build(vertices, faces, nonface_form)


def parse_complex(text: str) -> Complex:
    """Parse a complex document, auto-detecting JSON versus plain text.

    Text that starts with ``{`` after leading whitespace is decoded as JSON
    (``_parse_json``); all other text, a JSON array, string, number or null
    included, is read as plain text and so fails on its first line unless
    that line is ``vertices: <labels>``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:  # nesting too deep to decode
            raise InputError("invalid JSON: %s" % e)
        return _parse_json(doc)
    return _parse_text(text)


def to_json_document(c: Complex) -> str:
    """Canonical JSON rendering (facet form), stable across runs."""
    doc = {
        "vertices": list(c.universe.labels),
        "facets": [list(fs) for fs in c.facet_members()],
    }
    return json.dumps(doc, separators=(", ", ": "))


def to_text(c: Complex) -> str:
    lines = ["vertices: " + " ".join(str(v) for v in c.universe.labels)]
    for fs in c.facet_members():
        lines.append(" ".join(str(v) for v in fs))
    return "\n".join(lines)
