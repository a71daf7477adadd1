"""Command-line surface.

Subcommands operate on a complex document (JSON or plain text, see
``formats``) given as a file path, ``-`` for stdin, or ``--fixture NAME`` for
a bundled catalog complex; exactly one of them.  ``main`` loads that one
input, so a loading error wins over the command's own errors, and passes the
complex to the command as ``cmd_<name>(c, args)``; the commands that read no
complex (``verify-paper``, ``random``, ``hunt``) take ``cmd_<name>(args)``.

Exit codes: 0 the property holds / verification passed, 1 the property fails
or a counterexample was found, 2 input error, 3 undecided (an order search
ran out of its budget of ``orders.NODE_BUDGET`` states), 4 internal error (a
bug, never an answer).  ``find`` checks the order it found with the paired
``check_*`` before printing it, and a rejected order is an internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import catalog
from .complexes import (
    Complex,
    InputError,
    Undecided,
    alexander_dual,
    is_flag,
    minimal_nonfaces,
)
from .facts import build_fact_table
from .formats import parse_complex, to_json_document
from .generators import random_complex, random_flag_complex
from .homology import DEFAULT_FIELDS, Field, cm_reports, is_cohen_macaulay, is_sequentially_cm, reduced_homology
from .hunt import hunt_counterexample
from .orders import (
    check_shelling_order,
    check_strong_gcd_order,
    check_weak_shelling_order,
    find_shelling_order,
    find_strong_gcd_order,
    find_weak_shelling_order,
)
from .verify import run_claims

EX_OK = 0
EX_FAIL = 1
EX_INPUT = 2
EX_UNDECIDED = 3
EX_INTERNAL = 4

def _conditions() -> dict:
    """CLI condition name -> (kind, checker, finder), where the kind is the
    condition's printed name; built from this module's names when a command
    runs, so a replaced name takes effect."""
    return {
        "shelling": ("shelling", check_shelling_order, find_shelling_order),
        "weak": ("weak-shelling", check_weak_shelling_order, find_weak_shelling_order),
        "sgcd": ("strong-gcd", check_strong_gcd_order, find_strong_gcd_order),
    }


def _load(args) -> Complex:
    if bool(args.fixture) == bool(args.input):
        raise InputError("give one input: a file path, '-' for stdin, or --fixture NAME")
    if args.fixture:
        maker = catalog.FIXTURES.get(args.fixture)
        if maker is None:
            raise InputError("unknown fixture %r (have: %s)"
                             % (args.fixture, ", ".join(sorted(catalog.FIXTURES))))
        return maker()
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(str(e))
    return parse_complex(text)


def _parse_order(spec: str, items) -> list:
    """An order given as comma-separated 0-based positions into the canonical list; "" is empty."""
    try:
        idx = [int(t) for t in spec.split(",")] if spec else []
    except ValueError:
        raise InputError("--order must be comma-separated integer positions")
    if sorted(idx) != list(range(len(items))):
        raise InputError("--order must be a permutation of 0..%d" % (len(items) - 1) if items
                         else "--order must be empty: there is nothing to order")
    return [items[i] for i in idx]


def cmd_dual(c, args) -> int:
    print(to_json_document(alexander_dual(c)))
    return EX_OK


def cmd_nonfaces(c, args) -> int:
    for m in minimal_nonfaces(c):
        print(" ".join(str(v) for v in c.universe.members(m)))
    return EX_OK


def cmd_flag(c, args) -> int:
    verdict = is_flag(c)
    print("flag" if verdict else "not flag")
    return EX_OK if verdict else EX_FAIL


def cmd_check(c, args) -> int:
    kind, check, _ = _conditions()[args.condition]
    items = minimal_nonfaces(c) if args.condition == "sgcd" else list(c.facets)
    rep = check(c, _parse_order(args.order, items))
    if rep.ok:
        print("valid %s order" % kind)
        return EX_OK
    print("invalid %s order: %r" % (kind, rep.witness))
    return EX_FAIL


def cmd_find(c, args) -> int:
    kind, check, find = _conditions()[args.condition]
    cert = find(c)
    if cert is None:
        print("none exists")
        return EX_FAIL
    try:
        valid = check(c, cert).ok
    except InputError:  # not even a permutation: the finder's fault, not the input's
        valid = False
    if not valid:
        raise RuntimeError("the %s order found fails its check" % kind)
    print("found %s order:" % kind)
    for m in cert.sequence:
        print("  {%s}" % ",".join(str(v) for v in c.universe.members(m)))
    return EX_OK


def _fields(args):
    """Fields named by --field, each once in first-seen order, or the defaults."""
    if args.field:
        return tuple(dict.fromkeys(Field.parse(f) for f in args.field))
    return DEFAULT_FIELDS


def cmd_homology(c, args) -> int:
    for f in _fields(args):
        print(str(reduced_homology(c, f)))
    return EX_OK


def _cm_command(c, args, tester) -> int:
    worst = EX_OK
    for f, rep in cm_reports(tester, c, _fields(args)):
        if rep.ok:
            print("%s: yes" % f)
        else:
            print("%s: no, witness %r" % (f, rep.witness))
            worst = EX_FAIL
    return worst


def cmd_cm(c, args) -> int:
    return _cm_command(c, args, is_cohen_macaulay)


def cmd_scm(c, args) -> int:
    return _cm_command(c, args, is_sequentially_cm)


def cmd_table(c, args) -> int:
    table = build_fact_table(c, fields=_fields(args))
    if args.fixture in catalog.CLAIMS:
        print("catalog claim: %s" % (catalog.CLAIMS[args.fixture],))
    print(table.as_text())
    undecided = any(s.note.startswith("undecided") for s in table.slots.values())
    return EX_UNDECIDED if undecided else EX_OK


def cmd_verify_paper(args) -> int:
    results = run_claims()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = (" (%s)" % r.detail) if (r.detail and not r.passed) else ""
        print("[%s] %s%s" % (status, r.name, detail))
        failed += 0 if r.passed else 1
    print("%d/%d claims passed" % (len(results) - failed, len(results)))
    return EX_OK if failed == 0 else EX_FAIL


def cmd_random(args) -> int:
    if args.flag:
        c = random_flag_complex(args.seed, args.vertices, args.edge_prob)
    else:
        c = random_complex(args.seed, args.vertices, args.density)
    print(to_json_document(c))
    return EX_OK


def cmd_hunt(args) -> int:
    report = hunt_counterexample(args.seed, args.budget)
    print(report.as_text())
    return EX_FAIL if report.hits else EX_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="shellcert",
                                  description="decide and certify order conditions on simplicial complexes")
    sub = top.add_subparsers(dest="command", required=True)

    for name, func, text in (("dual", cmd_dual, "print the Alexander dual"),
                             ("nonfaces", cmd_nonfaces, "print the minimal non-faces"),
                             ("flag", cmd_flag, "is every minimal non-face a pair?")):
        sub.add_parser(name, help=text).set_defaults(func=func)

    p = sub.add_parser("check", help="validate a given order")
    p.add_argument("condition", choices=sorted(_conditions()))
    p.add_argument("--order", required=True,
                   help="comma-separated 0-based positions into the canonical facet "
                        "(or non-face, for sgcd) list")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("find", help="search for an order; exit 3 when undecided")
    p.add_argument("condition", choices=sorted(_conditions()))
    p.set_defaults(func=cmd_find)

    for name, func, text in (("homology", cmd_homology, "reduced homology ranks"),
                             ("cm", cmd_cm, "Cohen-Macaulay test (link vanishing)"),
                             ("scm", cmd_scm, "sequentially Cohen-Macaulay test (pure skeleta)"),
                             ("table", cmd_table, "the four-condition fact table with provenance")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--field", action="append",
                       help="gf2, gf<p> or GF(p) for a prime p < 2**31, or q (repeatable)")
        p.set_defaults(func=func)

    # every command so far reads one complex; its input options come last
    for p in sub.choices.values():
        p.add_argument("input", nargs="?", help="complex document path, or '-' for stdin")
        p.add_argument("--fixture", help="use a bundled catalog complex instead of a file")

    p = sub.add_parser("verify-paper", help="re-derive every bundled catalog claim")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("random", help="emit a seeded random complex as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--flag", action="store_true", help="clique complex of a random graph")
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("hunt", help="hunt for a sequentially CM complex that is not weakly shellable")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, required=True, help="number of candidates to screen")
    p.set_defaults(func=cmd_hunt)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    # argparse fills the optional `input` while reading `check`'s condition, so
    # a path after `--order` is left over: it is the input
    if (rest and "input" in args and args.input is None
            and (rest[0] == "-" or not rest[0].startswith("-"))):
        args.input = rest.pop(0)
    if rest:
        parser.error("unrecognized arguments: %s" % " ".join(rest))
    try:
        if "input" in args:
            return args.func(_load(args), args)
        return args.func(args)
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EX_INPUT
    except Undecided as e:
        print("undecided: %s" % e)
        return EX_UNDECIDED
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EX_INTERNAL

