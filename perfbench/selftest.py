"""Shows that the benchmark's checks are live.

One certificate, one homology rank and one hunt count are corrupted on their
way out of the program.  Each corrupted operation must be counted as failed
(and as a wrong answer), while the same operation left alone must pass.
Run with ``python3 perfbench/run.py --self-test``; exit code 0 means every
corruption was caught.
"""

from __future__ import annotations

import dataclasses
import sys

import harness
import inputs
import oracle
import workloads


def _caught(ctx, op, corrupt) -> bool:
    clean = harness.Tally()
    harness.run_op(ctx, op, harness.NULL, clean)
    bad = harness.Tally()
    harness.run_op(ctx, dataclasses.replace(op, call=lambda tr: corrupt(op.call(tr))),
                   harness.NULL, bad)
    return clean.failed == 0 and bad.wrong == 1 and bad.failed == bad.attempted > 0


def _certificate_case(ctx):
    """A shelling certificate with two facets swapped so the order breaks."""
    sc = ctx.sc
    for spec in inputs.decide_specs(1)["random"]:
        c = workloads.build(sc, spec)
        cert = sc.find_shelling_order(c)
        if cert is None:
            continue
        sets = [frozenset(m) for m in cert.members()]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                swapped = sets[:]
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if not all(oracle.shelling_step_ok(swapped[:k], swapped[k])
                           for k in range(1, len(swapped))):
                    seq = tuple(c.universe.mask(s) for s in swapped)
                    op = workloads.find_op(ctx, "shelling", spec, c)
                    return op, lambda out, seq=seq: dataclasses.replace(out, sequence=seq)
    raise RuntimeError("no shelling certificate to corrupt")


def _rank_case(ctx):
    """One extra homology generator in degree 0 over Q for the pentagon."""
    spec = next(s for s in inputs.space_specs() if s.name == "pentagon")
    op = workloads.rank_op(ctx, spec, workloads.build(ctx.sc, spec), "Q")
    return op, lambda prof: dataclasses.replace(
        prof, ranks=tuple((d, r + (d == 0)) for d, r in prof.ranks))


def _hunt_case(ctx):
    """One candidate too many in a hunt stage."""
    op = workloads.hunt_op(ctx, 3, 60)
    return op, lambda rep: dataclasses.replace(
        rep, counts=dict(rep.counts, **{"weak-order-found": rep.counts["weak-order-found"] + 1}))


def main() -> int:
    ctx = workloads.Context(harness.load_program())
    ok = True
    for name, case in (("certificate", _certificate_case), ("rank", _rank_case),
                       ("hunt count", _hunt_case)):
        op, corrupt = case(ctx)
        caught = _caught(ctx, op, corrupt)
        ok &= caught
        print("self-test: corrupted %s in %s: %s" % (name, op.name, "caught" if caught else "NOT CAUGHT"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
