"""Command-line front end.

Subcommands: `cell` (weight-cell report for one weight), `alcove`
(alcove/facette/stabilizer report for one point), `verify` (exhaustive
or sampled consistency sweeps), `atlas` (cell decomposition of a box of
weights), `certificate` (the upper-bound construction, leg by leg).

One parser, built on the first `main` call and kept for the process,
dispatches: each subcommand sets `run` to its `cmd_*`, which reads the
parsed namespace itself.  The option defaults live in the parser, and an
absent `--box` stays None down to `sweeps.window_bound` (2p), so the CLI
restates neither.

The text reports of `cell` and `alcove` are each one ordered list of
rows, and one writer renders the rows as CSV or as human text, so each
field is stated once; the certificate's CSV and human legs share one
per-leg field list.

JSON output is json.dumps(doc, indent=2), written chunk by chunk by
json.dump, and json is imported only on that path.  A certificate, whose
legs are most of its output, is built and fully checked first and then
streamed: the header goes through json.dumps, and each leg is one %-format
of a template made once per certificate, so the document is never held
whole.

Work is bounded by five module constants, none of them an option.
`verify` refuses a --box or --index-bound below 1 for every suite (an
empty window checks nothing), its sampled suites check at most
SAMPLE_CAP points, and its lclosure suite refuses a window of more than
sweeps.LCLOSURE_PAIR_CAP (facette, point) pairs before it builds a point.  `atlas` refuses an empty box or one of more than
ATLAS_POINT_CAP points.  `cell`, `certificate` and `atlas` (on its box's
corner point) count the good bases of gamma (without building one) and
refuse more than GOOD_BASIS_CAP of them.  The weak-order suite's two
reachability searches stop with exit 1 once one holds more than
alcove.DEFAULT_BFS_BOUND families.  A point entry with an exponent is
refused, since 1e999999999 would build a number of any size, and `main`
lifts Python's int-to-text digit limit, so a report prints the whole
numbers its input gives.

Output is byte-deterministic for a fixed invocation and seed.  Exit
codes: 0 success, 1 verification or internal-check failure, 2 usage or
domain error, 141 (128 + SIGPIPE, the status a shell reports for a writer
that SIGPIPE ends) when stdout is closed before the output is written, as
in `alcove-cells ... | head -1`: the rest of the output is dropped, with
no traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction as Q
from itertools import product
from typing import Optional, Sequence

from .alcove import alcove_of, facette_of, stabilizer_subroot_system, upper_walls
from .cells import count_good_bases, d_partition, enumerate_good_bases, gamma
from .errors import (
    InvariantViolationError,
    PreconditionError,
    ResourceLimitError,
)
from .partition import (
    Partition,
    orbit_label,
    partition_of_basis,
    partitions_of,
    transpose,
)
from .rootsys import (
    RootA,
    ShiftedPoint,
    point_from_weight,
    positive_roots,
    shifted_point,
)
from .support import (
    CONJECTURE,
    NO_RESULT,
    UpperBoundCertificate,
    tilting_support,
    upper_bound_certificate,
    weight_cell_of,
)
from . import sweeps

SAMPLE_CAP = 5000
ATLAS_POINT_CAP = 1_000_000
GOOD_BASIS_CAP = 100_000

SUITES = ("lclosure", "weak-order", "good-sup", "reduction", "mu", "lattice", "all")


def _entries(text: str, n: int, option: str, parse, kind: str) -> tuple:
    # an exponent (1e999999999) would build a number of any size from a short entry
    if "e" in text.lower():
        raise PreconditionError(f"{option} takes no exponents, got {text!r}")
    parts = text.split(",")
    if len(parts) != n:
        raise PreconditionError(f"{option} needs {n} entries, got {len(parts)}")
    out = []
    for pos, tok in enumerate(parts, start=1):
        try:
            out.append(parse(tok.strip()))
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(
                f"{option} entry {pos} is not {kind}: {tok!r}"
            ) from None
    return tuple(out)


def _point_of(args: argparse.Namespace) -> ShiftedPoint:
    if args.weight is not None:
        return point_from_weight(_entries(args.weight, args.n, "--weight", int, "an integer"))
    if args.shifted is not None:
        return shifted_point(_entries(args.shifted, args.n, "--shifted", Q, "a rational"))
    raise PreconditionError("this command needs --weight or --shifted")


def _input_doc(args: argparse.Namespace, pt: ShiftedPoint) -> dict:
    if args.weight is not None:
        return {"weight": list(pt.weight())}
    return {"shifted": list(pt.coord_strings())}


def _root_pair(r: RootA) -> list[int]:
    return [r.i, r.j]


def _fmt_root(r: RootA) -> str:
    return f"({r.i},{r.j})"


def _fmt_roots(roots) -> str:
    return " ".join(_fmt_root(r) for r in sorted(roots)) or "-"


def _json_list(items, pad: str) -> str:
    """Already rendered items as json.dumps(..., indent=2) writes a list at the indent pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _emit_json(doc) -> None:
    """json.dumps(doc, indent=2) and a newline, written chunk by chunk, never held whole."""
    import json  # only --format json needs it, and every command is a fresh process

    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _csv_writer():
    import csv  # only --format csv needs it, and every command is a fresh process

    return csv.writer(sys.stdout, lineterminator="\n")


def _fmt_walls(walls) -> str:
    return " ".join(f"{_fmt_root(r)}={m}" for r, m in walls)


def _write_rows(args: argparse.Namespace, pt: ShiftedPoint, title: str, rows) -> None:
    """A report's rows as CSV or as human text, each field stated once.

    A row is (field, text) or (field, text, line).  CSV writes a
    `field,value` header, the n and p rows, and then `field,text` for each
    row with a field.  The human report writes its title line and the
    shifted point, then each row's line, which defaults to `label: text`
    with the field's underscores read as spaces.
    """
    if args.fmt == "csv":
        w = _csv_writer()
        w.writerows([("field", "value"), ("n", args.n), ("p", args.p)])
        w.writerows(row[:2] for row in rows if row[0])
        return
    print(f"{title}  n={args.n}  p={args.p}")
    print(f"shifted point: {','.join(pt.coord_strings())}")
    for row in rows:
        print(row[2] if len(row) > 2 else f"{row[0].replace('_', ' ')}: {row[1]}")


def _refuse_past_good_basis_cap(g: frozenset[RootA]) -> None:
    """Refuse, before any is built, a gamma with more than GOOD_BASIS_CAP good bases.

    A good basis is a subset of gamma, so the count is skipped while
    2^|gamma| is within the cap.
    """
    if 1 << len(g) > GOOD_BASIS_CAP:
        count = count_good_bases(g)
        if count > GOOD_BASIS_CAP:
            raise PreconditionError(
                f"gamma ({len(g)} roots) holds {count} good bases, above the cap of "
                f"{GOOD_BASIS_CAP}; lower the weight or --n, or raise --p"
            )


def cmd_cell(args: argparse.Namespace) -> int:
    pt = _point_of(args)
    if not pt.is_regular_dominant():
        raise PreconditionError(
            "cell reports need a dominant weight (shifted point strictly dominant)"
        )
    n = args.n
    g = gamma(pt, args.p)
    _refuse_past_good_basis_cap(g)
    pred = tilting_support(pt, args.p)
    note = {
        CONJECTURE: f"is at most n+2={n + 2}: the prediction is conjecture-backed",
        NO_RESULT: f"is not a prime of at least n+1={n + 1}: no result backs the prediction",
    }.get(pred.backing)
    if note:
        print(f"alcove-cells: note: p={args.p} {note}", file=sys.stderr)
    s = pred.partition
    cell = transpose(s)
    attaining = [b for b in enumerate_good_bases(g) if partition_of_basis(b, n) == s]
    doc = {
        "n": n,
        "p": args.p,
        "input": _input_doc(args, pt),
        "gamma": [_root_pair(r) for r in sorted(g)],
        "good_bases": [
            [_root_pair(r) for r in sorted(b)] for b in attaining
        ],
        "s": list(s.parts),
        "cell": list(cell.parts),
        "orbit_dim": pred.orbit.dim,
        "backing": pred.backing,
    }
    if args.fmt == "json":
        _emit_json(doc)
        return 0
    rows = [("gamma", _fmt_roots(g))]
    rows += [
        ("good_basis", text, f"good basis attaining s: {text}")
        for text in map(_fmt_roots, attaining)
    ] or [(None, None, "good basis attaining s: none (supremum not attained)")]
    applicable = "yes" if pred.upper_bound_applicable else "no"
    rows += [
        ("s", s),
        ("cell", cell),
        ("orbit_dim", pred.orbit.dim),
        ("backing", pred.backing),
        (None, None, f"upper bound certificate applicable: {applicable}"),
    ]
    _write_rows(args, pt, "cell report", rows)
    return 0


def cmd_alcove(args: argparse.Namespace) -> int:
    pt = _point_of(args)
    n = args.n
    a = alcove_of(pt, args.p)
    f = facette_of(pt, args.p)
    walls = f.wall_roots()
    ups = sorted(upper_walls(a))
    stab = stabilizer_subroot_system(pt, args.p)
    d = d_partition(pt, args.p)
    doc = {
        "n": n,
        "p": args.p,
        "input": _input_doc(args, pt),
        "alcove": list(a.indices),
        "walls": [[r.i, r.j, m] for r, m in walls],
        "upper_walls": [[r.i, r.j, m] for r, m in ups],
        "stabilizer_system": [_root_pair(r) for r in sorted(stab)],
        "d": list(d.parts),
    }
    if args.fmt == "json":
        _emit_json(doc)
        return 0
    roots = " ".join(_fmt_root(r) for r in positive_roots(n))
    aligned = " ".join(f"{i:>5d}" for i in a.indices)
    wall_text = _fmt_walls(walls)
    rows = [
        ("roots", roots, f"roots:  {roots}"),
        ("alcove", " ".join(str(i) for i in a.indices), f"alcove: {aligned}"),
        ("walls", wall_text) if walls else ("walls", "-", "walls: none (interior point)"),
        ("upper_walls", _fmt_walls(ups)),
        ("stabilizer_system", _fmt_roots(stab)),
        ("d", d),
    ]
    _write_rows(args, pt, "alcove report", rows)
    return 0


def _run_suite(name: str, args: argparse.Namespace) -> list[sweeps.SweepResult]:
    n, p, box = args.n, args.p, args.box
    runners = {
        "lclosure": lambda: sweeps.lclosure_sweep(n, p, box),
        "weak-order": lambda: sweeps.weak_order_sweep(n, p, args.index_bound),
        "good-sup": lambda: sweeps.good_sup_sweep(n, p, box, SAMPLE_CAP, args.seed),
        "reduction": lambda: sweeps.reduction_sweep(n, p, box, SAMPLE_CAP, args.seed),
        "mu": lambda: sweeps.mu_sweep(n, p, box, SAMPLE_CAP, args.seed),
        "lattice": lambda: sweeps.lattice_sweep(n, p, box),
    }
    if name != "all":
        return [runners[name]()]
    if p < n + 1:
        skipped = sweeps.SweepResult(f"lattice n={n} p={p}")
        skipped.reports.append("skipped: the lattice-point guarantee needs p >= n+1")
        runners["lattice"] = lambda: skipped
    return [run() for run in runners.values()]


def _window_box(args: argparse.Namespace) -> int:
    """The window's box bound (2p when --box is absent), refused below 1."""
    box = sweeps.window_bound(args.p, args.box)
    if box < 1:
        raise PreconditionError(f"--box must be at least 1, got {box}")
    return box


def cmd_verify(args: argparse.Namespace) -> int:
    # an empty window would check nothing: refuse it for every suite
    _window_box(args)
    if args.index_bound < 1:
        raise PreconditionError(f"--index-bound must be at least 1, got {args.index_bound}")
    results = _run_suite(args.suite, args)
    ok = all(r.ok for r in results)
    if args.fmt == "json":
        suites = [
            {
                "name": r.name,
                "cases": r.cases,
                "failed": r.failed,
                "ok": r.ok,
                "failures": r.failures,
                "reports": r.reports,
            }
            for r in results
        ]
        _emit_json({"suites": suites, "ok": ok})
    elif args.fmt == "csv":
        w = _csv_writer()
        w.writerow(["name", "cases", "failures", "ok"])
        for r in results:
            w.writerow([r.name, r.cases, r.failed, r.ok])
    else:
        for r in results:
            print(r.summary())
            for line in r.reports:
                print(f"  note: {line}")
            if r.failures:
                print(f"  first failure: {r.failures[0]}")
        print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def cmd_atlas(args: argparse.Namespace) -> int:
    n, p = args.n, args.p
    box = _window_box(args)
    # past rank 64 any box > 1 is over the cap, so the exponent stays small
    points = box ** min(n, 64)
    if points > ATLAS_POINT_CAP:
        count = points if n <= 64 else f"{box}^{n}"
        raise PreconditionError(
            f"atlas would locate {count} points ([1, {box}]^{n}), "
            f"above the cap of {ATLAS_POINT_CAP}; lower --box or --n"
        )
    # gamma grows with every coordinate, so the corner's good bases bound every point's
    _refuse_past_good_basis_cap(gamma(shifted_point([box] * n), p))
    buckets: dict[Partition, list[tuple[int, ...]]] = {
        c: [] for c in partitions_of(n + 1)
    }
    for coords in product(range(1, box + 1), repeat=n):
        pt = shifted_point(coords)
        cell = weight_cell_of(pt, p)
        buckets[cell].append(tuple(c - 1 for c in coords))
    if args.fmt == "json":
        cells = {
            ",".join(str(x) for x in c.parts): {
                "orbit_dim": orbit_label(c).dim,
                "count": len(weights),
                "weights": [list(wt) for wt in weights],
            }
            for c, weights in buckets.items()
        }
        _emit_json({"n": n, "p": p, "box": box, "cells": cells})
    elif args.fmt == "csv":
        w = _csv_writer()
        w.writerow(["cell", "orbit_dim", "weight"])
        for c, weights in buckets.items():
            key = ",".join(str(x) for x in c.parts)
            dim = orbit_label(c).dim
            for wt in weights:
                w.writerow([key, dim, ",".join(str(x) for x in wt)])
    else:
        total = sum(len(weights) for weights in buckets.values())
        print(f"atlas  n={n}  p={p}  box={box}  weights={total}")
        for c, weights in buckets.items():
            print(f"cell {c}: orbit dim {orbit_label(c).dim}, {len(weights)} weights")
    return 0


# A certificate's JSON is streamed leg by leg, as json.dumps(doc, indent=2)
# would write it: a leg's keys sit at _LEG_PAD, and a basis root [i, j] is
# a list one level further in.
_LEG_PAD = "\n      "
_ROOT_TEMPLATE = _json_list(["%d", "%d"], _LEG_PAD + "  ")


def _leg_template(n: int, lam: Sequence[int]) -> str:
    """One leg of the "legs" list, with %-slots for all but lambda's alcove.

    The slots are, in order: the separator before the leg, basis and pi as
    rendered lists, the n coordinate strings of mu and then of mu_prime
    (an integral point, whose strings are its integer coordinates),
    d_mu_prime as a rendered list, and mu's alcove's n(n+1)/2 indices.
    A coordinate string holds only digits, "-" and "/", so it needs no JSON
    escape.  Lambda's alcove is the same on every leg, so its text is
    rendered here, once per certificate.
    """
    pad = _LEG_PAD
    return (
        "%s\n    {"
        + pad + '"basis": %s,'
        + pad + '"pi": %s,'
        + pad + '"mu": ' + _json_list(['"%s"'] * n, pad) + ","
        + pad + '"mu_prime": ' + _json_list(["%s"] * n, pad) + ","
        + pad + '"d_mu_prime": %s,'
        + pad + '"mu_alcove": ' + _json_list(["%d"] * len(lam), pad) + ","
        + pad + '"lambda_alcove": ' + _json_list([str(i) for i in lam], pad)
        + "\n    }"
    )


def _write_certificate_json(
    args: argparse.Namespace, pt: ShiftedPoint, cert: UpperBoundCertificate
) -> None:
    """The certificate's document, as json.dumps(doc, indent=2) and a newline, leg by leg.

    Only the header goes through json.dumps; each leg is one %-format of
    _leg_template and one write, so the document is never held whole.  The
    roots of A_n and the partitions of n+1 recur from leg to leg, so each
    is rendered once per certificate.
    """
    import json  # only --format json needs it, and every command is a fresh process

    head = json.dumps(
        {
            "n": args.n,
            "p": args.p,
            "input": _input_doc(args, pt),
            "s": list(cert.s.parts),
            "cell": list(transpose(cert.s).parts),
            "orbit_dim": cert.orbit.dim,
        },
        indent=2,
    )
    write = sys.stdout.write
    # the header's closing "\n}" gives way to the legs
    write(head[:-2] + ',\n  "legs": [')
    template = _leg_template(args.n, cert.legs[0].lambda_alcove.indices)
    pad = _LEG_PAD
    root_text = {r: _ROOT_TEMPLATE % r for r in positive_roots(args.n)}
    rendered: dict[tuple[int, ...], str] = {}
    sep = ""
    for leg in cert.legs:
        pi, d = leg.pi.parts, leg.d_mu_prime.parts
        for parts in (pi, d):
            if parts not in rendered:
                rendered[parts] = _json_list([str(x) for x in parts], pad)
        write(
            template
            % (
                sep,
                _json_list([root_text[r] for r in sorted(leg.basis)], pad),
                rendered[pi],
                *leg.mu.coord_strings(),
                *leg.mu_prime.coord_strings(),
                rendered[d],
                *leg.mu_alcove.indices,
            )
        )
        sep = ","
    write("\n  ]\n}\n")


def cmd_certificate(args: argparse.Namespace) -> int:
    pt = _point_of(args)
    # gamma takes only a regular dominant point; the certificate refuses any other
    if pt.is_regular_dominant():
        _refuse_past_good_basis_cap(gamma(pt, args.p))
    cert = upper_bound_certificate(pt, args.p)
    if args.fmt == "json":
        _write_certificate_json(args, pt, cert)
        return 0
    # every leg holds the point's one alcove: decode its indices once
    lam_text = " ".join(str(i) for i in cert.legs[0].lambda_alcove.indices)
    fields = (
        ("basis", "  basis "),
        ("pi", "    pi: "),
        ("mu", "    mu: "),
        ("mu_prime", "    mu_prime: "),
        ("d_mu_prime", "    d(mu_prime): "),
        ("mu_alcove", "    mu alcove:     "),
        ("lambda_alcove", "    lambda alcove: "),
    )
    legs = [
        (
            _fmt_roots(leg.basis),
            leg.pi,
            ",".join(leg.mu.coord_strings()),
            ",".join(leg.mu_prime.coord_strings()),
            leg.d_mu_prime,
            " ".join(str(i) for i in leg.mu_alcove.indices),
            lam_text,
        )
        for leg in cert.legs
    ]
    if args.fmt == "csv":
        w = _csv_writer()
        w.writerow([field for field, _ in fields])
        w.writerows(legs)
        return 0
    rows = [("legs", len(legs))]
    rows += [
        (None, None, f"{label}{text}")
        for leg in legs
        for (_, label), text in zip(fields, leg)
    ]
    rows += [("s", cert.s), ("cell", transpose(cert.s)), ("orbit_dim", cert.orbit.dim)]
    _write_rows(args, pt, "upper-bound certificate", rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call, then shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="alcove-cells",
        description="Exact alcove, weak-order, and weight-cell computations for type A.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, needs_point: bool = False, box: bool = False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        sp.add_argument("--n", type=int, required=True, help="rank (n >= 1)")
        sp.add_argument("--p", type=int, required=True, help="integer parameter (p >= 1)")
        if needs_point:
            grp = sp.add_mutually_exclusive_group()
            grp.add_argument(
                "--weight", help="dominant weight, comma-separated integers"
            )
            grp.add_argument(
                "--shifted",
                help="rho-shifted point, comma-separated rationals like 9/2",
            )
        if box:
            sp.add_argument("--box", type=int, help="coordinate bound for sweeps/atlases")
        sp.add_argument(
            "--format",
            choices=("human", "json", "csv"),
            default="human",
            dest="fmt",
        )
        return sp

    command("cell", cmd_cell, "weight-cell report for one weight", needs_point=True)
    command("alcove", cmd_alcove, "alcove and facette report for one point", needs_point=True)
    verify = command("verify", cmd_verify, "run a consistency sweep", box=True)
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument(
        "--index-bound", type=int, default=3, help="alcove index cap for sweeps"
    )
    verify.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
    command("atlas", cmd_atlas, "cell decomposition of a box of weights", box=True)
    command("certificate", cmd_certificate, "upper-bound certificate for one weight", needs_point=True)
    return parser


POINT_OPTIONS = ("--weight", "--shifted")


def _join_point_values(argv: Sequence[str]) -> list[str]:
    """Join --weight/--shifted with a following value like -7/2,9/4.

    argparse takes such a value for an option and reports the point
    option as missing its argument; joined as --shifted=-7/2,9/4 it parses.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in POINT_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    # reports print whole numbers as long as the input's: past the default
    # 4300-digit int-to-text limit that Python 3.10.7 and later set
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(_join_point_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.n < 1 or args.p < 1:
            raise PreconditionError("need n >= 1 and p >= 1")
        code = args.run(args)
        # a closed pipe surfaces here, not in the flush at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the exit flush would fail again: point stdout at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except PreconditionError as exc:
        print(f"alcove-cells: error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, ResourceLimitError) as exc:
        print(f"alcove-cells: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
