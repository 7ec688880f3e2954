"""Command-line front end.

Subcommands: `cell` (weight-cell report for one weight), `alcove`
(alcove/facette/stabilizer report for one point), `verify` (exhaustive
or sampled consistency sweeps), `atlas` (cell decomposition of a box of
weights), `certificate` (the upper-bound construction, leg by leg).

Output is byte-deterministic for a fixed invocation and seed.  Exit
codes: 0 success, 1 verification or internal-check failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product
from typing import Optional, Sequence

from .alcove import (
    Wall,
    alcove_of,
    facette_of,
    stabilizer_subroot_system,
    upper_walls,
)
from .cells import d_partition, enumerate_good_bases, gamma, s_partition
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
from .support import tilting_support, upper_bound_certificate
from . import sweeps

SAMPLE_CAP = 5000
ATLAS_POINT_CAP = 1_000_000

SUITES = ("lclosure", "weak-order", "good-sup", "reduction", "mu", "lattice", "all")


@dataclass(frozen=True)
class RunConfig:
    n: int
    p: int
    weight: Optional[tuple[int, ...]]
    shifted: Optional[tuple[Q, ...]]
    box: Optional[int]
    index_bound: int
    bfs_bound: Optional[int]
    fmt: str
    seed: int


def _parse_weight(text: str, n: int) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise PreconditionError(f"--weight needs {n} entries, got {len(parts)}")
    out = []
    for pos, tok in enumerate(parts, start=1):
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise PreconditionError(
                f"--weight entry {pos} is not an integer: {tok!r}"
            ) from None
    return tuple(out)


def _parse_shifted(text: str, n: int) -> tuple[Q, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise PreconditionError(f"--shifted needs {n} entries, got {len(parts)}")
    out = []
    for pos, tok in enumerate(parts, start=1):
        try:
            out.append(Q(tok.strip()))
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(
                f"--shifted entry {pos} is not a rational: {tok!r}"
            ) from None
    return tuple(out)


def _point_of(config: RunConfig) -> ShiftedPoint:
    if config.weight is not None:
        return point_from_weight(config.weight)
    if config.shifted is not None:
        return shifted_point(config.shifted)
    raise PreconditionError("this command needs --weight or --shifted")


def _input_doc(config: RunConfig) -> dict:
    if config.weight is not None:
        return {"weight": list(config.weight)}
    assert config.shifted is not None
    return {"shifted": [str(c) for c in config.shifted]}


def _root_pair(r: RootA) -> list[int]:
    return [r.i, r.j]


def _fmt_root(r: RootA) -> str:
    return f"({r.i},{r.j})"


def _fmt_roots(roots) -> str:
    return " ".join(_fmt_root(r) for r in sorted(roots)) or "-"


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _root_header(n: int) -> str:
    return " ".join(_fmt_root(r) for r in positive_roots(n))


def cmd_cell(config: RunConfig) -> int:
    pt = _point_of(config)
    if not pt.is_regular_dominant():
        raise PreconditionError(
            "cell reports need a dominant weight (shifted point strictly dominant)"
        )
    n = config.n
    g = gamma(pt, config.p)
    s = s_partition(pt, config.p)
    cell = transpose(s)
    attaining = [
        b
        for b in enumerate_good_bases(g)
        if partition_of_basis(b, n) == s
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pred = tilting_support(pt, config.p)
    for w in caught:
        print(f"alcove-cells: note: {w.message}", file=sys.stderr)
    doc = {
        "n": n,
        "p": config.p,
        "input": _input_doc(config),
        "gamma": [_root_pair(r) for r in sorted(g)],
        "good_bases": [
            [_root_pair(r) for r in sorted(b)] for b in attaining
        ],
        "s": list(s.parts),
        "cell": list(cell.parts),
        "orbit_dim": pred.orbit.dim,
        "backing": pred.backing,
    }
    if config.fmt == "json":
        _emit_json(doc)
    elif config.fmt == "csv":
        w = _csv_writer()
        w.writerow(["field", "value"])
        for key in ("n", "p"):
            w.writerow([key, doc[key]])
        w.writerow(["gamma", _fmt_roots(g)])
        for b in attaining:
            w.writerow(["good_basis", _fmt_roots(b)])
        w.writerow(["s", str(s)])
        w.writerow(["cell", str(cell)])
        w.writerow(["orbit_dim", pred.orbit.dim])
        w.writerow(["backing", pred.backing])
    else:
        print(f"cell report  n={n}  p={config.p}")
        print(f"shifted point: {','.join(str(c) for c in pt.coords)}")
        print(f"gamma: {_fmt_roots(g)}")
        if attaining:
            for b in attaining:
                print(f"good basis attaining s: {_fmt_roots(b)}")
        else:
            print("good basis attaining s: none (supremum not attained)")
        print(f"s: {s}")
        print(f"cell: {cell}")
        print(f"orbit dim: {pred.orbit.dim}")
        print(f"backing: {pred.backing}")
        print(
            "upper bound certificate applicable: "
            + ("yes" if pred.upper_bound_applicable else "no")
        )
    return 0


def cmd_alcove(config: RunConfig) -> int:
    pt = _point_of(config)
    n = config.n
    a = alcove_of(pt, config.p)
    f = facette_of(pt, config.p)
    walls = [
        (r, d.index)
        for r, d in zip(positive_roots(n), f.data)
        if isinstance(d, Wall)
    ]
    ups = sorted(upper_walls(a))
    stab = stabilizer_subroot_system(pt, config.p)
    d = d_partition(pt, config.p)
    doc = {
        "n": n,
        "p": config.p,
        "input": _input_doc(config),
        "alcove": list(a.indices),
        "walls": [[r.i, r.j, m] for r, m in walls],
        "upper_walls": [[r.i, r.j, m] for r, m in ups],
        "stabilizer_system": [_root_pair(r) for r in sorted(stab)],
        "d": list(d.parts),
    }
    if config.fmt == "json":
        _emit_json(doc)
    elif config.fmt == "csv":
        w = _csv_writer()
        w.writerow(["field", "value"])
        w.writerow(["n", n])
        w.writerow(["p", config.p])
        w.writerow(["roots", _root_header(n)])
        w.writerow(["alcove", " ".join(str(i) for i in a.indices)])
        w.writerow(["walls", " ".join(f"{_fmt_root(r)}={m}" for r, m in walls) or "-"])
        w.writerow(["upper_walls", " ".join(f"{_fmt_root(r)}={m}" for r, m in ups)])
        w.writerow(["stabilizer_system", _fmt_roots(stab)])
        w.writerow(["d", str(d)])
    else:
        print(f"alcove report  n={n}  p={config.p}")
        print(f"shifted point: {','.join(str(c) for c in pt.coords)}")
        print(f"roots:  {_root_header(n)}")
        print(f"alcove: {' '.join(f'{i:>5d}' for i in a.indices)}")
        if walls:
            print(
                "walls: "
                + " ".join(f"{_fmt_root(r)}={m}" for r, m in walls)
            )
        else:
            print("walls: none (interior point)")
        print(
            "upper walls: "
            + " ".join(f"{_fmt_root(r)}={m}" for r, m in ups)
        )
        print(f"stabilizer system: {_fmt_roots(stab)}")
        print(f"d: {d}")
    return 0


def _sample_for(count: int) -> Optional[int]:
    return None if count <= SAMPLE_CAP else SAMPLE_CAP


def _run_suite(name: str, config: RunConfig) -> list[sweeps.SweepResult]:
    n, p = config.n, config.p
    box = config.box if config.box is not None else 2 * p
    point_count = box**n
    sample = _sample_for(point_count)
    if name == "lclosure":
        return [sweeps.lclosure_sweep(n, p, box)]
    if name == "weak-order":
        return [sweeps.weak_order_sweep(n, p, config.index_bound, config.bfs_bound)]
    if name == "good-sup":
        return [sweeps.good_sup_sweep(n, p, box, sample, config.seed)]
    if name == "reduction":
        return [sweeps.reduction_sweep(n, p, box, sample, config.seed)]
    if name == "mu":
        return [sweeps.mu_sweep(n, p, box, sample, config.seed)]
    if name == "lattice":
        return [sweeps.lattice_sweep(n, p, box)]
    assert name == "all"
    out = []
    for sub in ("lclosure", "weak-order", "good-sup", "reduction", "mu"):
        out.extend(_run_suite(sub, config))
    if p >= n + 1:
        out.extend(_run_suite("lattice", config))
    else:
        skipped = sweeps.SweepResult(f"lattice n={n} p={p}")
        skipped.reports.append("skipped: the lattice-point guarantee needs p >= n+1")
        out.append(skipped)
    return out


def cmd_verify(config: RunConfig, suite: str) -> int:
    results = _run_suite(suite, config)
    ok = all(r.ok for r in results)
    if config.fmt == "json":
        _emit_json(
            {
                "suites": [
                    {
                        "name": r.name,
                        "cases": r.cases,
                        "failed": r.failed,
                        "ok": r.ok,
                        "failures": r.failures,
                        "reports": r.reports,
                    }
                    for r in results
                ],
                "ok": ok,
            }
        )
    elif config.fmt == "csv":
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


def cmd_atlas(config: RunConfig) -> int:
    n, p = config.n, config.p
    box = config.box if config.box is not None else 2 * p
    if box < 1:
        raise PreconditionError(f"--box must be at least 1, got {box}")
    # past rank 64 any box > 1 is over the cap, so the exponent stays small
    points = box ** min(n, 64)
    if points > ATLAS_POINT_CAP:
        count = points if n <= 64 else f"{box}^{n}"
        raise PreconditionError(
            f"atlas would locate {count} points ([1, {box}]^{n}), "
            f"above the cap of {ATLAS_POINT_CAP}; lower --box or --n"
        )
    from .support import weight_cell_of

    buckets: dict[Partition, list[tuple[int, ...]]] = {
        c: [] for c in partitions_of(n + 1)
    }
    for coords in product(range(1, box + 1), repeat=n):
        pt = shifted_point(coords)
        cell = weight_cell_of(pt, p)
        buckets[cell].append(tuple(c - 1 for c in coords))
    doc = {
        "n": n,
        "p": p,
        "box": box,
        "cells": {
            ",".join(str(x) for x in c.parts): {
                "orbit_dim": orbit_label(c).dim,
                "count": len(weights),
                "weights": [list(wt) for wt in weights],
            }
            for c, weights in buckets.items()
        },
    }
    if config.fmt == "json":
        _emit_json(doc)
    elif config.fmt == "csv":
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


def cmd_certificate(config: RunConfig) -> int:
    pt = _point_of(config)
    cert = upper_bound_certificate(pt, config.p)
    doc = {
        "n": config.n,
        "p": config.p,
        "input": _input_doc(config),
        "s": list(cert.s.parts),
        "cell": list(transpose(cert.s).parts),
        "orbit_dim": cert.orbit.dim,
        "legs": [
            {
                "basis": [_root_pair(r) for r in sorted(leg.basis)],
                "pi": list(leg.pi.parts),
                "mu": [str(c) for c in leg.mu.coords],
                "mu_prime": [int(c) for c in leg.mu_prime.coords],
                "d_mu_prime": list(leg.d_mu_prime.parts),
                "mu_alcove": list(leg.mu_alcove.indices),
                "lambda_alcove": list(leg.lambda_alcove.indices),
            }
            for leg in cert.legs
        ],
    }
    if config.fmt == "json":
        _emit_json(doc)
    elif config.fmt == "csv":
        w = _csv_writer()
        w.writerow(
            ["basis", "pi", "mu", "mu_prime", "d_mu_prime", "mu_alcove", "lambda_alcove"]
        )
        for leg in cert.legs:
            w.writerow(
                [
                    _fmt_roots(leg.basis),
                    str(leg.pi),
                    ",".join(str(c) for c in leg.mu.coords),
                    ",".join(str(int(c)) for c in leg.mu_prime.coords),
                    str(leg.d_mu_prime),
                    " ".join(str(i) for i in leg.mu_alcove.indices),
                    " ".join(str(i) for i in leg.lambda_alcove.indices),
                ]
            )
    else:
        print(f"upper-bound certificate  n={config.n}  p={config.p}")
        print(f"shifted point: {','.join(str(c) for c in pt.coords)}")
        print(f"legs: {len(cert.legs)}")
        for leg in cert.legs:
            print(f"  basis {_fmt_roots(leg.basis)}")
            print(f"    pi: {leg.pi}")
            print(f"    mu: {','.join(str(c) for c in leg.mu.coords)}")
            print(
                "    mu_prime: "
                + ",".join(str(int(c)) for c in leg.mu_prime.coords)
            )
            print(f"    d(mu_prime): {leg.d_mu_prime}")
            print(f"    mu alcove:     {' '.join(str(i) for i in leg.mu_alcove.indices)}")
            print(
                f"    lambda alcove: "
                + " ".join(str(i) for i in leg.lambda_alcove.indices)
            )
        print(f"s: {cert.s}")
        print(f"cell: {transpose(cert.s)}")
        print(f"orbit dim: {cert.orbit.dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alcove-cells",
        description="Exact alcove, weak-order, and weight-cell computations for type A.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, needs_point: bool, box: bool = False) -> None:
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

    common(sub.add_parser("cell", help="weight-cell report for one weight"), True)
    common(sub.add_parser("alcove", help="alcove and facette report for one point"), True)
    verify = sub.add_parser("verify", help="run a consistency sweep")
    verify.add_argument("suite", choices=SUITES)
    common(verify, False, box=True)
    verify.add_argument(
        "--index-bound", type=int, default=3, help="alcove index cap for sweeps"
    )
    verify.add_argument(
        "--bfs-bound",
        type=int,
        help="frontier cap for reachability searches (env ALCOVE_CELLS_BFS_BOUND)",
    )
    verify.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
    common(sub.add_parser("atlas", help="cell decomposition of a box of weights"), False, box=True)
    common(
        sub.add_parser("certificate", help="upper-bound certificate for one weight"),
        True,
    )
    return parser


def _config_of(args: argparse.Namespace) -> RunConfig:
    if args.n < 1 or args.p < 1:
        raise PreconditionError("need n >= 1 and p >= 1")
    bfs_bound = getattr(args, "bfs_bound", None)
    if bfs_bound is not None and bfs_bound < 1:
        raise PreconditionError(f"--bfs-bound must be positive, got {bfs_bound}")
    weight = getattr(args, "weight", None)
    shifted = getattr(args, "shifted", None)
    return RunConfig(
        n=args.n,
        p=args.p,
        weight=_parse_weight(weight, args.n) if weight is not None else None,
        shifted=_parse_shifted(shifted, args.n) if shifted is not None else None,
        box=getattr(args, "box", None),
        index_bound=getattr(args, "index_bound", 3),
        bfs_bound=bfs_bound,
        fmt=args.fmt,
        seed=getattr(args, "seed", 0),
    )


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
    parser = build_parser()
    args = parser.parse_args(_join_point_values(sys.argv[1:] if argv is None else argv))
    try:
        config = _config_of(args)
        if args.command == "cell":
            return cmd_cell(config)
        if args.command == "alcove":
            return cmd_alcove(config)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        if args.command == "atlas":
            return cmd_atlas(config)
        assert args.command == "certificate"
        return cmd_certificate(config)
    except PreconditionError as exc:
        print(f"alcove-cells: error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, ResourceLimitError) as exc:
        print(f"alcove-cells: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
