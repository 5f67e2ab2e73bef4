"""Command-line front end.

Subcommands: maximal, weights, cover, verify, demo. All outputs are
deterministic for a fixed configuration and seed: report files contain no
timestamps (wall-clock metadata goes to a separate `<out>.meta.json`
sidecar that is excluded from any comparison/hash). Validation or parse
errors print a machine-readable JSON object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import verify as verify_mod
from .covering import RectFamily, cf_select, scattered_select
from .grid import Basis, GridFunction, Rect, random_rect, read_grid, write_grid
from .maximal import MaximalQuery, multilinear_fractional_maximal
from .verify import _jsonify
from .weights import (
    WeightVector,
    a_infty_classify,
    ap_constant,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    power_bump_check,
    reverse_doubling_constant,
    tauberian_constant_estimate,
)


class CliError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="strongmax",
        description="Discrete-grid maximal operators, Orlicz calculus, and "
                    "rectangle weight classes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    shared = {
        "grid": dict(action="append", default=[], help="input grid file (repeatable)"),
        "basis": dict(choices=["all", "dyadic", "cubes"], default="all"),
        "seed": dict(type=int, default=0),
        "out": dict(default=None, help="output file path"),
        "format": dict(choices=["json", "csv"], default="json"),
    }

    def common(p: argparse.ArgumentParser, *names: str):
        # each subcommand takes only the shared flags it reads
        for name in names:
            p.add_argument(f"--{name}", **shared[name])

    p = sub.add_parser("maximal", help="evaluate the multilinear fractional maximal")
    common(p, "grid", "basis", "out")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.0)

    p = sub.add_parser("weights", help="weight-class constants and classifications")
    common(p, "grid", "basis", "seed", "out", "format")
    p.add_argument("--class", dest="klass", required=True, choices=list(_CLASS_FLAGS))
    p.add_argument("--p", type=float, action="append",
                   help="exponent p_i, one per weight (default 2 each)")
    for name in ("q", "alpha", "r", "gamma"):
        p.add_argument(f"--{name}", type=float)
    # a class's defaults are set once it is known to read the flag
    p.set_defaults(basis=None, seed=None)

    p = sub.add_parser("cover", help="rectangle selection algorithms")
    common(p, "grid", "seed", "out", "format")
    p.add_argument("--rects", default=None,
                   help="JSON file with [{'lo': [...], 'hi': [...]}, ...]; "
                        "omitted: random rectangles from the seed")
    p.add_argument("--count", type=int, default=50,
                   help="random family size when --rects is omitted")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)

    p = sub.add_parser("verify", help="run theorem verification checks")
    common(p, "seed", "out", "format")
    p.add_argument("--theorem", action="append", default=None,
                   help=f"selector (repeatable); available: {', '.join(verify_mod.JOBS)}")

    p = sub.add_parser("demo", help="counterexample + endpoint walkthrough")
    common(p, "out", "format")
    return top


def _load_grids(paths: list[str], count: int | None = None) -> list[GridFunction]:
    """The grids of the --grid flags: at least one, or exactly count."""
    if not paths:
        raise CliError("at least one --grid is required")
    if count is not None and len(paths) != count:
        raise CliError(f"expected {count} grid(s), got {len(paths)}")
    return [read_grid(p) for p in paths]


def _emit(payload: dict, args, default_name: str) -> None:
    """Write the report deterministically; timestamps go to a sidecar."""
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonify) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".meta.json", "w") as fh:
            json.dump({"written_at_unix": time.time(), "command": default_name}, fh)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    """Flatten report rows to (name, lhs, rhs, ratio, passed) CSV series."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "lhs", "rhs", "ratio", "passed"])

    def rows(name: str, obj):
        if isinstance(obj, dict) and {"lhs", "rhs"} <= set(obj):
            w.writerow([name, obj.get("lhs"), obj.get("rhs"),
                        obj.get("ratio"), obj.get("passed")])
            return
        if isinstance(obj, dict):
            for k in sorted(obj):
                rows(f"{name}/{k}" if name else str(k), obj[k])
            return
        w.writerow([name, "", "", obj, ""])

    rows("", payload)
    return buf.getvalue()


def _cmd_maximal(args) -> int:
    grids = _load_grids(args.grid)
    m = args.m
    if len(grids) == 1 and m > 1:
        grids = grids * m
    query = MaximalQuery(basis=Basis(args.basis), alpha=args.alpha, m=m)
    out = multilinear_fractional_maximal(grids, query)
    if args.out:
        write_grid(out, args.out)
    else:
        sys.stdout.write(" ".join(repr(float(v)) for v in out.values.ravel()) + "\n")
    return 0


# the flags each weight class reads, with their defaults; --p defaults to 2
# per weight, and a flag that a class does not read is an error
_CLASS_FLAGS = {
    "ap": ("basis", "p"),
    "apq": ("basis", "p", "q", "alpha"),
    "apvec": ("basis", "p"),
    "ainfty": (),
    "rd": (),
    "tauberian": ("basis", "seed", "gamma"),
    "bump": ("basis", "p", "q", "alpha", "r"),
}
_FLAG_DEFAULTS = {"basis": "all", "seed": 0, "q": 1.0, "alpha": 0.0, "r": 1.5, "gamma": 0.5}


def _cmd_weights(args) -> int:
    reads = _CLASS_FLAGS[args.klass]
    unread = [f"--{k}" for k in ("p", *_FLAG_DEFAULTS) if k not in reads and getattr(args, k) is not None]
    if unread:
        raise CliError(f"--class {args.klass} does not read {', '.join(unread)}")
    vars(args).update({k: d for k, d in _FLAG_DEFAULTS.items() if getattr(args, k) is None})
    grids = _load_grids(args.grid, None if args.klass in ("apq", "apvec", "bump") else 1)
    if args.klass == "bump" and len(grids) < 2:
        raise CliError("bump needs m weight grids plus v as the last --grid")
    ws = grids[:-1] if args.klass == "bump" else grids
    if args.p and len(args.p) != len(ws):
        raise CliError(f"expected one --p per weight ({len(ws)}), got {len(args.p)}")
    ps = args.p or [2.0] * len(ws)
    basis = Basis(args.basis)
    payload: dict = {"class": args.klass, **({"basis": args.basis} if "basis" in reads else {})}
    w = grids[0]
    if args.klass == "ap":
        c, witness = ap_constant(w, ps[0], basis, return_witness=True)
        payload.update({"constant_or_bound": c, "witness_rect": witness, "p": ps[0]})
    elif args.klass in ("apq", "apvec"):
        wv = WeightVector(tuple(ws), tuple(ps), q=args.q, alpha=args.alpha)
        fn = multi_weight_constant_apq if args.klass == "apq" else multi_weight_constant_ap
        payload.update({"constant_or_bound": fn(wv, basis), "ps": ps,
                        **{k: getattr(args, k) for k in ("q", "alpha") if k in reads}})
    elif args.klass == "ainfty":
        rep = a_infty_classify(w, n_random_pairs=0)
        payload.update({
            "classification": rep.classification,
            "passes": rep.passes,
            "witness_rect": rep.witness_axis,
            "scale_profile": rep.families,
        })
    elif args.klass == "rd":
        payload["constant_or_bound"] = reverse_doubling_constant(w)
    elif args.klass == "tauberian":
        rep = tauberian_constant_estimate(w, basis, args.gamma, seed=args.seed)
        payload.update({"constant_or_bound": rep.max_ratio,
                        "witness_rect": rep.witness, "gamma": args.gamma,
                        "note": "certified lower bound over structured + random sets"})
    elif args.klass == "bump":
        wv = WeightVector(tuple(ws), tuple(ps), q=args.q, alpha=args.alpha)
        rep = power_bump_check(wv, grids[-1], args.r, basis)
        payload.update({"constant_or_bound": rep["constant"],
                        "witness_rect": rep["witness"], "r": args.r})
    _emit(payload, args, "weights")
    return 0


def _parse_rects(path: str) -> list[Rect]:
    with open(path) as fh:
        raw = json.load(fh)
    return [Rect(tuple(r["lo"]), tuple(r["hi"])) for r in raw]


def _cmd_cover(args) -> int:
    (w,) = _load_grids(args.grid, 1)
    if args.rects:
        rects = _parse_rects(args.rects)
    else:
        rng = np.random.default_rng(args.seed)
        top = tuple(s - 1 for s in w.shape)
        rects = [random_rect(rng, (0,) * w.dims, top) for _ in range(args.count)]
    fam = RectFamily(w.shape, w.cell_size, tuple(rects))
    sel = cf_select(fam, args.theta)
    sc = scattered_select(fam, args.lam, w)
    payload = {
        "cf": {
            "kept": sel.kept,
            "c_emp": sel.c_emp,
            "union_before": sel.union_before,
            "union_after": sel.union_after,
            "packing": sel.packing,
            "scattered_check": sel.scattered_check,
        },
        "scattered": {
            "kept": sc.kept,
            "scattered_check": sc.scattered_check,
            "chain_constant": sc.chain_constant,
        },
        "theta": args.theta,
        "lambda": args.lam,
    }
    _emit(payload, args, "cover")
    return 0


def _cmd_verify(args) -> int:
    reports = verify_mod.run_all(seed=args.seed, theorems=args.theorem)
    payload = {name: rep.to_dict() for name, rep in sorted(reports.items())}
    _emit(payload, args, "verify")
    failed = [n for n, r in reports.items() if r.skipped is None and r.passed is False]
    return 1 if failed else 0


def _cmd_demo(args) -> int:
    rep35 = verify_mod.prop35_counterexample()
    # endpoint walkthrough: unit indicator, m = 1, alpha = 0, n = 1
    n_cells = 512
    h = 4.0 / n_cells
    vals = np.zeros(n_cells)
    lo = int(1.5 / h)
    vals[lo : lo + int(1.0 / h)] = 1.0
    f = GridFunction((n_cells,), (h,), vals)
    rep_end = verify_mod.endpoint_check([f], 0.5)

    rows = [
        ("rd-vs-a-infty counterexample", "", "", "PASS" if rep35.passed else "FAIL"),
    ]
    for nkey, det in sorted(rep35.stats.items()):
        rows.append((f"  reverse doubling ({nkey})", f"{det['reverse_doubling']:.4f}",
                     f">= {det['rd_bound']:.1f}", "ok"))
        rows.append((f"  A-infty fails ({nkey})", str(det["a_infty_fails"]), "True", "ok"))
    rows.append(("endpoint: unit indicator, lam=1/2",
                 f"lhs={rep_end.lhs:.6f}", f"rhs={rep_end.rhs:.6f}",
                 f"ratio={rep_end.ratio:.4f}"))
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{r[0]:<{width}}{r[1]:>16}{r[2]:>16}{r[3]:>14}" for r in rows]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        payload = {"counterexample": rep35.to_dict(), "endpoint": rep_end.to_dict()}
        _emit(payload, args, "demo")
    return 0 if (rep35.passed and rep_end.passed) else 1


_COMMANDS = {
    "maximal": _cmd_maximal,
    "weights": _cmd_weights,
    "cover": _cmd_cover,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # argument/validation/IO errors -> JSON on stderr
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
