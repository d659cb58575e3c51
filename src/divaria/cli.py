"""Command-line front end.

Subcommands: derive, check, envelope, represent, operad-selftest.
Exit codes: 0 all checks pass, 1 a mathematical check failed (witness in
the report), 2 malformed input.  Reports are byte-stable for fixed
inputs and seed; elapsed time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

from . import __version__
from .conformal import embed_associative, verify_representation
from .envelope import build_envelope, build_var_quotient, oracle_sweep
from .errors import InputError, ResourceError, read_text
from .fd import FDAlgebra, FDDialgebra, is_var_dialgebra, leibniz_to_dialgebra
from .linalg import RowSpace
from .operads import ALGS, ALGSE, DIALGS, E, SYM, axiom_check
from .perms import from_cycles, sym_compose
from .pseudo import check_var_pseudo, hom_failure
from .translate import derive_variety, rewrite_single_op
from .varieties import load_variety

OPERADS = (SYM, E, ALGS, DIALGS, ALGSE)


# ---------------------------------------------------------------------------
# structure-constant ingestion
# ---------------------------------------------------------------------------

def _table(data: dict, name: str) -> list:
    """The table data[name], once its length is checked to be the declared 'dim'."""
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:  # a bool is an int too, but not a dimension
        raise InputError("'dim' must be a positive integer")
    if not isinstance(data[name], list) or len(data[name]) != dim:
        raise InputError("structure table is not dim x dim")
    return data[name]


def load_dialgebra_data(data: dict) -> FDDialgebra:
    if "bracket" in data:
        return leibniz_to_dialgebra(load_leibniz_data(data))
    if "left" not in data or "right" not in data:
        raise InputError("need 'left' and 'right' tables (or a 'bracket' table)")
    return FDDialgebra(_table(data, "left"), data["right"], data.get("labels"))


def load_leibniz_data(data: dict) -> FDAlgebra:
    if "bracket" not in data:
        raise InputError("a Leibniz algebra file needs a 'bracket' table")
    return FDAlgebra(_table(data, "bracket"), data.get("labels"))


def _read_json(path: str) -> dict:
    text = read_text(path)
    if text is None:
        builtin = resources.files("divaria.data").joinpath(path)
        if builtin.is_file():
            text = builtin.read_text()
        else:
            raise InputError(f"file not found: {path}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per level of nesting
        raise InputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: not a JSON object")
    return data


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

class Report:
    def __init__(self, command: str, seed: int | None = None):
        self.data = {"command": command, "status": "pass"}
        if seed is not None:
            self.data["seed"] = seed
        self.lines: list[str] = []

    def line(self, text: str):
        self.lines.append(text)

    def fail(self, detail: str):
        self.data["status"] = "fail"
        self.data.setdefault("witnesses", []).append(detail)
        self.lines.append(f"FAIL: {detail}")

    def emit(self, as_json: bool) -> int:
        """Print the report; a reader that closed stdout early changes no exit code."""
        try:
            if as_json:
                print(json.dumps(self.data, indent=2, sort_keys=True))
            else:
                for line in self.lines:
                    print(line)
                print(f"status: {self.data['status']}")
            sys.stdout.flush()
        except BrokenPipeError:
            # the rest of the report goes nowhere, and so does the flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0 if self.data["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_derive(args) -> int:
    sigma = load_variety(args.variety)
    dv = derive_variety(sigma)
    rep = Report("derive")
    rep.data["variety"] = sigma.name
    rep.data["identities"] = texts = [str(p) for p in dv.identities]
    rep.lines += [f"variety {sigma.name}", "derived dialgebra identities:",
                  *(f"  {text}" for text in texts)]
    if args.single_op:
        rep.data["single_op"] = texts = [str(p) for p in rewrite_single_op(dv)]
        rep.lines += ["single-operation identities:", *(f"  {text}" for text in texts)]
    return rep.emit(args.json)


def cmd_check(args) -> int:
    d = load_dialgebra_data(_read_json(args.dialgebra))
    sigma = load_variety(args.variety)
    rep = Report("check")
    rep.data["variety"] = sigma.name
    rep.data["dim"] = d.dim
    w = is_var_dialgebra(d, sigma)
    if w is None:
        rep.line(f"dialgebra (dim {d.dim}) satisfies the {sigma.name} dialgebra identities")
    else:
        rep.fail(w.describe(d.labels))
    return rep.emit(args.json)


def _coordinates(x) -> dict:
    """The coordinates of an envelope element: its free part under 0 and
    its tensor part under 1."""
    return {**{(0, k): v for k, v in x.c0.items()}, **{(1, k): v for k, v in x.c1.items()}}


def cmd_envelope(args) -> int:
    if args.verify and args.max_arity < 1:
        raise InputError("--max-arity must be at least 1")
    d = load_dialgebra_data(_read_json(args.dialgebra))
    rep = Report("envelope", seed=args.seed)
    env = build_envelope(d)
    rep.data["dim"] = d.dim
    rep.data["tensor_part_dim"] = len(env.c1_basis)
    rep.line(f"envelope built: free part rank {d.dim}, tensor part dim {len(env.c1_basis)}")
    vq = None
    if args.variety:
        sigma = load_variety(args.variety)
        rep.data["variety"] = sigma.name
        vq = build_var_quotient(env, sigma)
        rep.data["ideal_rank"] = vq.ideal.rank
        rep.data["quotient_tensor_dim"] = len(vq.quotient.c1_basis)
        rep.line(f"variety quotient: ideal rank {vq.ideal.rank}, "
                 f"tensor part dim {len(vq.quotient.c1_basis)}")
        w = check_var_pseudo(vq.quotient, sigma)
        if w is None:
            rep.line("quotient satisfies the variety's pseudo-algebra identities")
        else:
            rep.fail(f"{w[0]} at {w[1]}: {w[2].describe()}")
        basis = [vq.quotient.basis_a(i) for i in range(d.dim)]
        rank = RowSpace(map(_coordinates, basis)).rank
        if hom_failure(d, basis, vq.quotient) is not None:
            rep.fail("embedding into the coefficient dialgebra is not operation-preserving")
        elif rank < d.dim:
            rep.fail(f"embedding into the coefficient dialgebra is not injective: "
                     f"the {d.dim} basis images have rank {rank}")
        else:
            rep.line("base dialgebra embeds into the quotient's coefficient dialgebra")
    if args.verify:
        bad, checked = oracle_sweep(
            env, args.max_arity, lambda n: [(pr, (0,) * (n - 1)) for pr in env.c1_basis[:2]])
        rep.data["oracle_checked"] = checked
        if bad:
            rep.fail(f"oracle mismatch at {bad}")
        else:
            rep.line(f"oracle equalities hold on {checked} instances"
                     f" (words of degree <= {args.max_arity})")
    return rep.emit(args.json)


def cmd_represent(args) -> int:
    g = load_leibniz_data(_read_json(args.leibniz))
    rep = Report("represent")
    rep.data["module"] = args.module
    erep, crep = embed_associative(g, args.module)
    rep.data["dim_m0"] = crep.dim_m0
    rep.line(f"conformal representation on a free module of rank {crep.dim_m0}")
    vrep = verify_representation(crep)
    for name, ok in vrep.checks.items():
        rep.data[f"check_{name}"] = ok
        rep.line(f"  {name}: {'pass' if ok else 'FAIL'}")
    for f in vrep.failures:
        rep.fail(f)
    for name, ok in erep.checks.items():
        rep.data[f"embed_{name}"] = ok
        rep.line(f"  embed/{name}: {'pass' if ok else 'FAIL'}")
    for f in erep.failures:
        rep.fail(f)
    return rep.emit(args.json)


def cmd_operad_selftest(args) -> int:
    rep = Report("operad-selftest", seed=args.seed)
    worked = sym_compose(from_cycles(3, [(1, 2, 3)]), (3, 2, 4),
                         [from_cycles(3, [(1, 3, 2)]), (2, 1), from_cycles(4, [(2, 3, 4)])])
    rep.data["sym_example"] = list(worked)
    if worked != (7, 5, 6, 9, 8, 1, 3, 4, 2):
        rep.fail(f"worked composition example got {worked}")
    else:
        rep.line(f"worked composition example reproduced: {list(worked)}")
    for op in OPERADS:
        r = axiom_check(op, args.max_arity if op in (SYM, E) else min(args.max_arity, 5),
                        args.trials, args.seed)
        rep.data[f"operad_{op.name}"] = "pass" if r.passed else "fail"
        rep.line(r.summary())
        for f in r.failures:
            rep.fail(f"{op.name} {f.law}: {f.detail}")
    return rep.emit(args.json)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divaria",
        description="dialgebra varieties, conformal envelopes and representations")
    ap.add_argument("--version", action="version", version=f"divaria {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("derive", help="derive the dialgebra identities of a variety")
    p.add_argument("--variety", required=True, help=".var file or builtin name")
    p.add_argument("--single-op", action="store_true", dest="single_op")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("check", help="check a structure-constant dialgebra against a variety")
    p.add_argument("--dialgebra", required=True, help="JSON file (left/right or bracket tables)")
    p.add_argument("--variety", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("envelope", help="build the enveloping pseudo-algebra and its quotient")
    p.add_argument("--dialgebra", required=True)
    p.add_argument("--variety", default=None)
    p.add_argument("--verify", action="store_true",
                   help="also run the closed-form vs recursive oracle sweep")
    p.add_argument("--max-arity", type=int, default=3, dest="max_arity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_envelope)

    p = sub.add_parser("represent", help="build and verify a conformal representation")
    p.add_argument("--leibniz", required=True, help="JSON file with a bracket table")
    p.add_argument("--module", choices=("trivial", "adjoint"), default="trivial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("operad-selftest", help="randomized operad law checks")
    p.add_argument("--max-arity", type=int, default=8, dest="max_arity",
                   help="largest arity drawn for Sym and E, at most 64; "
                        "the polynomial operads AlgS, DialgS and AlgS(x)E run at "
                        "min(MAX_ARITY, 5)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_operad_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() refuses an int of more than sys.get_int_max_str_digits() digits,
        # and results grow from inputs that are just under it
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a result is too large to print: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
