"""Command line front door.

Subcommands: gen, verify-lame, qbinom, forms, fourier, equiv.
Exit codes: 0 success, 1 verification failure (including unreadable or
malformed input files), 2 usage error.

Output is deterministic: JSON is emitted with sorted keys and compact
separators, so identical flags and seed give byte-identical bytes.
Random coefficient streams are drawn from `sampling` (numerators
uniform in [-9, 9], denominators in [1, 9]) seeded by --seed.
The text format rounds floats to 6 significant digits; JSON keeps full
precision.  WEYLCLIFFORD_TOL overrides the default tolerance when no
--tol flag is given; either must be a finite number > 0, else the run
is a usage error.  The verify-lame tolerance is relative: each trial's
matrix residual passes when it is finite and at most tol *
(sum_k |a_k|)^l * sqrt(dim) for that trial's coefficients (a scale
past the float range counts as infinite).  gen, verify-lame and fourier
refuse, as a usage error, any matrix dimension above MAX_DIM = 1024:
l^ceil(n/2) (2^ceil(n/2) for --variant pauli) for gen and verify-lame,
l for fourier.  qbinom refuses the same way an l or a lambda order (--root,
else l) above MAX_DIM, and l = 0 without --root; forms an n above
MAX_DIM (its exact O(n^3) work makes that a memory bound, not a time
bound); equiv a --l outside 2..MAX_DIM.  A pair file whose l is not a
whole number in 2..MAX_DIM is unreadable input (exit 1); a pair that
cannot be standardized, non-finite or mismatched matrices included,
fails with exit 1.  An --out path that cannot be written (a missing directory,
a directory) is a usage error (exit 2), found when the output is
written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

# numerical subcommands import matrep, commforms and numpy themselves,
# so qbinom and usage errors exit before numpy loads
from . import algebra, qbinom, sampling
from .cyclotomic import root_of_unity

DEFAULT_TOL = 1e-10
LAME_TOL = 1e-9
# largest matrix dimension gen, verify-lame, fourier and equiv will
# build, largest forms n, and largest l and lambda order qbinom accepts
MAX_DIM = 1024


def _positive_tol(text: str) -> float:
    """Parse a tolerance: a finite number > 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return tol


def _tolerance(args, fallback: float) -> float:
    return fallback if args.tol is None else args.tol


def _emit(payload: dict, args, text_renderer) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = text_renderer(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            sys.stderr.write(f"cannot write --out: {exc}\n")
            sys.exit(2)
    else:
        sys.stdout.write(out)


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.6g}{x.imag:+.6g}i"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _matrix_text(obj: dict) -> str:
    dim = obj["dim"]
    lines = []
    for r in range(dim):
        row = obj["entries"][r * dim : (r + 1) * dim]
        lines.append("  " + "  ".join(_fmt(complex(re, im)) for re, im in row))
    return "\n".join(lines)


def cmd_gen(args) -> int:
    from . import matrep

    tol = _tolerance(args, DEFAULT_TOL)
    if args.variant == "pauli":
        gens = matrep.clifford_generators(args.n // 2, include_odd=bool(args.n % 2))
    else:
        gens = matrep.t_generators(args.n, args.l, args.variant)
    report = matrep.verify_relations(gens, tol=tol)
    payload = {
        "command": "gen",
        "n": args.n,
        "l": gens.l,
        "variant": args.variant,
        "dim": gens.dim,
        "zeta": [gens.zeta.real, gens.zeta.imag],
        "matrices": [matrep.matrix_to_json(m) for m in gens.matrices],
        "report": report.to_json(),
    }

    def text(p):
        lines = [
            f"generators: {len(p['matrices'])}  dim: {p['dim']}  l: {p['l']}"
            f"  variant: {p['variant']}"
        ]
        for i, m in enumerate(p["matrices"], 1):
            lines.append(f"t_{i} =")
            lines.append(_matrix_text(m))
        r = p["report"]
        lines.append(
            f"relations: {'pass' if r['passed'] else 'FAIL'}"
            f"  max pair dev {_fmt(r['max_pair_deviation'])}"
            f"  max power dev {_fmt(r['max_power_deviation'])}"
        )
        return "\n".join(lines) + "\n"

    _emit(payload, args, text)
    return 0 if report.passed else 1


def cmd_verify_lame(args) -> int:
    from . import matrep

    tol = _tolerance(args, LAME_TOL)
    sig = algebra.AlgebraSignature(args.n, args.l, mode=args.mode)
    gens = matrep.t_generators(args.n, args.l, "tau")
    rng = random.Random(args.seed)
    sym_ok = num_ok = True
    trials = []
    max_res = 0.0
    for _ in range(args.trials):
        coeffs = sampling.sample_coefficients(rng, sig.cyclotomic_order, args.n)
        ok, residual = algebra.lame_check(sig, coeffs)
        sym_ok = sym_ok and ok
        trials.append({"symbolic_pass": ok, "residual_terms": len(residual.terms)})
        cvals = [complex(c.to_complex()) for c in coeffs]
        res = matrep.lame_residual(gens, cvals)
        max_res = max(max_res, res)
        # each t_k is unitary, so rounding in (sum_k a_k t_k)^l grows like
        # (sum_k |a_k|)^l; every trial is judged against its own scale.  A
        # scale past the float range admits any finite residual, none other
        try:
            scale = sum(abs(c) for c in cvals) ** args.l * math.sqrt(gens.dim)
        except OverflowError:
            scale = math.inf
        num_ok = num_ok and math.isfinite(res) and res <= tol * scale
    passed = sym_ok and num_ok
    payload = {
        "command": "verify-lame",
        "n": args.n,
        "l": args.l,
        "mode": args.mode,
        "trials": args.trials,
        "seed": args.seed,
        "symbolic_pass": sym_ok,
        "matrix_max_residual": max_res,
        "tolerance": tol,
        "passed": passed,
        "per_trial": trials,
    }

    def text(p):
        return (
            f"lame identity n={p['n']} l={p['l']} mode={p['mode']}"
            f" trials={p['trials']} seed={p['seed']}\n"
            f"symbolic: {'pass (zero residual)' if p['symbolic_pass'] else 'FAIL'}\n"
            f"matrix residual max: {_fmt(p['matrix_max_residual'])}"
            f" (tol {_fmt(p['tolerance'])})\n"
            f"result: {'pass' if p['passed'] else 'FAIL'}\n"
        )

    _emit(payload, args, text)
    return 0 if passed else 1


def cmd_qbinom(args) -> int:
    lam_order = args.root if args.root is not None else args.lv
    lam = root_of_unity(lam_order)
    value = qbinom.q_binomial(args.lv, args.k, lam)
    approx = complex(value.to_complex())
    payload = {
        "command": "qbinom",
        "l": args.lv,
        "k": args.k,
        "lambda_order": lam_order,
        "value": value.to_json(),
        "approx": [approx.real, approx.imag],
    }

    def text(p):
        return (
            f"[{p['l']} {p['k']}] at lambda of order {p['lambda_order']}:"
            f" {value} = {_fmt(approx)}\n"
        )

    _emit(payload, args, text)
    return 0


def cmd_forms(args) -> int:
    from . import commforms

    hc = commforms.canonical_form(args.n)
    hpm = commforms.clifford_form(args.n)
    lmat = commforms.matrix_L(args.n)
    lp = commforms.matrix_Lprime(args.n)
    ok_l = bool((commforms.transform_form(lmat, hc) == hpm).all())
    ok_lp = bool((commforms.transform_form(lp, hc) == hpm).all())
    payload = {
        "command": "forms",
        "n": args.n,
        "h_c": commforms.form_to_json(hc),
        "h_pm": commforms.form_to_json(hpm),
        "L": commforms.form_to_json(lmat),
        "Lprime": commforms.form_to_json(lp),
        "L_transport_ok": ok_l,
        "Lprime_transport_ok": ok_lp,
    }

    def text(p):
        lines = [f"forms at n={p['n']}"]
        for name in ("h_c", "h_pm", "L", "Lprime"):
            lines.append(f"{name} =")
            for row in p[name]["entries"]:
                lines.append("  " + " ".join(f"{v:>4}" for v in row))
        lines.append(f"L   h_c L^T  == h+-: {'pass' if p['L_transport_ok'] else 'FAIL'}")
        lines.append(f"L'  h_c L'^T == h+-: {'pass' if p['Lprime_transport_ok'] else 'FAIL'}")
        return "\n".join(lines) + "\n"

    _emit(payload, args, text)
    return 0 if ok_l and ok_lp else 1


def cmd_fourier(args) -> int:
    import numpy as np

    from . import matrep

    tol = _tolerance(args, 1e-11)
    f = matrep.fourier(args.l)
    u, v = matrep.weyl_pair(args.l)
    unitary_dev = float(np.linalg.norm(f.conj().T @ f - np.eye(args.l)))
    intertwine_dev = float(np.linalg.norm(f.conj().T @ u @ f - np.linalg.inv(v)))
    ok = unitary_dev <= max(tol, 1e-12) and intertwine_dev <= tol
    payload = {
        "command": "fourier",
        "l": args.l,
        "matrix": matrep.matrix_to_json(f),
        "unitary_deviation": unitary_dev,
        "intertwine_deviation": intertwine_dev,
        "tolerance": tol,
        "passed": ok,
    }

    def text(p):
        return (
            f"F at l={p['l']}\n" + _matrix_text(p["matrix"]) + "\n"
            f"unitarity dev {_fmt(unitary_dev)};"
            f" F^-1 U F = V^-1 dev {_fmt(intertwine_dev)};"
            f" {'pass' if ok else 'FAIL'}\n"
        )

    _emit(payload, args, text)
    return 0 if ok else 1


def _pair_order(raw) -> int:
    """A pair file's l: a whole number in 2..MAX_DIM, else ValueError."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if type(raw) is not int or not 2 <= raw <= MAX_DIM:
        raise ValueError(f"l must be a whole number in 2..{MAX_DIM}, got {raw!r}")
    return raw


def cmd_equiv(args) -> int:
    import numpy as np

    from . import matrep

    tol = _tolerance(args, 1e-7)
    try:
        with open(args.pairfile, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        u = matrep.matrix_from_json(data["U"])
        v = matrep.matrix_from_json(data["V"])
        l = args.l if args.l is not None else _pair_order(data["l"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"cannot read pair file: {exc}\n")
        return 1
    try:
        m, mu = matrep.standardize_weyl_pair(u, v, l, tol=max(tol, 1e-8))
    except ValueError as exc:  # base of both standardization errors
        sys.stderr.write(f"standardization failed: {exc}\n")
        return 1
    u0, v0 = matrep.weyl_pair(l)
    minv = np.linalg.inv(m)
    res_u = float(np.linalg.norm(minv @ u @ m - u0))
    res_v = float(np.linalg.norm(minv @ v @ m - mu * v0))
    ok = res_u <= tol and res_v <= tol
    payload = {
        "command": "equiv",
        "l": l,
        "M": matrep.matrix_to_json(m),
        "mu": [mu.real, mu.imag],
        "residual_U": res_u,
        "residual_V": res_v,
        "tolerance": tol,
        "passed": ok,
    }

    def text(p):
        return (
            f"standardized pair at l={l}\nM =\n" + _matrix_text(p["M"]) + "\n"
            f"mu = {_fmt(mu)}\n"
            f"residuals: U {_fmt(res_u)}, V {_fmt(res_v)} (tol {_fmt(tol)});"
            f" {'pass' if ok else 'FAIL'}\n"
        )

    _emit(payload, args, text)
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_positive_tol, default=None, help="tolerance override")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylclifford",
        description="Weyl-Clifford algebra representations and identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and verify a generator set")
    p.add_argument("--n", type=int, required=True, help="number of generators")
    p.add_argument("--l", type=int, default=2, help="order l")
    p.add_argument("--variant", choices=("tau", "taw", "pauli"), default="taw")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify-lame", help="check the power-sum identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify_lame)

    p = sub.add_parser("qbinom", help="deformed binomial coefficient")
    p.add_argument("lv", type=int, metavar="l")
    p.add_argument("k", type=int)
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--root", type=int, default=None, help="lambda = root of this order")
    lam.add_argument("--unit", dest="root", action="store_const", const=1,
                     help="lambda = 1 (same as --root 1)")
    _add_common(p)
    p.set_defaults(func=cmd_qbinom)

    p = sub.add_parser("forms", help="commutator forms and L transport")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("fourier", help="discrete Fourier matrix")
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("equiv", help="standardize a Weyl pair from a JSON file")
    p.add_argument("pairfile")
    p.add_argument("--l", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    return parser


def _check_dim(parser: argparse.ArgumentParser, base: int, slots: int) -> None:
    """Reject a dense dimension base**slots above MAX_DIM, without forming it."""
    dim = 1
    for _ in range(slots):
        dim *= base
        if dim > MAX_DIM:
            parser.error(
                f"matrix dimension {base}^{slots} exceeds the cap of {MAX_DIM}"
            )


def _validate(parser: argparse.ArgumentParser, args) -> None:
    env = os.environ.get("WEYLCLIFFORD_TOL")
    if args.tol is None and env:
        try:
            args.tol = _positive_tol(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"WEYLCLIFFORD_TOL: {exc}")
    cmd = args.command
    if cmd == "gen":
        if args.n < 1:
            parser.error("--n must be at least 1")
        if args.variant == "pauli":
            if args.l != 2:
                parser.error("--variant pauli requires --l 2")
        elif args.l < 2:
            parser.error("--l must be at least 2")
        _check_dim(parser, args.l, (args.n + 1) // 2)
    elif cmd == "verify-lame":
        if args.n < 1 or args.l < 2 or args.trials < 1:
            parser.error("need --n >= 1, --l >= 2, --trials >= 1")
        _check_dim(parser, args.l, (args.n + 1) // 2)
    elif cmd == "qbinom":
        if not 0 <= args.k <= args.lv:
            parser.error("need 0 <= k <= l")
        if args.root is not None and args.root < 1:
            parser.error("--root must be positive")
        if args.root is None and args.lv == 0:
            parser.error("l = 0 needs --root: lambda's order defaults to l")
        order = args.lv if args.root is None else args.root
        if max(args.lv, order) > MAX_DIM:
            parser.error(
                f"l = {args.lv} or lambda order {order} exceeds the cap of {MAX_DIM}"
            )
    elif cmd == "forms":
        if args.n < 2 or args.n % 2:
            parser.error("--n must be even and at least 2")
        _check_dim(parser, args.n, 1)
    elif cmd == "fourier":
        if args.l < 2:
            parser.error("--l must be at least 2")
        _check_dim(parser, args.l, 1)
    elif cmd == "equiv" and args.l is not None:
        if args.l < 2:
            parser.error("--l must be at least 2")
        _check_dim(parser, args.l, 1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
