"""The four workloads as seeded lists of operations.

A workload has five cost classes, cheapest first, and a round holds
``per_class`` operations of every class, interleaved round-robin so
that a slow stretch of the machine slows every class alike.  With five
classes of equal count, the median lies in the middle of class 2 and
the 90th percentile in the middle of class 4; each of those two classes
holds a single size, and its costs are well apart from the classes
next to it, so neither percentile falls on a boundary between sizes.

An operation's ``call`` is the only part that is timed.  Its ``check``
runs right after it: it returns False when the operation failed (it
raised, or a CLI exit code differs from the documented one) and raises
oracles.Mismatch when an output is wrong.  ``confirm`` is an extra,
costlier check made after the timed loop on the first operation of each
class.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles
from oracles import expect


@dataclass
class Op:
    cls: int
    key: tuple  # size key: set-up warms up one operation per distinct key
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    confirm: Callable[[Any], None] | None = None
    argv: list = field(default_factory=list)  # CLI operations only
    env: dict = field(default_factory=dict)


def coprime_units(m: int):
    return [j for j in range(1, m) if math.gcd(j, m) == 1]


class Workload:
    name = ""
    classes: list = []
    per_class = 2
    round_seconds = 1.0  # one round on the reference machine, sizes the list
    in_process = True  # False: each operation is a CLI child process
    trace_rounds = 2  # rounds of the traced run, a fixed count

    def __init__(self, wc, root):
        self.wc = wc  # the weylclifford package
        self.root = root
        self.nprng = np.random.default_rng(0)  # reseeded by build()

    def build(self, seed: int, rounds: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        self.nprng = np.random.default_rng([seed, len(self.name)])
        ops = []
        for _ in range(rounds):
            for i in range(self.per_class):
                for c in range(len(self.classes)):
                    ops.append(self.make_op(rng, c, i))
        return ops

    def make_op(self, rng, c: int, i: int) -> Op:
        raise NotImplementedError

    def selftest(self) -> list:
        """Names of this workload's own checks that accepted a wrong result."""
        return []


class PowerSumExact(Workload):
    """algebra.lame_check, strict and weak, both sides of dense/sparse."""

    name = "power-sum-exact"
    classes = ["counterexample", "weak", "n7-l5", "n3-l13|n6-l7", "n4-l11"]
    round_seconds = 1.06
    sizes = [
        [(3, 6, "strict", 2), (4, 6, "strict", 3), (3, 9, "strict", 3)],
        [(3, 7, "weak", 1), (4, 5, "weak", 1), (5, 5, "weak", 1)],
        [(7, 5, "strict", 1)],
        [(3, 13, "strict", 1), (6, 7, "strict", 1)],
        [(4, 11, "strict", 1)],
    ]

    def make_op(self, rng, c, i):
        algebra, sampling = self.wc.algebra, self.wc.sampling
        choices = self.sizes[c]
        n, l, mode, p = rng.choice(choices) if c < 2 else choices[i % len(choices)]
        sig = algebra.AlgebraSignature(n, l, mode=mode, zeta_power=p)
        coeffs = sampling.sample_coefficients(rng, sig.cyclotomic_order, n)
        coprime = math.gcd(p, l) == 1

        def check(out):
            passed, residual = out
            oracles.check_power_sum_verdict(coprime, passed, len(residual.terms))
            return True

        def confirm(out):
            values = [oracles.cyclotomic_value(a.coeffs, a.order) for a in coeffs]
            oracles.confirm_power_sum(n, l, p, values, out[0])

        return Op(c, (n, l, mode, p), lambda: algebra.lame_check(sig, coeffs), check, confirm)


class DeformedBinomials(Workload):
    """qbinom rows at orders l, l+1 and 2l, and both theorem checks."""

    name = "deformed-binomials"
    classes = ["factorization", "theorem-l5", "row-l9-order9",
               "row-l10-order11|theorem-l7-order14", "row-l14-order28"]
    round_seconds = 0.32
    trace_rounds = 4

    def __init__(self, wc, root):
        super().__init__(wc, root)
        self.rows = {l: oracles.gaussian_row(l) for l in (9, 10, 14)}

    def row_op(self, rng, c, l, m):
        qbinom = self.wc.qbinom
        j = rng.choice(coprime_units(m))
        lam = self.wc.cyclotomic.root_of_unity(m, j)

        def check(values):
            oracles.check_binomial_row(
                l, m, j, [(v.coeffs, v.order) for v in values], self.rows[l])
            return True

        return Op(c, ("row", l, m),
                  lambda: [qbinom.q_binomial(l, k, lam) for k in range(l + 1)], check)

    def theorem_op(self, rng, c, l, order):
        qbinom = self.wc.qbinom
        seed = rng.randrange(10**6)
        return Op(c, ("theorem", l, order),
                  lambda: qbinom.deformed_binomial_theorem_check(l, order, 1, seed),
                  self.holds("deformed binomial theorem", l, order))

    @staticmethod
    def holds(what, l, order):
        def check(verdict):
            expect(verdict is True, f"{what} at l={l}, order {order}: {verdict!r}")
            return True
        return check

    def selftest(self):
        return [] if oracles.rejects(self.holds("theorem", 5, 5), False) else [
            "theorem check: verdict False accepted"]

    def make_op(self, rng, c, i):
        if c == 0:
            l = rng.choice([9, 11, 13, 15])
            qbinom = self.wc.qbinom
            return Op(c, ("factorization", l),
                      lambda: qbinom.commuting_factorization_check(l),
                      self.holds("commuting factorization", l, None))
        if c == 1:
            return self.theorem_op(rng, c, 5, rng.choice([5, 6, 10]))
        if c == 2:
            return self.row_op(rng, c, 9, 9)
        if c == 3:
            return self.row_op(rng, c, 10, 11) if i == 0 else self.theorem_op(rng, c, 7, 14)
        return self.row_op(rng, c, 14, 28)


class RepsAndForms(Workload):
    """The numerical track (matrep, to_matrix) and exact commforms."""

    name = "reps-and-forms"
    classes = ["standardize|to-matrix", "relations-dim81", "relations-dim125",
               "forms-n10", "relations-dim343"]
    round_seconds = 0.97
    relation_sizes = [[(8, 3), (4, 9)], [(6, 5)], None, [(5, 7)]]

    def standardize_op(self, rng, c):
        matrep = self.wc.matrep
        l = rng.choice([8, 12, 16])
        u, v = oracles.clock_shift(l)
        w = oracles.random_unitary(l, self.nprng)
        u1, v1 = w @ u @ w.conj().T, w @ v @ w.conj().T

        def check(out):
            oracles.check_standardized(u1, v1, l, *out)
            return True

        return Op(c, ("standardize", l),
                  lambda: matrep.standardize_weyl_pair(u1, v1, l), check)

    def to_matrix_op(self, rng, c):
        algebra, sampling = self.wc.algebra, self.wc.sampling
        n, l = 4, 5
        sig = algebra.AlgebraSignature(n, l)
        terms = {tuple(rng.randrange(l) for _ in range(n)):
                 sampling.sample_cyclotomic(rng, sig.cyclotomic_order) for _ in range(30)}
        x = algebra.AlgebraElement(sig, terms)
        mats = oracles.tensor_generators(n, l)
        coords = [(e, a.coeffs) for e, a in x.terms.items()]

        def check(out):
            oracles.check_to_matrix(out, coords, sig.cyclotomic_order, mats)
            return True

        return Op(c, ("to_matrix", n, l), lambda: algebra.to_matrix(x, mats), check)

    def relations_op(self, c, n, l):
        matrep = self.wc.matrep
        z = self.nprng.normal(size=n) + 1j * self.nprng.normal(size=n)
        coeffs = [complex(a) for a in z]

        def call():
            gens = matrep.t_generators(n, l, "taw")
            return gens, matrep.verify_relations(gens), matrep.lame_residual(gens, coeffs)

        def check(out):
            gens, report, residual = out
            expect(report.passed, f"verify_relations failed at n={n}, l={l}")
            oracles.check_residual(residual, coeffs, l, gens.dim)
            return True

        def confirm(out):
            oracles.check_relations(out[0].matrices, l, n)

        return Op(c, ("relations", n, l), call, check, confirm)

    def forms_op(self, rng, c, n):
        commforms = self.wc.commforms
        seed = rng.randrange(10**6)

        def call():
            s = commforms.random_symplectic(n, random.Random(seed))
            nmat = commforms.conjugate_to_N(s)
            return s, nmat, commforms.transform_form(nmat, commforms.clifford_form(n))

        def check(out):
            oracles.check_forms(n, *out)
            return True

        return Op(c, ("forms", n), call, check)

    def selftest(self):
        op = self.relations_op(1, 3, 3)
        gens = self.wc.matrep.t_generators(3, 3, "taw")
        report = self.wc.matrep.verify_relations(gens)
        bad = []
        if not oracles.rejects(op.check, (gens, report, 1.0)):
            bad.append("relations: residual 1.0 accepted")
        report.passed = False
        if not oracles.rejects(op.check, (gens, report, 0.0)):
            bad.append("relations: failed report accepted")
        return bad

    def make_op(self, rng, c, i):
        if c == 0:
            return self.standardize_op(rng, c) if i == 0 else self.to_matrix_op(rng, c)
        if c == 3:
            return self.forms_op(rng, c, 10)
        sizes = self.relation_sizes[c - 1]
        return self.relations_op(c, *sizes[i % len(sizes)])


class CliSession(Workload):
    """Each subcommand as a fresh process, one at a time."""

    name = "cli-session"
    classes = ["qbinom|fourier-nan", "forms|fourier|env-tol", "equiv|gen-small",
               "verify-lame", "gen-n6-l5"]
    per_class = 4
    round_seconds = 5.0
    in_process = False
    trace_rounds = 1

    def __init__(self, wc, root):
        super().__init__(wc, root)
        self.outdir = os.path.join(root, "perfbench", "out")
        self.env = child_env(root)
        self.entry = entry_point(root)
        self.rows = {l: oracles.gaussian_row(l) for l in range(4, 10)}
        self.pairs = 0

    def build(self, seed, rounds):
        self.pairs = 0  # pair files are rewritten under the same names
        return super().build(seed, rounds)

    def run_cli(self, argv, env_extra):
        env = dict(self.env, **env_extra)
        cmd = [sys.executable, "-c", self.entry, *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=self.root, timeout=120)

    def op(self, c, argv, check, env_extra=None, expected=0):
        """A CLI run; ``expected`` is the exit code the documented contract asks for."""
        argv = [str(a) for a in argv]
        env_extra = env_extra or {}

        def verdict(proc):
            if proc.returncode != expected:
                return False
            if expected == 0:
                check(json.loads(proc.stdout))
            return True

        return Op(c, (c,), lambda: self.run_cli(argv, env_extra), verdict,
                  argv=argv, env=env_extra)

    def qbinom_op(self, rng, c):
        l = rng.randrange(4, 10)
        k = rng.randrange(0, l + 1)
        root = rng.choice([None, l + 1, 2 * l])
        m = l if root is None else root
        argv = ["qbinom", l, k] + ([] if root is None else ["--root", root])

        def check(out):
            expect(out["l"] == l and out["k"] == k, "qbinom echoes another l, k")
            val = out["value"]
            oracles.check_binomial(l, k, m, 1, val["coeffs"], int(val["order"]), self.rows[l])

        return self.op(c, argv, check)

    def forms_op(self, rng, c):
        n = rng.choice([4, 6, 8, 10])

        def check(out):
            expect(out["L_transport_ok"] and out["Lprime_transport_ok"],
                   "forms reports a failed transport")
            oracles.check_form_transport(
                n, *(out[k]["entries"] for k in ("h_c", "h_pm", "L", "Lprime")))

        return self.op(c, ["forms", "--n", n], check)

    def fourier_op(self, rng, c):
        l = rng.randrange(4, 17)

        def check(out):
            expect(out["passed"], f"fourier l={l} reports FAIL")
            oracles.check_fourier(matrix(out["matrix"]), l)

        return self.op(c, ["fourier", "--l", l], check)

    def equiv_op(self, rng, c):
        l = rng.randrange(5, 13)
        u, v = oracles.clock_shift(l)
        w = oracles.random_unitary(l, self.nprng)
        u1, v1 = w @ u @ w.conj().T, w @ v @ w.conj().T
        os.makedirs(self.outdir, exist_ok=True)
        path = os.path.join(self.outdir, f"pair-{self.pairs}.json")
        self.pairs += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"l": l, "U": matrix_json(u1), "V": matrix_json(v1)}, fh)

        def check(out):
            expect(out["passed"], f"equiv l={l} reports FAIL")
            mu = complex(*out["mu"])
            oracles.check_standardized(u1, v1, l, matrix(out["M"]), mu)

        return self.op(c, ["equiv", os.path.relpath(path, self.root)], check)

    def gen_op(self, c, n, l, variant):
        def check(out):
            expect(out["report"]["passed"], f"gen n={n} l={l} reports FAIL")
            oracles.check_relations([matrix(m) for m in out["matrices"]], l, n)

        return self.op(c, ["gen", "--n", n, "--l", l, "--variant", variant], check)

    def verify_lame_op(self, c, n, l, trials, seed, mode="strict"):
        def check(out):
            expect(out["symbolic_pass"] and out["passed"],
                   f"verify-lame n={n} l={l} seed={seed} reports FAIL")
            order = l if l % 2 else 2 * l
            rng = random.Random(seed)
            dim = l ** ((n + 1) // 2)
            scale = max(sum(abs(a) ** l for a in oracles.cli_coefficients(rng, order, n))
                        for _ in range(trials)) * math.sqrt(dim)
            rel = out["matrix_max_residual"] / scale
            expect(rel <= oracles.REL_TOL, f"verify-lame residual {rel:.3e} of scale")

        argv = ["verify-lame", "--n", n, "--l", l, "--trials", trials, "--seed", seed]
        if mode != "strict":
            argv += ["--mode", mode]
        return self.op(c, argv, check)

    def selftest(self):
        def proc(rc, payload=None):
            return subprocess.CompletedProcess([], rc, json.dumps(payload or {}), "")

        bad = []
        fault = self.op(0, ["fourier", "--l", 3, "--tol", "nan"], None, expected=2)
        if fault.check(proc(1)) or not fault.check(proc(2)):
            bad.append("exit code: usage error not held to rc 2")
        lame = self.verify_lame_op(3, 2, 3, 3, 5)
        if lame.check(proc(1)):
            bad.append("exit code: rc 1 accepted for a holding identity")
        wrong = {"symbolic_pass": True, "passed": True, "matrix_max_residual": 1.0}
        if not oracles.rejects(lame.check, proc(0, wrong)):
            bad.append("verify-lame: residual 1.0 accepted")
        q = self.qbinom_op(random.Random(0), 0)
        l, k = int(q.argv[1]), int(q.argv[2])
        wrong = {"l": l, "k": k, "value": {"order": l, "coeffs": ["999"]}}
        if not oracles.rejects(q.check, proc(0, wrong)):
            bad.append("qbinom: wrong value accepted")
        return bad

    def make_op(self, rng, c, i):
        # Four operations per round fail today.  A malformed tolerance is a
        # usage error (rc 2) but exits 1; the two fixed verify-lame runs
        # hold (rc 0) but exit 1, because LAME_TOL is an absolute bound on
        # a residual that grows with |a|^l.
        if c == 0:
            if i == 3:
                return self.op(c, ["fourier", "--l", 3, "--tol", "nan"], None, expected=2)
            return self.qbinom_op(rng, c)
        if c == 1:
            if i == 3:
                return self.op(c, ["fourier", "--l", 3], None, {"WEYLCLIFFORD_TOL": "abc"},
                               expected=2)
            return self.forms_op(rng, c) if i < 2 else self.fourier_op(rng, c)
        if c == 2:
            if i < 2:
                return self.equiv_op(rng, c)
            return self.gen_op(c, rng.randrange(2, 5), 3, rng.choice(["tau", "taw"]))
        if c == 3:
            if i == 2:
                return self.verify_lame_op(c, 3, 7, 5, 0)
            if i == 3:
                return self.verify_lame_op(c, 4, 8, 2, 0)
            return self.verify_lame_op(c, rng.randrange(2, 5), 3, 3, rng.randrange(10**6),
                                       rng.choice(["strict", "weak"]))
        return self.gen_op(c, 6, 5, "taw")


def child_env(root) -> dict:
    """Environment of a CLI process: the checkout's src/, no tolerance override."""
    env = {k: v for k, v in os.environ.items() if k != "WEYLCLIFFORD_TOL"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def entry_point(root) -> str:
    """Python source that runs the [project.scripts] target, as pip's wrapper does."""
    import tomllib

    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["weylclifford"]
    module, func = target.split(":")
    return f"import sys; from {module} import {func}; sys.exit({func}())"


def matrix(obj) -> np.ndarray:
    dim = int(obj["dim"])
    flat = np.array(obj["entries"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)


def matrix_json(m) -> dict:
    return {"dim": int(m.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}


WORKLOADS = {w.name: w for w in (PowerSumExact, DeformedBinomials, RepsAndForms, CliSession)}
