import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_unitary
from weylclifford import cli
from weylclifford.matrep import matrix_from_json, matrix_to_json, pauli, weyl_pair


def run_cli(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def usage_error_code(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    capsys.readouterr()
    return exc.value.code


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_two_generators_is_weyl_pair(capsys):
    rc, out, _ = run_cli(["gen", "--n", "2", "--l", "3"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["dim"] == 3 and obj["l"] == 3 and obj["report"]["passed"]
    u, v = weyl_pair(3)
    assert np.allclose(matrix_from_json(obj["matrices"][0]), u)
    assert np.allclose(matrix_from_json(obj["matrices"][1]), v)


def test_gen_pauli_variant(capsys):
    rc, out, _ = run_cli(["gen", "--n", "1", "--variant", "pauli"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert np.allclose(matrix_from_json(obj["matrices"][0]), pauli(3))
    rc, out, _ = run_cli(["gen", "--n", "3", "--variant", "pauli"], capsys)
    obj = json.loads(out)
    assert rc == 0 and obj["dim"] == 4 and len(obj["matrices"]) == 3


def test_gen_single_taw_generator(capsys):
    # the lone odd generator in the default variant is nu U^dag V,
    # which at l=2 comes out to -sigma_2
    rc, out, _ = run_cli(["gen", "--n", "1", "--l", "2"], capsys)
    assert rc == 0
    got = matrix_from_json(json.loads(out)["matrices"][0])
    assert np.allclose(got, -pauli(2), atol=1e-14)


def test_gen_larger_set(capsys):
    rc, out, _ = run_cli(["gen", "--n", "4", "--l", "3", "--variant", "taw"], capsys)
    obj = json.loads(out)
    assert rc == 0 and obj["dim"] == 9 and obj["report"]["passed"]


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1, out1, _ = run_cli(["gen", "--n", "3", "--l", "4", "--out", str(a)], capsys)
    rc2, out2, _ = run_cli(["gen", "--n", "3", "--l", "4", "--out", str(b)], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2 == ""
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


GEN_PAULI_N1 = (
    '{"command":"gen","dim":2,"l":2,"matrices":[{"dim":2,"entries":'
    '[[1.0,0.0],[0.0,0.0],[0.0,0.0],[-1.0,0.0]]}],"n":1,"report":'
    '{"max_pair_deviation":0.0,"max_power_deviation":0.0,"pair_failures":[],'
    '"passed":true,"power_failures":[],"tolerance":1e-10},"variant":"pauli",'
    '"zeta":[-1.0,0.0]}\n'
)


def test_gen_json_bytes_pinned(capsys):
    assert run_cli(["gen", "--n", "1", "--variant", "pauli"], capsys) == (0, GEN_PAULI_N1, "")


def test_gen_json_bytes_hashed(capsys):
    # sha256 over the matrices and the verdict of every tau and taw set
    # with 2 <= l <= 5, n <= 4 and every pauli set with n <= 6; the
    # deviation floats are left out, since they are rounding noise of the
    # product and summation order (held fixed by the gather path, see
    # test_gen_report_does_not_depend_on_blas_threads).  Signed zeros
    # count: pauli's sigma_2 and tau's t_2 at l = 2 are equal in value but
    # carry their -0.0 in different entries
    cases = [
        ["--n", str(n), "--l", str(l), "--variant", v]
        for v in ("tau", "taw") for l in range(2, 6) for n in range(1, 5)
    ] + [["--n", str(n), "--variant", "pauli"] for n in range(1, 7)]
    digest = hashlib.sha256()
    for args in cases:
        rc, out, err = run_cli(["gen"] + args, capsys)
        assert (rc, err) == (0, ""), args
        obj = json.loads(out)
        digest.update(json.dumps([obj["matrices"], obj["report"]["passed"]]).encode())
    assert digest.hexdigest() == (
        "3d41f1a665a2c1fc3f040105053682f0e92cbc958f3522bf5adf7aa5f59792a9"
    )


def test_gen_report_does_not_depend_on_blas_threads():
    # the deviations of monomial generators are computed by index gathers
    # and numpy sums, not BLAS products; with dense products the taw report
    # at (5, 5) printed max_pair_deviation 2.186768153629606e-15 at one
    # OpenBLAS thread and 2.1867681536296064e-15 at two
    args = [sys.executable, "-m", "weylclifford.cli", "gen", "--n", "5", "--l", "5",
            "--variant", "taw"]
    outs = [
        subprocess.run(args, capture_output=True, check=True,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=str(t))).stdout
        for t in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["report"]["passed"]


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_usage_error(target, tmp_path, capsys):
    # a missing directory, and a path that is a directory
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--n", "3", "--l", "3", "--out", str(tmp_path / target)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("cannot write --out") and err.count("\n") == 1


def test_gen_text_format(capsys):
    rc, out, _ = run_cli(["gen", "--n", "2", "--l", "2", "--format", "text"], capsys)
    assert rc == 0
    assert "t_1 =" in out and "relations: pass" in out


def test_gen_usage_errors(capsys):
    assert usage_error_code(["gen", "--n", "0"], capsys) == 2
    assert usage_error_code(["gen", "--n", "2", "--l", "1"], capsys) == 2
    assert usage_error_code(["gen", "--n", "2", "--l", "3", "--variant", "pauli"], capsys) == 2


# ---------------------------------------------------------------------------
# verify-lame
# ---------------------------------------------------------------------------

def test_verify_lame_strict(capsys):
    rc, out, _ = run_cli(["verify-lame", "--n", "3", "--l", "2", "--trials", "4"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["passed"] and obj["symbolic_pass"]
    assert len(obj["per_trial"]) == 4
    assert obj["matrix_max_residual"] <= obj["tolerance"]


def test_verify_lame_single_generator(capsys):
    rc, out, _ = run_cli(["verify-lame", "--n", "1", "--l", "7", "--trials", "2"], capsys)
    assert rc == 0 and json.loads(out)["passed"]


def test_verify_lame_weak(capsys):
    rc, out, _ = run_cli(
        ["verify-lame", "--n", "2", "--l", "5", "--mode", "weak", "--trials", "3"],
        capsys,
    )
    assert rc == 0 and json.loads(out)["mode"] == "weak"


def test_verify_lame_seeded_determinism(capsys):
    args = ["verify-lame", "--n", "2", "--l", "3", "--trials", "3", "--seed", "9"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


TRIAL_OK = '{"residual_terms":0,"symbolic_pass":true}'


@pytest.mark.parametrize("args, expected", [
    # both tracks use one draw of coefficients per trial; the bytes are
    # those the command printed when each track drew its own copy
    (
        ["verify-lame", "--n", "2", "--l", "3", "--trials", "3", "--seed", "9"],
        '{"command":"verify-lame","l":3,"matrix_max_residual":3.370400129833633e-14,'
        '"mode":"strict","n":2,"passed":true,"per_trial":[' + ",".join([TRIAL_OK] * 3)
        + '],"seed":9,"symbolic_pass":true,"tolerance":1e-09,"trials":3}\n',
    ),
    # weak mode; the bytes are those printed when each reordering phase
    # was a full product by root_of_unity
    (
        ["verify-lame", "--n", "3", "--l", "4", "--mode", "weak", "--trials", "2",
         "--seed", "5"],
        '{"command":"verify-lame","l":4,"matrix_max_residual":9.64478016250963e-12,'
        '"mode":"weak","n":3,"passed":true,"per_trial":[' + ",".join([TRIAL_OK] * 2)
        + '],"seed":5,"symbolic_pass":true,"tolerance":1e-09,"trials":2}\n',
    ),
], ids=["strict", "weak"])
def test_verify_lame_json_bytes_pinned(args, expected, capsys):
    assert run_cli(args, capsys) == (0, expected, "")


def test_verify_lame_tolerance_is_relative(capsys):
    # the identity holds here, and the absolute residual (~1.7e-07) is
    # ~6.6e-16 of sum_k |a_k|^l * sqrt(dim)
    args = ["verify-lame", "--n", "3", "--l", "7", "--trials", "5", "--seed", "0"]
    rc, out, _ = run_cli(args, capsys)
    obj = json.loads(out)
    assert rc == 0 and obj["passed"] and obj["symbolic_pass"]
    assert obj["matrix_max_residual"] > obj["tolerance"]
    # a relative tolerance below the rounding level still fails
    rc, out, _ = run_cli(args + ["--tol", "1e-30"], capsys)
    obj = json.loads(out)
    assert rc == 1 and obj["symbolic_pass"] and not obj["passed"]


def test_verify_lame_judges_each_trial_against_its_own_scale(capsys):
    # the identity holds at (4, 32), but rounding in X^l grows like
    # (sum_k |a_k|)^l: the residual 1.5e36 is ~1e-20 of that scale, and
    # was judged as a failure against tol * sum_k |a_k|^l * sqrt(dim)
    args = ["verify-lame", "--n", "4", "--l", "32", "--trials", "1", "--seed", "0"]
    rc, out, _ = run_cli(args, capsys)
    obj = json.loads(out)
    assert rc == 0 and obj["passed"] and obj["symbolic_pass"]
    assert obj["matrix_max_residual"] > 1e30


def test_verify_lame_scale_past_the_float_range_fails_an_infinite_residual(capsys):
    # (sum_k |a_k|)^200 overflows a float here and so does the residual:
    # the run reports a failure, with no OverflowError traceback
    args = ["verify-lame", "--n", "2", "--l", "200", "--trials", "1", "--seed", "3"]
    with np.errstate(over="ignore", invalid="ignore"):
        rc, out, _ = run_cli(args, capsys)
    obj = json.loads(out)
    assert rc == 1 and obj["symbolic_pass"] and not obj["passed"]
    assert obj["matrix_max_residual"] == math.inf


VERIFY_LAME_AT_THE_CAP = """
import resource, sys
from weylclifford import cli
rc = cli.main(["verify-lame", "--n", "20", "--l", "2", "--trials", "1"])
sys.stderr.write(f"{rc} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
"""


def test_verify_lame_at_the_cap_builds_no_dense_generators():
    # 20 generators at dim 1024 are 335 MB as dense matrices; the run
    # reads their (perm, phase) form only and peaked at 81 MB of RSS, where
    # building them peaked at 407 MB (ru_maxrss is in KiB on Linux)
    err = subprocess.run(
        [sys.executable, "-c", VERIFY_LAME_AT_THE_CAP],
        capture_output=True, text=True, check=True, timeout=60,
    ).stderr.split()
    assert err[0] == "0"
    assert int(err[1]) < 200 * 1024


def test_verify_lame_usage(capsys):
    assert usage_error_code(["verify-lame", "--n", "2", "--l", "3", "--trials", "0"], capsys) == 2


# ---------------------------------------------------------------------------
# qbinom
# ---------------------------------------------------------------------------

def test_qbinom_at_unit(capsys):
    rc, out, _ = run_cli(["qbinom", "4", "2", "--unit"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["approx"] == [6.0, 0.0]


def test_qbinom_vanishing_at_primitive_root(capsys):
    rc, out, _ = run_cli(["qbinom", "5", "2", "--root", "5"], capsys)
    obj = json.loads(out)
    assert rc == 0
    assert abs(complex(*obj["approx"])) < 1e-12
    # default lambda order is l itself
    rc, out, _ = run_cli(["qbinom", "5", "2"], capsys)
    assert json.loads(out)["lambda_order"] == 5


def test_qbinom_gaussian_integer_value(capsys):
    rc, out, _ = run_cli(["qbinom", "2", "1", "--root", "4"], capsys)
    obj = json.loads(out)
    assert rc == 0
    assert np.allclose(obj["approx"], [1.0, 1.0])


def test_qbinom_usage(capsys):
    assert usage_error_code(["qbinom", "3", "5"], capsys) == 2
    assert usage_error_code(["qbinom", "3", "-1"], capsys) == 2
    assert usage_error_code(["qbinom", "3", "1", "--unit", "--root", "3"], capsys) == 2
    assert usage_error_code(["qbinom", "3", "1", "--root", "0"], capsys) == 2
    # the default lambda order is l, and there is no root of order 0
    assert usage_error_code(["qbinom", "0", "0"], capsys) == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_qbinom_unit_is_root_one(fmt, capsys):
    unit = run_cli(["qbinom", "6", "3", "--unit", "--format", fmt], capsys)
    assert unit == run_cli(["qbinom", "6", "3", "--root", "1", "--format", fmt], capsys)
    assert unit[0] == 0


@pytest.mark.parametrize("args, expected", [
    (["qbinom", "5", "2"],
     '{"approx":[0.0,0.0],"command":"qbinom","k":2,"l":5,"lambda_order":5,'
     '"value":{"coeffs":["0","0","0","0"],"order":5}}\n'),
    (["qbinom", "6", "3", "--root", "3"],
     '{"approx":[2.0,0.0],"command":"qbinom","k":3,"l":6,"lambda_order":3,'
     '"value":{"coeffs":["2","0"],"order":3}}\n'),
    (["qbinom", "9", "4", "--root", "18"],
     '{"approx":[-39.454296846907944,-14.360189666177376],"command":"qbinom",'
     '"k":4,"l":9,"lambda_order":18,'
     '"value":{"coeffs":["-10","-14","-16","-6","0","6"],"order":18}}\n'),
    (["qbinom", "4", "2", "--unit"],
     '{"approx":[6.0,0.0],"command":"qbinom","k":2,"l":4,"lambda_order":1,'
     '"value":{"coeffs":["6"],"order":1}}\n'),
    (["qbinom", "0", "0", "--root", "1"],
     '{"approx":[1.0,0.0],"command":"qbinom","k":0,"l":0,"lambda_order":1,'
     '"value":{"coeffs":["1"],"order":1}}\n'),
], ids=["5-2", "6-3-root3", "9-4-root18", "4-2-unit", "0-0-root1"])
def test_qbinom_json_bytes_pinned(args, expected, capsys):
    # the bytes the command printed when [l k]_lam was the exact quotient
    # of formal q-factorials, evaluated at lam; at order 3, (6, 3) would be
    # a 0/0 for the quotient taken in the field
    assert run_cli(args, capsys) == (0, expected, "")


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def test_forms_transport(capsys):
    rc, out, _ = run_cli(["forms", "--n", "6"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["L_transport_ok"] and obj["Lprime_transport_ok"]
    assert obj["h_pm"]["entries"][0] == ["0", "1", "1", "1", "1", "1"]
    assert obj["L"]["entries"][5] == ["0", "1", "0", "1", "1", "1"]
    assert obj["Lprime"]["entries"][4] == ["-1", "1", "-1", "1", "1", "0"]


FORMS_N2 = (
    '{"L":{"entries":[["1","0"],["1","1"]],"n":2},"L_transport_ok":true,'
    '"Lprime":{"entries":[["1","0"],["0","1"]],"n":2},"Lprime_transport_ok":true,'
    '"command":"forms","h_c":{"entries":[["0","1"],["-1","0"]],"n":2},'
    '"h_pm":{"entries":[["0","1"],["-1","0"]],"n":2},"n":2}\n'
)
FORMS_N4 = (
    '{"L":{"entries":[["1","0","0","0"],["1","1","0","0"],["0","1","1","0"],'
    '["0","1","1","1"]],"n":4},"L_transport_ok":true,'
    '"Lprime":{"entries":[["1","0","0","0"],["0","1","0","0"],["-1","1","1","0"],'
    '["-1","1","0","1"]],"n":4},"Lprime_transport_ok":true,"command":"forms",'
    '"h_c":{"entries":[["0","1","0","0"],["-1","0","0","0"],["0","0","0","1"],'
    '["0","0","-1","0"]],"n":4},'
    '"h_pm":{"entries":[["0","1","1","1"],["-1","0","1","1"],["-1","-1","0","1"],'
    '["-1","-1","-1","0"]],"n":4},"n":4}\n'
)


@pytest.mark.parametrize("n, expected", [(2, FORMS_N2), (4, FORMS_N4)], ids=["n2", "n4"])
def test_forms_json_bytes_pinned(n, expected, capsys):
    # the bytes the command printed when every form was filled entry by
    # entry with Fractions
    assert run_cli(["forms", "--n", str(n)], capsys) == (0, expected, "")


def test_forms_json_bytes_hashed(capsys):
    # sha256 over the JSON of forms --n k, k = 2, 4, ..., 32 in turn, as
    # printed when every form was filled entry by entry with Fractions
    digest = hashlib.sha256()
    for k in range(2, 33, 2):
        rc, out, err = run_cli(["forms", "--n", str(k)], capsys)
        assert (rc, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "028c7260467ac785af9554d573b5ade2e64a63d31b9ac92c2916296dca287118"
    )


def test_forms_usage(capsys):
    assert usage_error_code(["forms", "--n", "5"], capsys) == 2
    assert usage_error_code(["forms", "--n", "0"], capsys) == 2


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

def test_fourier_hadamard(capsys):
    rc, out, _ = run_cli(["fourier", "--l", "2"], capsys)
    assert rc == 0
    obj = json.loads(out)
    r = 1 / np.sqrt(2)
    want = np.array([[r, r], [r, -r]])
    assert np.allclose(matrix_from_json(obj["matrix"]), want)
    assert obj["unitary_deviation"] <= 1e-12
    assert obj["intertwine_deviation"] <= obj["tolerance"]


def test_fourier_usage(capsys):
    assert usage_error_code(["fourier", "--l", "1"], capsys) == 2


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------

def make_pair_file(path, l=4, seed=3, mu_angle=0.77):
    rng = np.random.default_rng(seed)
    u, v = weyl_pair(l)
    w = random_unitary(l, rng)
    mu0 = np.exp(1j * mu_angle)
    up = w.conj().T @ u @ w
    vp = w.conj().T @ (mu0 * v) @ w
    blob = {"l": l, "U": matrix_to_json(up), "V": matrix_to_json(vp)}
    path.write_text(json.dumps(blob))
    return mu0, up, vp


def test_equiv_round_trip(tmp_path, capsys):
    pf = tmp_path / "pair.json"
    mu0, _, _ = make_pair_file(pf)
    rc, out, _ = run_cli(["equiv", str(pf)], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["passed"]
    assert abs(complex(*obj["mu"]) - mu0) < 1e-8
    assert obj["residual_U"] <= obj["tolerance"]
    assert obj["residual_V"] <= obj["tolerance"]


def test_equiv_missing_and_malformed_files(tmp_path, capsys):
    rc, _, err = run_cli(["equiv", str(tmp_path / "nope.json")], capsys)
    assert rc == 1 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    rc, _, err = run_cli(["equiv", str(bad)], capsys)
    assert rc == 1 and "cannot read" in err
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"l": 4}))
    assert run_cli(["equiv", str(partial)], capsys)[0] == 1
    # a file l that is not a whole number in 2..MAX_DIM is unreadable
    # input, refused before any root of unity is built
    pf = tmp_path / "pair.json"
    make_pair_file(pf, l=3)
    blob = json.loads(pf.read_text())
    for l in (1, -5, 10**7, 3.7, cli.MAX_DIM + 1, "3", True):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(dict(blob, l=l)))
        rc, _, err = run_cli(["equiv", str(odd)], capsys)
        assert rc == 1 and "cannot read pair file" in err, l
        assert "Traceback" not in err
    # a whole float is a whole number
    odd.write_text(json.dumps(dict(blob, l=3.0)))
    rc, out, _ = run_cli(["equiv", str(odd)], capsys)
    assert rc == 0 and json.loads(out)["l"] == 3
    # so is a matrix dim, which must also be at least 1; 1e400 reads as inf
    for dim in ("1e400", "2.5", "NaN", "0", "-3", "true", '"3"', "null"):
        text = json.dumps(dict(blob, U=dict(blob["U"], dim="DIM")))
        odd.write_text(text.replace('"DIM"', dim))
        rc, _, err = run_cli(["equiv", str(odd)], capsys)
        assert rc == 1 and "cannot read pair file" in err, dim
        assert "Traceback" not in err and err.count("\n") == 1
    odd.write_text(json.dumps(dict(blob, U=dict(blob["U"], dim=3.0))))
    assert run_cli(["equiv", str(odd)], capsys)[0] == 0
    # pairs that cannot be standardized: U and V of different sizes, a
    # singular U, non-finite entries
    u2 = matrix_to_json(weyl_pair(2)[0])
    zero_u = dict(blob["U"], entries=[[0.0, 0.0]] * 9)
    nan_u = dict(blob["U"], entries=[[float("nan"), 0.0]] + blob["U"]["entries"][1:])
    inf_v = dict(blob["V"], entries=[[float("inf"), 0.0]] + blob["V"]["entries"][1:])
    for fields in ({"U": u2}, {"U": zero_u}, {"U": nan_u}, {"V": inf_v}):
        odd.write_text(json.dumps(dict(blob, **fields)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second line
            rc, _, err = run_cli(["equiv", str(odd)], capsys)
        assert rc == 1 and "standardization failed" in err, fields
        assert "Traceback" not in err and err.count("\n") == 1


def test_equiv_usage(tmp_path, capsys):
    pf = tmp_path / "pair.json"
    make_pair_file(pf)
    assert usage_error_code(["equiv", str(pf), "--l", "1"], capsys) == 2
    assert usage_error_code(["equiv", str(pf), "--l", "-5"], capsys) == 2


def test_equiv_perturbed_pair_fails(tmp_path, capsys):
    pf = tmp_path / "pair.json"
    make_pair_file(pf)
    blob = json.loads(pf.read_text())
    blob["U"]["entries"][0][0] += 0.05
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(blob))
    rc, _, err = run_cli(["equiv", str(broken)], capsys)
    assert rc == 1 and "standardization failed" in err


# ---------------------------------------------------------------------------
# dense size cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["gen", "--n", "1", "--l", str(cli.MAX_DIM + 1)],
    ["verify-lame", "--n", "1", "--l", str(cli.MAX_DIM + 1), "--trials", "1"],
    ["fourier", "--l", str(cli.MAX_DIM + 1)],
    # qbinom caps l and lambda's order, before a root of unity is built
    ["qbinom", "2", "1", "--root", str(cli.MAX_DIM + 1)],
    ["qbinom", str(cli.MAX_DIM + 1), "0"],
    ["qbinom", str(cli.MAX_DIM + 1), "0", "--root", "3"],
    # forms is capped like fourier, and equiv's --l before the file is read
    ["forms", "--n", str(cli.MAX_DIM + 2)],
    ["equiv", "pair.json", "--l", str(cli.MAX_DIM + 1)],
])
def test_dimension_above_cap_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "exceeds the cap" in err and "Traceback" not in err


def test_qbinom_size_at_cap_runs(capsys):
    cap = str(cli.MAX_DIM)
    rc, out, _ = run_cli(["qbinom", cap, cap, "--root", cap], capsys)
    obj = json.loads(out)
    coeffs = obj["value"]["coeffs"]
    assert rc == 0 and obj["value"]["order"] == cli.MAX_DIM
    assert coeffs[0] == "1" and set(coeffs[1:]) == {"0"}


def test_dimension_cap_boundary(monkeypatch, capsys):
    # with the cap lowered to 9, l^ceil(n/2) = 9 is built and 27 is refused;
    # pauli sets count 2^ceil(n/2)
    monkeypatch.setattr(cli, "MAX_DIM", 9)
    rc, out, _ = run_cli(["gen", "--n", "4", "--l", "3"], capsys)
    assert rc == 0 and json.loads(out)["dim"] == 9
    assert usage_error_code(["gen", "--n", "5", "--l", "3"], capsys) == 2
    assert usage_error_code(["verify-lame", "--n", "5", "--l", "3"], capsys) == 2
    assert usage_error_code(["gen", "--n", "7", "--variant", "pauli"], capsys) == 2
    assert usage_error_code(["fourier", "--l", "10"], capsys) == 2
    rc, out, _ = run_cli(["forms", "--n", "8"], capsys)
    assert rc == 0 and json.loads(out)["n"] == 8
    assert usage_error_code(["forms", "--n", "10"], capsys) == 2
    assert usage_error_code(["equiv", "pair.json", "--l", "10"], capsys) == 2


# ---------------------------------------------------------------------------
# tolerance resolution and output plumbing
# ---------------------------------------------------------------------------

def test_env_tolerance_applies(monkeypatch, capsys):
    monkeypatch.setenv("WEYLCLIFFORD_TOL", "1e-30")
    rc, out, _ = run_cli(["fourier", "--l", "7"], capsys)
    assert rc == 1 and not json.loads(out)["passed"]
    # an explicit flag wins over the environment
    rc, out, _ = run_cli(["fourier", "--l", "7", "--tol", "1e-9"], capsys)
    assert rc == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("bad", ["nan", "-1", "0", "inf", "abc"])
def test_malformed_tol_flag_is_usage_error(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fourier", "--l", "5", "--tol", bad])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--tol" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", ["abc", "nan", "-1e-9"])
def test_malformed_env_tolerance_is_usage_error(bad, monkeypatch, capsys):
    monkeypatch.setenv("WEYLCLIFFORD_TOL", bad)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fourier", "--l", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "WEYLCLIFFORD_TOL" in err and "Traceback" not in err
    # an explicit flag is used without reading the environment
    rc, out, _ = run_cli(["fourier", "--l", "3", "--tol", "1e-9"], capsys)
    assert rc == 0 and json.loads(out)["tolerance"] == 1e-9


def test_out_file_writes_payload(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc, out, _ = run_cli(["qbinom", "6", "3", "--unit", "--out", str(target)], capsys)
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["approx"] == [20.0, 0.0]


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GEN_ARGS = ["gen", "--n", "2", "--l", "5"]


def console_script_target():
    """The `module:function` that pyproject.toml declares for `weylclifford`."""
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"]["weylclifford"]
    # no tomllib before 3.11: match the entry line inside [project.scripts]
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^weylclifford\s*=\s*"([^"]+)"\s*$', section, re.MULTILINE)
    assert match, "pyproject.toml declares no weylclifford console script"
    return match.group(1)


def entry_point_command():
    """The command that runs the declared target in a fresh interpreter, as pip's wrapper does."""
    module, func = console_script_target().split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def run_twice_deterministic(cmd):
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.endswith(b"\n")
    return r1.stdout


def test_console_script_deterministic():
    run_twice_deterministic(entry_point_command() + GEN_ARGS)


@pytest.mark.skipif(shutil.which("weylclifford") is None, reason="console script not installed")
def test_installed_console_script_deterministic():
    out = run_twice_deterministic(["weylclifford", *GEN_ARGS])
    assert out == subprocess.run(entry_point_command() + GEN_ARGS, capture_output=True).stdout


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "weylclifford.cli", "qbinom", "4", "2", "--unit"],
        capture_output=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["approx"] == [6.0, 0.0]


def test_missing_subcommand_is_usage_error(capsys):
    assert usage_error_code([], capsys) == 2
