"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, in nats.  Every randomized sweep is seeded (master
seed 7) and routed through the same suite runners the CLI uses, so the CLI
`verify` command and this module certify the same computations.
"""

import os
import subprocess
import sys
import time

import cqbounds
from cqbounds import neyman_pearson_beta, random_density
from cqbounds import verify as vf

SEED = 7


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _min_margin(res, kind=None, column=None):
    rows = res.rows
    if kind is not None:
        idx = res.columns.index(column or "kind")
        rows = [r for r in rows if r[idx] == kind]
    return min(r[-1] for r in rows), len(rows)


def test_c01_functional_inequalities():
    t0 = time.time()
    alt = vf.run_suite("alt", SEED, 500)
    rh = vf.run_suite("reverse-holder", SEED, 500)
    ralt = vf.run_suite("reverse-alt", SEED, 500)
    rhc = vf.run_suite("rhc", SEED, 500)
    elapsed = time.time() - t0
    margins = {
        "alt": min(r[-1] for r in alt.rows),
        "reverse-holder": min(r[-1] for r in rh.rows),
        "reverse-alt": min(r[-1] for r in ralt.rows),
        "rhc": min(r[-1] for r in rhc.rows),
    }
    ok = (
        margins["alt"] >= -1e-10
        and margins["reverse-holder"] >= -1e-10
        and margins["reverse-alt"] >= -1e-10
        and margins["rhc"] >= -1e-9
        and len(rhc.rows) == 1000  # both t = threshold and threshold + 0.5
        and elapsed <= 120.0
    )
    _line(1, "functional-inequality margins", ok,
          f"margins={margins}, elapsed={elapsed:.1f}s")
    assert ok


def test_c02_entropy_oracles():
    dp = vf.run_suite("entropy-dp", SEED, 1000)
    var = vf.run_suite("entropy-var", SEED, 500)
    renyi = vf.run_suite("renyi-limit", SEED, 200)
    dp_min = min(r[-1] for r in dp.rows)
    dom_min, _ = _min_margin(var, "dominance")
    eq_min, _ = _min_margin(var, "equality")
    renyi_min = min(r[-1] for r in renyi.rows)
    ok = (
        dp_min >= -1e-8  # data processing for D and D_alpha, 1000 channels
        and dom_min >= -1e-9
        and eq_min >= 0.0  # |D - variational at maximizer| <= 1e-8
        and renyi_min >= 0.0  # |D_0.999 - D| <= 1e-3
    )
    _line(2, "entropy oracle suite", ok,
          f"dp={dp_min:.2e}, equality={eq_min:.2e}, renyi={renyi_min:.2e}")
    assert ok


def test_c03_neyman_pearson():
    t0 = time.time()
    oracle = vf.run_suite("np-oracle", SEED, 200)
    oracle_min = min(r[-1] for r in oracle.rows)  # 1e-9 - |beta - oracle|
    exact_ok = True
    for eps in (0.05, 0.25, 0.5, 0.75, 0.95):
        rho = random_density(3, 1234, min_eig_floor=0.05)
        beta, _ = neyman_pearson_beta(rho, rho, eps)
        exact_ok = exact_ok and abs(beta - (1.0 - eps)) < 1e-12
    trend = vf.run_suite("np-trend", SEED)
    trend_min = min(r[-1] for r in trend.rows)
    elapsed = time.time() - t0
    ok = oracle_min >= 0.0 and exact_ok and trend_min >= 0.0 and elapsed <= 180.0
    _line(3, "neyman-pearson oracle + trend", ok,
          f"oracle_margin={oracle_min:.2e}, identical-exactness={exact_ok}, "
          f"trend_margin={trend_min:.3f}, elapsed={elapsed:.1f}s "
          f"(asymptotic equality not expected; trend only)")
    assert ok


def test_c04_delta_machinery():
    res = vf.run_suite("bottleneck", SEED, 100)
    grid_min, grid_n = _min_margin(res, "fixed-point-vs-grid")
    below_min, below_n = _min_margin(res, "star-below-delta")
    stab_min, _ = _min_margin(res, "star-stabilized")
    cont_min, _ = _min_margin(res, "continuity")
    ok = (
        grid_min >= 0.0  # |fixed point - 1/64 grid| <= 1e-3
        and below_n >= 100
        and below_min >= -1e-6
        and stab_min >= 0.0  # |star(|X|+2) - star(|X|+1)| <= 1e-6
        and cont_min >= -1e-5
    )
    _line(4, "delta machinery", ok,
          f"grid={grid_min:.2e} ({grid_n} instances), star<=delta={below_min:.2e} "
          f"({below_n} pairs), stabilization={stab_min:.2e}, continuity={cont_min:.2e}")
    assert ok


def test_c05_key_inequality():
    t0 = time.time()
    res = vf.run_suite("key-inequality", SEED, 500)
    worst = min(r[-1] for r in res.rows)  # relative margins
    elapsed = time.time() - t0
    ok = worst >= -1e-6 and elapsed <= 120.0
    _line(5, "key inequality", ok,
          f"min_relative_margin={worst:.2e}, instances=500, elapsed={elapsed:.1f}s")
    assert ok


def test_c06_single_letterization():
    t0 = time.time()
    res = vf.run_suite("single-letter", SEED)
    worst = min(r[-1] for r in res.rows)
    elapsed = time.time() - t0
    ok = worst >= -1e-4 and elapsed <= 600.0
    _line(6, "single-letterization at n=8", ok,
          f"margin={worst:.4f}, elapsed={elapsed:.1f}s")
    assert ok


def test_c07_strong_converse_soundness():
    res = vf.run_suite("soundness", SEED)
    stein_min, stein_n = _min_margin(res, "stein")
    img_min, img_n = _min_margin(res, "image-size")
    sweep = vf.run_suite("image-size", SEED, 500)
    sweep_min = min(r[-1] for r in sweep.rows)
    ok = stein_min >= -1e-6 and img_min >= -1e-6 and sweep_min >= -1e-6
    _line(7, "strong-converse soundness", ok,
          f"stein={stein_min:.3f} ({stein_n} cases, n-threshold waived: formal "
          f"evaluation), image-size={img_min:.3f} ({img_n} fixed cases, "
          f"{sweep_min:.3f} over 500 random instances)")
    assert ok


def test_c08_stein_sandwich():
    res = vf.run_suite("sandwich", SEED)
    rate_min, _ = _min_margin(res, "rate-saturation")
    theta_min, _ = _min_margin(res, "theta-identity")
    ok = rate_min >= 0.0 and theta_min >= 0.0
    _line(8, "high-rate sandwich", ok,
          f"rate-saturation={rate_min:.2e} (tol 1e-5), theta-identity={theta_min:.2e} "
          f"(tol 1e-9)")
    assert ok


def test_c09_expurgation():
    res = vf.run_suite("expurgation", SEED, 200)
    worst = min(r[-1] for r in res.rows)
    ok = worst >= -1e-10
    _line(9, "expurgation postconditions", ok,
          f"min_margin={worst:.2e}, families=200")
    assert ok


def test_c10_determinism(tmp_path):
    """Byte-identical verify --all output across different BLAS thread counts."""
    # The child runs in tmp_path, where a relative PYTHONPATH entry (e.g. the
    # `src` of a no-install run) resolves to nothing; put the directory of the
    # cqbounds this process imported first, so both sides run the same code.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cqbounds.__file__)))
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    runs = {}
    for label, threads in (("a", "1"), ("b", "4")):
        workdir = tmp_path / label
        workdir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        cmd = [
            sys.executable, "-m", "cqbounds.cli", "verify", "--all",
            "--seed", "7", "--instances", "8", "--out", "report.txt",
        ]
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs = {}
        for path in sorted(workdir.iterdir()):
            blobs[path.name] = path.read_bytes()
        runs[label] = blobs
    same_files = sorted(runs["a"]) == sorted(runs["b"])
    same_bytes = same_files and all(runs["a"][k] == runs["b"][k] for k in runs["a"])
    ok = same_files and same_bytes
    _line(10, "determinism across thread counts", ok,
          f"files={sorted(runs['a'])!r} identical={same_bytes}")
    assert ok
