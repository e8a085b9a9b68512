"""The benchmark's workloads: seeded inputs, the items of one pass, and the
check of every item's output.

An item is one CLI call (``cqbounds.cli.main(argv)`` in process) or one call
of a public function.  Checks use an oracle where the package has one
(r >= H(X) gives I(X;Y), log W1 >= H(X) gives H(Y|X), the proved inequality
margins, ``overall_pass`` of a suite) and otherwise compare with values
recorded from the program in ``references.json``: a value passes when
``|value - ref| <= tolerance * |ref| + 1e-12`` (relative; the absolute floor
only matters for references that are rounding noise around 0).  Oracle values
are computed here with numpy, not by the package.

Every pass draws fresh inputs: pass k of a run at seed s draws from
``[s, k, ...]``, so no input recurs between the passes of a run and work
that a process-wide cache could keep is paid in every pass, as it is by a
user running one CLI process per call.

Seeded sources are members of a fixed family of random sources (and the
example model) whose output states are all rotated by a Haar unitary drawn
per pass.  Every quantity computed here is invariant under that rotation, so
the matrices the program receives differ with the seed and the pass while
the optimizers do the same work and reach the same values: the spread
between seeds measures the program, not the draw (a perturbation of the
states instead changes the optimizers' iteration counts by 20% and more),
and the values recorded at the default seed check every seed.  The other
side of this choice: on ``dual-curve`` and ``product-states`` a seed selects
only the rotation, so the held-out seed holds out the matrices but no
property of the inputs (family, rates, weights and tests are fixed by
``FAMILY_SEED``).  ``oracle-sweep`` draws its suite seeds from the seed.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from cqbounds import bottleneck, bounds, cli, verify
from cqbounds import CQSource, DensityMatrix, HermitianOperator
from cqbounds import load_model, random_density, random_psd, save_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE = os.path.join(ROOT, "model.example.json")

#: base seed of the fixed source family
FAMILY_SEED = 1905
#: oracle tolerance of the rate-saturation sandwich (verify suite "sandwich")
SANDWICH_TOL = 1e-5
#: absolute floor of the reference comparison
REF_FLOOR = 1e-12
#: CLI calls of dual-curve, all at the default multistarts as a user runs
#: them: (source, command, rates as multiples of H(X) or "top" = H(X) + 0.05).
#: Several calls per source, so the same delta*(c) solves repeat across rates
#: and commands on one source.  Sized to one pass of about 38 s: on family
#: member 2x2 a source-bound call takes 38 s and a two-rate sc-bound sweep
#: 23 s, and members with |X| = 3 take longer still, so they are left out.
DUAL_CALLS = (
    ("example", "sc-bound", ("0.45H",)),
    ("example", "source-bound", ("top",)),
    ("example", "sweep-bottleneck", ("top",)),
    ("family-2x3", "sweep-sc-bound", ("0.6H",)),
    ("family-2x3", "sweep-bottleneck", ("0.3H",)),
)


def pass_rng(seed: int, pass_index: int, stream: int):
    """Generator of one input stream of one pass."""
    return np.random.default_rng([seed, pass_index, stream])


class Item:
    """One unit of work: ``run()`` returns its output, ``check(output)``
    returns a list of problems (empty when the output is correct)."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class Expect:
    """Comparison with recorded references, or recording them."""

    def __init__(self, refs, record=None):
        self.values = refs["values"]
        self.tol = refs["tolerance"]
        self.record = record

    def reference(self, name, value, problems):
        if self.record is not None:
            self.record[name] = value
            return
        ref = self.values.get(name)
        if ref is None:
            problems.append(f"{name}: no reference recorded")
        elif not abs(value - ref) <= self.tol * abs(ref) + REF_FLOOR:
            problems.append(f"{name}: {value!r} differs from reference {ref!r}")


def _near(problems, label, value, target, tol):
    if not abs(value - target) <= tol:
        problems.append(f"{label}: {value!r} not within {tol} of {target!r}")


def _within(problems, label, value, lo, hi, tol=1e-9):
    if not lo - tol <= value <= hi + tol:
        problems.append(f"{label}: {value!r} outside [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# inputs and oracles


def _entropy(mat) -> float:
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log(w)))


class Oracle:
    """H(X), H(Y|X), S(avg) and I(X;Y) of a source, computed with numpy."""

    def __init__(self, src):
        q = np.asarray(src.q_x)
        mats = [s.entries for s in src.states]
        self.h_x = float(-np.sum(q * np.log(q)))
        self.h_y_given_x = float(sum(p * _entropy(m) for p, m in zip(q, mats)))
        self.s_avg = _entropy(sum(p * m for p, m in zip(q, mats)))
        self.i_xy = self.s_avg - self.h_y_given_x

    def rate(self, level: str) -> float:
        """A rate given as a multiple of H(X) ("0.3H") or "top" = H(X) + 0.05."""
        return self.h_x + 0.05 if level == "top" else float(level[:-1]) * self.h_x


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, r = np.linalg.qr(g)
    return u * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotate(mat, u) -> np.ndarray:
    out = u @ mat @ u.conj().T
    return (out + out.conj().T) / 2.0


def _rotate_states(states, u):
    return [DensityMatrix(rotate(s.entries, u)) for s in states]


def family_source(x_size: int, d_y: int, u, uniform_q: bool = False,
                  floor: float = 0.05) -> CQSource:
    """Member (x_size, d_y) of the fixed family with every state rotated by
    the unitary ``u``."""
    base = np.random.default_rng([FAMILY_SEED, x_size, d_y])
    q = 0.5 * base.dirichlet(np.full(x_size, 4.0)) + 0.5 / x_size
    if uniform_q:
        q = np.full(x_size, 1.0 / x_size)
    states = [
        DensityMatrix(rotate(random_density(d_y, int(base.integers(2**31 - 1)),
                                            min_eig_floor=floor).entries, u))
        for _ in range(x_size)
    ]
    return CQSource([str(k) for k in range(x_size)], q / q.sum(), states)


def example_source(u):
    """The example model with its states and alternative states rotated by u."""
    src, alt = load_model(EXAMPLE)
    src = CQSource(src.alphabet, src.q_x, _rotate_states(src.states, u))
    return src, None if alt is None else _rotate_states(alt, u)


def _save(workdir, name, src, alt=None) -> str:
    path = os.path.join(workdir, f"{name}.json")
    save_model(path, src, alt)
    return path


# ---------------------------------------------------------------------------
# CLI items


def _read_report(path) -> dict:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, sep, rest = line.partition(" = ")
            if sep:
                rows[name] = rest.rsplit(" [", 1)[0].strip()
    return rows


def cli_item(name, argv, workdir, check_rows) -> Item:
    """An item running ``cqbounds <argv> --out <report>`` in process."""
    out = os.path.join(workdir, f"{name}.txt")
    full = list(argv) + ["--out", out]

    def run():
        if os.path.exists(out):
            os.remove(out)
        return cli.main(full)

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        check_rows(_read_report(out), out[:-4], problems)
        return problems

    return Item(name, run, check)


def _float(rows, key, problems):
    try:
        value = float(rows[key])
    except (KeyError, ValueError):
        problems.append(f"report row {key!r} missing or not a number")
        return math.nan
    if not math.isfinite(value):
        problems.append(f"report row {key!r} is {value!r}")
    return value


def _check_bound_rows(rows, problems):
    first = _float(rows, "first_order", problems)
    parts = [first] + [_float(rows, k, problems) for k in ("second_order", "third_order")]
    total = _float(rows, "total", problems)
    if total != parts[0] + parts[1] + parts[2]:
        problems.append("total is not the sum of its three terms")
    return first


def _sweep_rows(base, expected, problems):
    with open(f"{base}.sweep.csv", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    if len(table) != expected:
        problems.append(f"sweep wrote {len(table)} rows, expected {expected}")
        return []
    return [(float(row["lhs"]), float(row["rhs"])) for row in table]


# ---------------------------------------------------------------------------
# dual-curve


def dual_curve(seed: int, pass_index: int, workdir: str, expect: Expect):
    """CLI sc-bound, source-bound and sweep on the example model and on a
    family member, each rotated by a unitary of this pass."""
    rng = pass_rng(seed, pass_index, 1)
    models = {}
    src, alt = example_source(haar_unitary(rng, 2))
    models["example"] = (_save(workdir, "example", src, alt), Oracle(src))
    src = family_source(2, 3, haar_unitary(rng, 3))
    models["family-2x3"] = (_save(workdir, "family-2x3", src), Oracle(src))
    return [_dual_item(tag, command, levels, *models[tag], workdir, expect)
            for tag, command, levels in DUAL_CALLS]


def _dual_item(tag, command, levels, path, o, workdir, expect):
    """One CLI call of DUAL_CALLS and its check: oracle values at rates
    >= H(X), recorded references and the bracketing bounds elsewhere."""
    name = f"cli-{command}-{tag}-{'-'.join(levels)}"
    rates = [repr(o.rate(level)) for level in levels]

    def ref(field, value, problems):
        expect.reference(f"dual-curve/{name}/{field}", value, problems)

    if command == "sc-bound":
        argv = ["sc-bound", "--r", rates[0], "--eps", "0.5", "--n", "100"]

        def check(rows, base, problems):
            first = _check_bound_rows(rows, problems)
            _within(problems, "first_order", first, 0.0, o.i_xy)
            ref("first_order", first, problems)

    elif command == "source-bound":
        argv = ["source-bound", "--eps", "0.5", "--n", "200", "--log-w1", rates[0]]

        def check(rows, base, problems):
            first = _float(rows, "first_order", problems)
            if not _float(rows, "rate_lower_bound", problems) < first:
                problems.append("rate_lower_bound is not below first_order")
            if levels[0] == "top":
                _near(problems, "first_order at log W1 >= H(X)", first, o.h_y_given_x,
                      SANDWICH_TOL)
            else:
                _within(problems, "first_order", first, o.h_y_given_x, o.s_avg)
                ref("first_order", first, problems)

    else:
        quantity = command.partition("-")[2]
        argv = ["sweep", "--quantity", quantity, "--param", "r", "--values", ",".join(rates)]

        def check(rows, base, problems):
            for level, (lhs, rhs) in zip(levels, _sweep_rows(base, len(levels), problems)):
                if quantity == "bottleneck":
                    _near(problems, f"sweep lhs = I(X;Y) at {level}", lhs, o.i_xy, 1e-9)
                else:
                    ref(f"total[{level}]", lhs, problems)
                if level == "top":
                    _near(problems, "sweep rhs at r >= H(X)", rhs, o.i_xy, SANDWICH_TOL)
                else:
                    _within(problems, f"sweep rhs at {level}", rhs, 0.0, o.i_xy)
                    ref(f"rhs[{level}]", rhs, problems)

    return cli_item(name, argv[:1] + ["--model", path] + argv[1:], workdir, check)


# ---------------------------------------------------------------------------
# product-states


def _random_test(base, n: int, projector: bool, u_n) -> HermitianOperator:
    raw = random_psd(2**n, int(base.integers(2**31 - 1))).entries
    w, v = np.linalg.eigh(raw)
    if projector:
        cols = v[:, w > np.median(w)]
        t_arr = cols @ cols.conj().T
    else:
        t_arr = raw / (w[-1] + 1e-9)
    return HermitianOperator(rotate(t_arr, u_n), (2,) * n)


def product_states(seed: int, pass_index: int, workdir: str, expect: Expect):
    """n-letter product states of a binary-qubit source.  The rotation u of
    this pass acts on the source, on every test as u^(x n) and on every
    reference state; the measures and parameters come from the fixed family."""
    u = haar_unitary(pass_rng(seed, pass_index, 2), 2)
    base = np.random.default_rng([FAMILY_SEED, 0])
    src = family_source(2, 2, u, uniform_q=True, floor=0.02)
    q = np.asarray(src.q_x)
    items = []

    def gap(n):
        return lambda: bottleneck.single_letter_gap(q, src.states, src.rho_y, 1.5, n, 0.9, 3)

    def gap_check(name):
        def check(report):
            problems = []
            if not report.constants["margin"] >= -1e-4:
                problems.append(f"single-letter margin {report.constants['margin']!r} < -1e-4")
            _within(problems, "typical mass", report.constants["typical_mass"], 0.1, 1.0)
            expect.reference(f"product-states/{name}/lhs", report.constants["lhs"], problems)
            expect.reference(f"product-states/{name}/first_order", report.first_order, problems)
            return problems
        return check

    for n in (5, 6, 7):
        name = f"single-letter-gap-n{n}"
        items.append(Item(name, gap(n), gap_check(name)))

    def margin_check(name, tol, relative):
        def check(m):
            problems = []
            value = m.relative_margin if relative else m.margin
            if math.isnan(value) or value < -tol:
                problems.append(f"margin {value!r} below -{tol}")
            expect.reference(f"product-states/{name}/lhs", m.lhs, problems)
            return problems
        return check

    for n in (3, 4, 5):
        u_n = u
        for _ in range(n - 1):
            u_n = np.kron(u_n, u)
        for j in range(6):
            mu = base.dirichlet(np.ones(2**n)) * float(base.uniform(0.3, 1.0))
            t_op = _random_test(base, n, j % 2 == 0, u_n)
            c = float(base.choice((1.5, 2.0)))
            t = float(base.choice((0.1, 0.5, 1.0)))
            name = f"key-inequality-n{n}-{j}"
            items.append(Item(
                name,
                lambda mu=mu, t_op=t_op, c=c, t=t: bounds.verify_key_inequality(mu, src, t_op, c, t),
                margin_check(name, 1e-6, relative=True)))
            mu = base.dirichlet(np.ones(2**n)) * float(base.uniform(0.4, 1.0))
            t_op = _random_test(base, n, True, u_n)
            sigma = random_density(2, int(base.integers(2**31 - 1)), min_eig_floor=0.1)
            sigma = DensityMatrix(rotate(sigma.entries, u))
            c = float(base.uniform(0.4, 2.0))
            delta_prob = float(base.uniform(0.05, 0.5))
            name = f"image-size-n{n}-{j}"
            items.append(Item(
                name,
                lambda mu=mu, t_op=t_op, sigma=sigma, c=c, dp=delta_prob:
                    bounds.image_size_bound_i(mu, src, sigma, t_op, c, dp),
                margin_check(name, 1e-6, relative=False)))

    def beta_example(rows, base, problems):
        beta = _float(rows, "beta", problems)
        _within(problems, "beta", beta, 0.0, 1.0)
        _near(problems, "exponent_estimate", _float(rows, "exponent_estimate", problems),
              -math.log(beta) / 4, 1e-12)
        expect.reference("product-states/cli-beta-n4-example/beta", beta, problems)

    path = _save(workdir, "example", *example_source(u))
    items.append(cli_item(
        "cli-beta-n4-example",
        ["beta", "--model", path, "--n", "4", "--eps", "0.3"], workdir, beta_example))
    return items


# ---------------------------------------------------------------------------
# oracle-sweep

#: suites of many tiny independent instances, run through config.parallel_map.
#: Two suites of this kind are left out because they fail on correct
#: runs of the current program, and a workload must not fail:
#: "rhc" on 7 of 24 seeds at its default budget (seed 2: min margin -0.0039,
#: a p=0.1, q=0.9 instance) and "renyi-limit" on 3 of 80 seeds at half budget
#: (seed 228466717: margin -2.8e-6 at alpha=0.999).  Add them back once fixed.
ORACLE_SUITES = ("alt", "reverse-holder", "reverse-alt", "entropy-dp",
                 "entropy-var", "np-oracle", "expurgation")
#: suite seeds per pass, each suite at half its default instance budget
SUITE_SEEDS = 6


def oracle_sweep(seed: int, pass_index: int, workdir: str, expect: Expect):
    """verify suites over several suite seeds plus brute-force encoder searches."""
    rng = pass_rng(seed, pass_index, 3)
    items = []

    def suite_check(suite):
        def check(rows, base, problems):
            if rows.get("overall_pass") != "true" or rows.get(f"suite[{suite}].pass") != "true":
                problems.append(f"suite {suite} did not pass")
        return check

    # item names carry the position of the suite seed, not its value, so that
    # every pass has the same item names
    for k, suite_seed in enumerate(rng.integers(0, 2**31 - 1, size=SUITE_SEEDS)):
        for suite in ORACLE_SUITES:
            budget = verify.DEFAULT_INSTANCES[suite] // 2
            items.append(cli_item(
                f"cli-verify-{suite}-{k}",
                ["verify", "--suite", suite, "--seed", str(int(suite_seed)),
                 "--instances", str(budget)],
                workdir, suite_check(suite)))

    def beta_check(ref_name):
        def check(rows, base, problems):
            beta = _float(rows, "beta_min", problems)
            _within(problems, "beta_min", beta, 0.0, 1.0 - 0.3)
            _near(problems, "exponent_estimate", _float(rows, "exponent_estimate", problems),
                  -math.log(beta) / 3, 1e-12)
            if rows.get("num_encoders") != "256" or rows.get("w_size") != "2":
                problems.append("expected 256 encoders over 2 messages")
            expect.reference(ref_name, beta, problems)
        return check

    beta_args = ["--n", "3", "--eps", "0.3", "--r1", "0.3"]
    models = {
        "example": _save(workdir, "example", *example_source(haar_unitary(rng, 2))),
        "family-2x2": _save(workdir, "family-2x2", family_source(2, 2, haar_unitary(rng, 2))),
    }
    for tag, path in models.items():
        name = f"cli-beta-r1-{tag}"
        items.append(cli_item(name, ["beta", "--model", path] + beta_args, workdir,
                              beta_check(f"oracle-sweep/{name}/beta_min")))
    return items


WORKLOADS = {
    "dual-curve": dual_curve,
    "product-states": product_states,
    "oracle-sweep": oracle_sweep,
}
