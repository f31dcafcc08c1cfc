"""The benchmark's three workloads, their operations and their size ladders.

A workload's `setup(seed)` returns its list of operations.  The seed draws
what leaves an operation's cost and query count alone: order-finding bases
among the units of largest order, relabellings, dlog exponents, Simon
secrets, dump bases, and the order of the hsp-sweep and cli-mixed lists.
Everything that moves cost is fixed: the sizes, the slice of groups, the
robust and factor CLI configurations, and the solvers' own seeds, one per
slot of a list.  The solvers' randomness alone changes an operation's cost
up to fortyfold (which bases `factor` tries, whether a robust attempt
restarts), so drawing it from the seed would make the run-to-run spread a
property of the draw.

Every operation builds its own instance, so no law cache survives from one
operation to the next.  `run()` returns the answer and the oracle queries
the solve billed; `reference()` computes the expected answer with the
brute-force references and is called before the timed loop.

Solver functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from hsplab import algorithms, cli, groups, oracles, qft
from hsplab.algorithms import SolverParams


class CliExit(Exception):
    """A CLI invocation that exited with a failure code (1 or 2)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"exit {code}: {message}")
        self.code = code
        self.message = message


class WrongAnswer(Exception):
    """An answer that disagrees with its reference, or with an earlier run of
    the same operation."""


# --- order-dense ------------------------------------------------------------

ORDER_MODULI = (15, 21, 33, 35, 39, 45, 51, 55, 63, 91)
PERIODS = tuple(range(8, 81, 2))
ORDER_LADDER = (15, 35, 55, 91, 119, 221, 437, 899)


@dataclass(frozen=True)
class OrderOp:
    modulus: int
    base: int
    seed: int

    @property
    def label(self) -> str:
        return f"find_order N={self.modulus} a={self.base} seed={self.seed}"

    def run(self):
        inst = oracles.make_order_instance(self.modulus, self.base)
        res = algorithms.find_order(inst, SolverParams(seed=self.seed, period_bound=self.modulus))
        return res.value, inst.query_count

    def reference(self):
        return oracles.classical_order(self.base, self.modulus)

    def matches(self, answer, expected) -> bool:
        return answer == expected


@dataclass(frozen=True)
class PeriodOp:
    period: int
    relabel_seed: int
    seed: int

    @property
    def label(self) -> str:
        return f"find_period r={self.period} relabel={self.relabel_seed} seed={self.seed}"

    def run(self):
        inst = oracles.make_period_instance(self.period, relabel_seed=self.relabel_seed)
        res = algorithms.find_period(inst, SolverParams(seed=self.seed, period_bound=self.period))
        return res.value, inst.query_count

    def reference(self):
        inst = oracles.make_period_instance(self.period, relabel_seed=self.relabel_seed)
        return oracles.classical_least_period(inst, self.period)

    def matches(self, answer, expected) -> bool:
        return answer == expected


def _draw(rng) -> int:
    return int(rng.integers(1 << 30))


def order_dense(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops: list = []
    for n in ORDER_MODULI:
        # the law depends on a only through its order, so drawing among the
        # units of the largest order keeps cost and query count seed-free
        orders = {a: oracles.classical_order(a, n) for a in range(2, n) if gcd(a, n) == 1}
        widest = [a for a, r in orders.items() if r == max(orders.values())]
        ops.append(OrderOp(n, widest[int(rng.integers(len(widest)))], n))
    for r in PERIODS:
        ops.append(PeriodOp(r, _draw(rng), r))  # relabelling leaves the law alone
    # no shuffle: the order of the large allocations moves the allocator's
    # thresholds, and with them peak RSS, from one seed to the next
    return ops


def order_ladder() -> list[tuple[int, str]]:
    out = []
    for n in ORDER_LADDER:
        op = OrderOp(n, 2, 0)
        out.append((n, _ladder_outcome(op.run, lambda ans, n=n: ans == oracles.classical_order(2, n))))
    return out


# --- hsp-sweep --------------------------------------------------------------

HSP_MAX_RANK = 4
HSP_STRATUM = 4
HSP_RELABELS = 3
HSP_SLICE_SEED = 0
HSP_LADDER = tuple(range(2, 9))  # G = Z_{2^a} x Z_{2^a}, |G| = 4^a, K = <(1, 1)>


def _primes_of(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _ascending_partitions(total: int, minimum: int = 1):
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in _ascending_partitions(total - first, first):
            yield (first,) + rest


def acceptance_groups() -> list[tuple[int, ...]]:
    """The acceptance groups: every Abelian p-group of order <= 64, then every
    Abelian group of multi-prime order <= 72, as moduli in prime-power form."""
    specs: list[tuple[int, ...]] = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        e = 1
        while p**e <= 64:
            specs.extend(tuple(p**x for x in part) for part in _ascending_partitions(e))
            e += 1
    for order in range(6, 73):
        primes = _primes_of(order)
        if len(primes) < 2:
            continue
        per_prime = []
        for p in primes:
            e = 0
            while order % p ** (e + 1) == 0:
                e += 1
            per_prime.append([tuple(p**x for x in part) for part in _ascending_partitions(e)])
        for combo in itertools.product(*per_prime):
            specs.append(tuple(m for chunk in combo for m in chunk))
    return specs


def hsp_slice() -> list[tuple[int, ...]]:
    """One group from each stratum of four acceptance groups of rank <= 4,
    drawn once with a fixed seed.

    Strata are consecutive in (multi-prime, order, rank) order, so the slice
    mixes p-groups and multi-prime groups of every size.  Rank 5 and 6
    groups are left out: their subgroup lattices (134 to 2825 subgroups)
    would make one group most of a pass.  The slice does not follow the
    workload seed: slices drawn from it moved `solves_per_s` by about 5% and
    set-up time by half between seeds.
    """
    rng = np.random.default_rng(HSP_SLICE_SEED)
    pool = sorted(
        (m for m in acceptance_groups() if len(m) <= HSP_MAX_RANK),
        key=lambda m: (len(_primes_of(int(np.prod(m)))) > 1, int(np.prod(m)), len(m), m),
    )
    strata = [pool[i:i + HSP_STRATUM] for i in range(0, len(pool), HSP_STRATUM)]
    return [s[int(rng.integers(len(s)))] for s in strata]


@dataclass(frozen=True)
class HspOp:
    moduli: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    relabel_seed: int
    seed: int

    @property
    def label(self) -> str:
        return f"solve_hsp_general G={self.moduli} K={self.generators} relabel={self.relabel_seed} seed={self.seed}"

    def _instance(self):
        spec = groups.GroupSpec.of(self.moduli)
        return oracles.make_hidden_subgroup_instance(spec, list(self.generators), relabel_seed=self.relabel_seed)

    def run(self):
        inst = self._instance()
        res = algorithms.solve_hsp_general(inst, SolverParams(seed=self.seed))
        return res.value, inst.query_count

    def reference(self):
        return oracles.classical_invariance_subgroup(self._instance())

    def matches(self, answer, expected) -> bool:
        return groups.subgroups_equal(answer, expected)


def hsp_sweep(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops: list = []
    for moduli in hsp_slice():
        for k_index, k in enumerate(groups.all_subgroups(groups.GroupSpec.of(moduli))):
            for j in range(HSP_RELABELS):
                ops.append(HspOp(moduli, k.generators, _draw(rng), 31 * k_index + j))
    rng.shuffle(ops)
    return ops


def hsp_ladder() -> list[tuple[int, str]]:
    """Rungs are checked against the planted subgroup: the exhaustive
    invariance scan is quadratic in |G| and too slow at these sizes."""
    out = []
    for a in HSP_LADDER:
        n = 1 << a
        spec = groups.GroupSpec.of((n, n))

        def solve(spec=spec):
            inst = oracles.make_hidden_subgroup_instance(spec, [(1, 1)])
            res = algorithms.solve_hsp_general(inst, SolverParams(seed=0))
            return (res.value, inst.truth.subgroup), inst.query_count

        out.append((n * n, _ladder_outcome(solve, lambda ans: groups.subgroups_equal(*ans))))
    return out


# --- cli-mixed --------------------------------------------------------------

DLOG_PRIMES = (17, 29, 41, 53)
FACTOR_NS = (15, 21, 33, 35)
ROBUST_PERIODS = tuple((r, m) for r in (6, 12, 18, 24, 30) for m in (2, 3))
ROBUST_HSP = (((4, 8), "2,4", 2), ((3, 9), "0,3", 3), ((2, 2, 4), "1,0,2", 2), ((5, 25), "0,5", 3))
SIMON_BITS = (3, 4, 5)
DUMP_MODULI = (21, 33)
DUMP_BITS = 6
CLI_TRIALS = "2"  # at most two worker threads, one per core of a 2-core machine
ROBUST_PERIOD_LADDER = (6, 12, 24, 48, 96, 192)
# Composite-moduli robust-hsp: robust_hsp needs prime-power form, so the CLI
# exits 2.  Run once per run, outside the timed loop, and reported.
KNOWN_DEFECT = ("--moduli", "2,6", "--generators", "0,3", "--multiplicity", "2")


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    check: tuple = ()  # ("dlog", a, b, p) or ("dump", modulus, base, bits)

    @property
    def label(self) -> str:
        return "hsplab " + " ".join(self.argv)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(self.argv))
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code if isinstance(exc.code, int) else 2
        if code in (1, 2):
            raise CliExit(code, err.getvalue().strip().split("\n")[0])
        report = json.loads(out.getvalue())
        report.pop("timestamp", None)
        counts = [t["query_count"] for t in report.get("results", ()) if t.get("query_count") is not None]
        return (code, report), (sum(counts) if counts else None)

    def reference(self):
        if self.check and self.check[0] == "dump":
            # the register law of order finding is the mixture, with weights
            # 1/r, of the closed-form estimator laws at the phases k/r
            _, modulus, base, bits = self.check
            r = oracles.classical_order(base, modulus)
            return sum(qft.estimator_distribution(k / r, 1 << bits).probs for k in range(r)) / r
        return None

    def matches(self, answer, expected) -> bool:
        code, report = answer
        if code != 0:
            return False
        if self.check and self.check[0] == "dump":
            return bool(np.allclose(report["probs"], expected, rtol=0.0, atol=1e-9))
        if report.get("match") is not True:
            return False
        if self.check and self.check[0] == "dlog":
            _, a, b, p = self.check
            return all(pow(a, t["recovered"], p) == b for t in report["results"])
        return True


def _solver_argv(command: str, seed: int, *flags, trials: str = CLI_TRIALS) -> tuple[str, ...]:
    return (command, *map(str, flags), "--seed", str(seed), "--trials", trials)


def cli_mixed(seed: int) -> list:
    """The fixed list of CLI invocations.  The seed draws only what leaves
    an invocation's cost alone (dlog exponents, Simon secrets, dump bases)
    and the order of the list; the robust and factor configurations are
    pinned, since their merges and seeds change their cost tenfold."""
    rng = np.random.default_rng(seed)
    slot = itertools.count()  # the solver seed of each invocation
    ops: list = []
    for p in DLOG_PRIMES:
        g = next(a for a in range(2, p) if oracles.classical_order(a, p) == p - 1)
        b = pow(g, int(rng.integers(p - 1)), p)
        ops.append(CliOp(_solver_argv("dlog", next(slot), "--base", g, "--target", b, "--modulus", p),
                         ("dlog", g, b, p)))
    for n in FACTOR_NS:
        ops.append(CliOp(_solver_argv("factor", next(slot), "--n", n)))
    for r, m in ROBUST_PERIODS:
        i = next(slot)
        ops.append(CliOp(_solver_argv(
            "robust-period", i, "--period", r, "--multiplicity", m,
            "--merge-seed", i, "--relabel-seed", i)))
    for moduli, generators, m in ROBUST_HSP:
        i = next(slot)
        ops.append(CliOp(_solver_argv(
            "robust-hsp", i, "--moduli", ",".join(map(str, moduli)), "--generators", generators,
            "--multiplicity", m, "--merge-seed", i, "--relabel-seed", i)))
    for bits in SIMON_BITS:
        secret = "1" + "".join(map(str, rng.integers(0, 2, bits - 1)))
        ops.append(CliOp(_solver_argv("simon", next(slot), "--secret", secret)))
    for kind in ("register-pe", "semiclassical-pe"):
        for n in DUMP_MODULI:
            units = [a for a in range(2, n) if gcd(a, n) == 1]
            a = units[int(rng.integers(len(units)))]
            instance = json.dumps({"kind": "order", "modulus": n, "base": a})
            ops.append(CliOp(("dump", "--kind", kind, "--bits", str(DUMP_BITS), "--instance", instance),
                             ("dump", n, a, DUMP_BITS)))
    rng.shuffle(ops)
    return ops


def robust_period_ladder() -> list[tuple[int, str]]:
    out = []
    for r in ROBUST_PERIOD_LADDER:
        op = CliOp(_solver_argv("robust-period", 1, "--period", r, "--multiplicity", 2,
                                "--merge-seed", 1, "--relabel-seed", 1, trials="1"))
        out.append((r, _ladder_outcome(op.run, lambda ans, op=op: op.matches(ans, None))))
    return out


def known_defect_probe(seed: int) -> str:
    """Outcome of the composite-moduli robust-hsp config; a wrong answer
    raises like any other."""
    op = CliOp(_solver_argv("robust-hsp", seed, *KNOWN_DEFECT, "--merge-seed", seed))
    try:
        answer, _ = op.run()
    except CliExit as exc:
        return f"{op.label} -> {exc}"
    if not op.matches(answer, None):
        raise WrongAnswer(f"{op.label}: report does not match the brute-force truth")
    return f"{op.label} -> exit 0, answer matches"


# --- shared -----------------------------------------------------------------


def _ladder_outcome(solve: Callable, correct: Callable) -> str:
    try:
        answer, _ = solve()
    except (algorithms.BudgetExhausted, algorithms.PromiseViolation, ValueError, CliExit) as exc:
        return f"{type(exc).__name__}: {str(exc)[:80]}"
    if not correct(answer):
        raise WrongAnswer(f"size ladder: wrong answer {answer!r}")
    return "solved"


def max_solved(outcomes: list[tuple[int, str]]) -> int:
    solved = [size for size, outcome in outcomes if outcome == "solved"]
    return max(solved) if solved else 0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]
    ladder: Callable[[], list[tuple[int, str]]]
    ladder_name: str
    tail_percentile: float  # the highest with >= 10 samples beyond at min_samples
    min_samples: int
    probe: Callable[[int], str] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("order-dense", order_dense, order_ladder, "N for find_order", 90.0, 100),
        Workload("hsp-sweep", hsp_sweep, hsp_ladder, "|G| for solve_hsp_general", 99.0, 1000),
        Workload("cli-mixed", cli_mixed, robust_period_ladder, "r for robust-period, m=2", 95.0, 200,
                 known_defect_probe),
    )
}
