"""End-to-end solvers: order/period finding, factoring, hidden-subgroup
recovery, discrete logarithms, and the many-to-1 robust variants.

Every solver follows the same shape: draw estimation samples, post-process
exactly (continued fractions or character-kernel solving), verify the
candidate against the black box, and only return verified answers.  Failure
to verify within the trial budget raises BudgetExhausted — a probabilistic
shortfall — while evidence that the function breaks its promise raises
PromiseViolation.  Order finding, factoring and robust period finding share
one recovery loop, `_recover_period`, which lcm-combines continued-fraction
denominators and strips the first candidate that passes a period test.
Hidden-subgroup solving and its robust variant share `_recover_subgroup`,
which returns the first character kernel of the draws that passes a check.

Every solve draws all of its randomness, circuit samples, check points and
factoring's bases alike, from one stream, `np.random.default_rng(params.seed)`,
so a seed replays the whole solve, and solves at distinct seeds draw from
independent streams.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from math import gcd, lcm
from numbers import Integral, Real

import numpy as np

from .estimation import PhaseSample, _coset_law_at, hsp_sample_batch, sample_control
from .groups import (
    Element,
    GroupSpec,
    SubgroupGenerators,
    _factorize,
    _strip_period,
    character_kernel,
    generator_count,
)
from .oracles import OracleInstance, QueryCounter, make_order_instance
from .postprocess import best_denominator_bounded
from .qft import choose_register_size


class BudgetExhausted(RuntimeError):
    """The trial budget ran out before a candidate verified."""


class PromiseViolation(RuntimeError):
    """The function contradicted the hidden-subgroup promise."""


_OPTIONAL_FIELDS = ("control_bits", "period_bound")


@dataclass(frozen=True)
class SolverParams:
    """Shared solver knobs.

    Register sizing precedence: `control_bits` (size 2^bits), then a size
    derived from the period bound and `epsilon`.  Order and period finding
    without a `period_bound` take the codomain size as the bound.
    `trials` counts single draws in order, period and discrete-log finding,
    batches of d(G) + 2 draws in `solve_hsp_general` and `robust_hsp`, and
    attempts in factoring; `robust_period` and `robust_hsp` on an m-to-1
    merge allow m² times as many draws or batches.
    """

    control_bits: int | None = None
    trials: int = 20
    epsilon: float = 0.25
    seed: int = 0
    period_bound: int | None = None

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            # None where optional, plain ints and a plain float epsilon pass
            # without the ABC checks; bools and numpy scalars take them
            if type(v) is int or (type(v) is float and name == "epsilon") or (v is None and name in _OPTIONAL_FIELDS):
                continue
            if isinstance(v, bool) or not isinstance(v, Real if name == "epsilon" else Integral):
                kind = "a number" if name == "epsilon" else "an integer"
                raise ValueError(f"{name} must be {kind}, got {v!r}")
        if self.trials < 1:
            raise ValueError("trial budget must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        for name in _OPTIONAL_FIELDS:
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SolverParams":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown solver params: {', '.join(unknown)}")
        return cls(**data)


@dataclass
class OrderResult:
    value: int
    trials_used: int
    samples: list[PhaseSample]
    verified: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "trials_used": self.trials_used,
            "verified": self.verified,
            "samples": [s.to_json() for s in self.samples],
        }


@dataclass
class HspResult:
    value: SubgroupGenerators
    trials_used: int
    samples: list[Element]
    verified: bool

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "trials_used": self.trials_used,
            "verified": self.verified,
            "samples": [list(t) for t in self.samples],
        }


@dataclass
class DlogResult:
    value: int
    trials_used: int
    samples: list[PhaseSample]
    verified: bool
    collapsed_reuses: int = 0

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "trials_used": self.trials_used,
            "verified": self.verified,
            "samples": [s.to_json() for s in self.samples],
            "collapsed_reuses": self.collapsed_reuses,
        }


def _register_size_for(params: SolverParams, bound: int) -> int:
    if params.control_bits is not None:
        return 1 << params.control_bits
    return choose_register_size(2 * bound * bound, params.epsilon)


def _memoised(instance: OracleInstance) -> Callable[[int], int]:
    """f on the integers, billing each point once."""
    values: dict[int, int] = {}
    return lambda t: values[t] if t in values else values.setdefault(t, instance.evaluate(t))


def _returns_to_start(instance: OracleInstance) -> Callable[[int], bool]:
    """The period test f(c) = f(0), exact for honest instances, where
    f(c) = f(0) iff the period divides c."""
    f = _memoised(instance)
    f0 = f(0)
    return lambda c: f(c) == f0


def _recover_period(
    instance: OracleInstance, params: SolverParams, bound: int, rng: np.random.Generator,
    is_period: Callable[[int], bool], samples: list[PhaseSample],
) -> OrderResult:
    """Lcm-combine the continued-fraction denominators of up to
    `params.trials` draws, appended to `samples`, until the accumulator
    passes `is_period`; return it stripped to the least divisor that passes."""
    if bound < 1:
        raise ValueError("period bound must be >= 1")
    n = _register_size_for(params, bound)
    acc = 1
    for trial in range(params.trials):
        sample = sample_control(instance, n, 1, seed=rng)[0]
        samples.append(sample)
        q = best_denominator_bounded(sample.observed, n, bound).denominator
        merged = lcm(acc, q)
        # honest readings are divisors of the period, so their lcm stays within
        # the bound; an overshoot means one of the two is a stray — keep the
        # fresh reading rather than a possibly poisoned accumulator
        acc = merged if merged <= bound else q
        if is_period(acc):
            return OrderResult(_strip_period(acc, is_period), trial + 1, samples, True)
    raise BudgetExhausted(
        f"no verified period within {params.trials} trials (register {n}, bound {bound})"
    )


def find_order(instance: OracleInstance, params: SolverParams) -> OrderResult:
    """Multiplicative order, or any period, via phase estimation.

    Each trial costs one circuit sample plus at most a few verification
    evaluations; denominators from continued fractions are lcm-combined
    until f(r) = f(0) verifies, then stripped to the least verified period.
    The query circuit and the shift ladder prepare one state, so the sample
    is the same whether or not the instance has shift maps.  Every trial
    draws from one random stream seeded by `params.seed`.  Without a
    `period_bound` the bound is the codomain size, since a period's labels
    are distinct; a draw costs the same at any register size.
    """
    bound = params.period_bound or instance.codomain_size
    rng = np.random.default_rng(params.seed)
    return _recover_period(instance, params, bound, rng, _returns_to_start(instance), [])


def find_period(instance: OracleInstance, params: SolverParams) -> OrderResult:
    """Period finding: `find_order`, on a function with or without shift maps."""
    return find_order(instance, params)


def factor_via_order(n: int, params: SolverParams, counter: QueryCounter | None = None) -> OrderResult:
    """Split an odd composite (not a prime power) via even orders.

    Each attempt draws a base, then finds its order with the bound
    `params.period_bound`, n by default; the bases and every order-finding
    sample come from one stream seeded by `params.seed`.  The result's
    value is the factor, `trials_used` counts attempts and `samples` holds
    every order-finding draw; each attempt's order instance bills its own
    counter, and the queries are added to `counter` as well."""
    n = int(n)
    if n < 9 or n % 2 == 0:
        raise ValueError("need an odd composite")
    if len(_factorize(n)) == 1:
        raise ValueError("prime or prime power; nothing to split quantumly")
    rng = np.random.default_rng(params.seed)
    bound = params.period_bound or n
    samples: list[PhaseSample] = []
    for attempt in range(params.trials):
        a = int(rng.integers(2, n))
        g = gcd(a, n)
        if g > 1:
            return OrderResult(g, attempt + 1, samples, True)
        instance = make_order_instance(n, a)
        try:
            r = _recover_period(instance, params, bound, rng, _returns_to_start(instance), samples).value
        except BudgetExhausted:
            continue
        finally:
            if counter is not None:
                counter.add(instance.query_count)
        if r % 2:
            continue
        half = pow(a, r // 2, n)
        if half == n - 1:
            continue
        for g in (gcd(half - 1, n), gcd(half + 1, n)):
            if 1 < g < n:
                return OrderResult(g, attempt + 1, samples, True)
    raise BudgetExhausted(f"no factor of {n} within {params.trials} attempts")


def _batch_size(spec: GroupSpec) -> int:
    """Coset-sampler draws per hidden-subgroup batch: d(G) + 2, d(G) the
    least number of generators of G.  The draws of an honest instance are
    uniform on K^perp, which is isomorphic to G/K, so its p-ranks r_p are
    at most G's; t uniform draws generate a finite Abelian group of p-ranks
    r_p with probability prod_p prod_{i < r_p} (1 - p^(i - t)) (Pomerance,
    2001), which at t = d(G) + 2 is above prod_{j >= 3} 1/zeta(j) > 0.71."""
    return generator_count(spec.moduli) + 2


def _recover_subgroup(
    instance: OracleInstance, trials: int, rng: np.random.Generator,
    holds: Callable[[tuple[Element, ...]], bool],
) -> HspResult:
    """Draw up to `trials` batches of d(G) + 2 coset-sampler outcomes from
    `rng` (`_batch_size`), and return the character kernel of all draws so
    far once its generators pass `holds`.  The draws lie in the annihilator
    of f's invariance subgroup S, so the kernel always holds S, and a kernel
    whose generators all leave f unchanged is S exactly; a kernel that fails
    means the draws do not yet span S^perp, so another batch is drawn."""
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup solving needs a finite group domain")
    count = _batch_size(spec)
    collected: list[Element] = []
    for attempt in range(trials):
        collected.extend(hsp_sample_batch(instance, count, seed=rng))
        kernel = character_kernel(collected, spec)
        if holds(kernel.generators):
            return HspResult(kernel, attempt + 1, collected, True)
    raise PromiseViolation(
        f"no kernel of the draws passed the check within {trials} batches: "
        "samples never stabilized on a subgroup the function honors"
    )


def solve_hsp_general(instance: OracleInstance, params: SolverParams) -> HspResult:
    """Hidden subgroup over any finite Abelian group.

    `_recover_subgroup` reads the character kernel of batches of d(G) + 2
    coset-sampler outcomes, and every generator h of a kernel is checked at
    one random point x per batch: f(x) is evaluated once, then f(x + h) for
    each h until one differs.  The batches and the points come from one
    stream seeded by `params.seed`.  For an honest promise, f constant on
    K-cosets and distinct across them, f(x + h) = f(x) at any x exactly
    when h lies in K, so a kernel that passes is K exactly.
    """
    spec, rng = instance.domain, np.random.default_rng(params.seed)

    def at_one_point(generators) -> bool:
        if not generators:
            return True
        x = tuple(int(c) for c in rng.integers(0, spec.moduli))
        fx = instance.evaluate(x)
        return all(instance.evaluate(spec.add(x, h)) == fx for h in generators)

    return _recover_subgroup(instance, params.trials, rng, at_one_point)


def _merge_congruence(a1: int, n1: int, a2: int, n2: int) -> tuple[int, int] | None:
    """Combine x = a1 (mod n1) with x = a2 (mod n2); None if inconsistent."""
    g = gcd(n1, n2)
    if (a2 - a1) % g:
        return None
    l = n1 // g * n2
    step = ((a2 - a1) // g * pow(n1 // g, -1, n2 // g)) % (n2 // g)
    return (a1 + n1 * step) % l, l


def solve_dlog(instance: OracleInstance, params: SolverParams) -> DlogResult:
    """Discrete log on Z_r x Z_r, r the order of the base, by two chained
    estimations per trial, drawn as one coset-sampler outcome.

    Stage one estimates k/r on an exactly r-level control driven by the
    second-coordinate shift (multiplication by the base); because the
    register size matches r, the outcome is k exactly and the target
    collapses onto a single shift eigenvector.  Stage two keeps that
    collapsed target and drives the first-coordinate shift (multiplication
    by the power target), reading off k·m mod r on one fresh control — no
    second target register is ever prepared.  The two shifts commute, so the
    chain draws from the coset law: stage one from its marginal over t_1,
    stage two from its conditional over t_0 given t_1 = k.  That law lives
    on H^perp = {(k·m, k)} for H = <(1, -m)>, and on part of it when merged
    labels grow the stabiliser, so t_0 is fixed by t_1: one draw t is the
    chain, stage one's probability is the law at t and stage two's is 1.
    The draw bills stage one's query, and stage two, run only when k != 0,
    bills one more.  Each pair pins m modulo r/gcd(k, r); congruences
    accumulate until m is known mod r.
    """
    spec = instance.domain
    if spec is None or spec.rank != 2 or spec.moduli[0] != spec.moduli[1]:
        raise ValueError("expected a discrete-log instance on Z_r x Z_r")
    r = spec.moduli[0]
    f00 = instance.evaluate(spec.identity())
    samples: list[PhaseSample] = []
    if r == 1:
        return DlogResult(0, 0, samples, True, 0)

    known_rem, known_mod = 0, 1
    reuses = 0
    rng = np.random.default_rng(params.seed)
    for trial in range(params.trials):
        ((x2, k),) = hsp_sample_batch(instance, 1, seed=rng)
        samples.append(PhaseSample(k, r, _coset_law_at(instance, (x2, k))))
        if k == 0:
            continue  # eigenvalue 1 carries no information about m; redraw
        instance.counter.add(1)  # stage two runs on the collapsed target
        reuses += 1
        samples.append(PhaseSample(x2, r, 1.0))  # x2 = k·m mod r, exactly
        d = gcd(k, r)
        if x2 % d:
            continue  # cannot happen for an honest instance
        mod = r // d
        rem = (x2 // d) * pow(k // d, -1, mod) % mod if mod > 1 else 0
        merged = _merge_congruence(known_rem, known_mod, rem, mod)
        if merged is None:
            continue
        known_rem, known_mod = merged
        if known_mod == r:
            m = known_rem
            verified = instance.evaluate((1, (-m) % r)) == f00  # b·a^(-m) = identity
            return DlogResult(m, trial + 1, samples, verified, reuses)
    raise BudgetExhausted(
        f"exponent pinned only mod {known_mod} of {r} within {params.trials} trials"
    )


def robust_period(instance: OracleInstance, params: SolverParams) -> OrderResult:
    """Period finding tolerant of an m-to-1 collapse of the labels, m the
    instance's `multiplicity_bound`: the merge leaves f r-periodic, so its
    law still sits on the multiples of 1/r, and `find_order`'s loop
    recovers r on a register sized for failure rate epsilon/m², allowing
    `params.trials` · m² draws, since collisions dilute the informative
    readings by at most m².  The period test is f(x + c) = f(x) over the
    whole window [0, period_bound), which covers every residue of the true
    period, so the answer is checked and stripped exactly.
    """
    bound = params.period_bound
    if bound is None:
        raise ValueError("period_bound required")
    m = instance.multiplicity_bound
    if m <= 1:
        return find_period(instance, params)
    f = _memoised(instance)

    def is_period(c: int) -> bool:
        return all(f(x + c) == f(x) for x in range(bound))

    diluted = replace(params, epsilon=params.epsilon / (m * m), trials=params.trials * m * m)
    return _recover_period(instance, diluted, bound, np.random.default_rng(params.seed), is_period, [])


def robust_hsp(instance: OracleInstance, params: SolverParams) -> HspResult:
    """Hidden-subgroup recovery tolerant of an m-to-1 label collapse, m the
    instance's `multiplicity_bound`.

    A merge only shrinks the support of the coset law, which stays inside
    the annihilator of f's invariance subgroup, so `_recover_subgroup`
    still recovers that subgroup once its check reads the whole group:
    rolling f's table by each generator of the kernel leaves it unchanged.
    The table is read once, at the first check, and billed one query per
    domain point.  `params.trials` · m² batches are allowed, since
    collisions dilute the informative draws by at most m².
    """
    m = instance.multiplicity_bound
    if m <= 1:
        return solve_hsp_general(instance, params)
    table = None

    def everywhere(generators) -> bool:
        nonlocal table
        if table is None:
            table = instance.label_table(instance.domain.moduli)
            instance.counter.add(table.size)
        return all(np.array_equal(np.roll(table, h, axis=tuple(range(table.ndim))), table) for h in generators)

    return _recover_subgroup(instance, params.trials * m * m, np.random.default_rng(params.seed), everywhere)
