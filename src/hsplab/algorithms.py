"""End-to-end solvers: order/period finding, factoring, hidden-subgroup
recovery, discrete logarithms, and the many-to-1 robust variants.

Every solver follows the same shape: draw estimation samples, post-process
exactly (continued fractions or character-kernel solving), verify the
candidate against the black box, and only return verified answers.  Failure
to verify within the trial budget raises BudgetExhausted — a probabilistic
shortfall — while evidence that the function breaks its promise raises
PromiseViolation.

Every solve draws all of its randomness, circuit samples, check points and
factoring's bases alike, from one stream, `np.random.default_rng(params.seed)`,
so a seed replays the whole solve, and solves at distinct seeds draw from
independent streams.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import gcd, lcm
from numbers import Integral, Real

import numpy as np

from .estimation import PhaseSample, _coset_law_at, hsp_sample_batch, sample_control
from .groups import (
    Element,
    GroupSpec,
    SubgroupGenerators,
    _annihilated,
    _factorize,
    _strip_period,
    _table_stabiliser,
    character_kernel,
    generator_count,
)
from .oracles import OracleInstance, dilated_view, make_order_instance
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
    batches of d(G) + 2 draws in `solve_hsp_general`, and attempts in
    factoring and `robust_period`.
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
    scan_evaluations: int = 0
    factors_accepted: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "trials_used": self.trials_used,
            "verified": self.verified,
            "samples": [s.to_json() for s in self.samples],
            "scan_evaluations": self.scan_evaluations,
            "factors_accepted": list(self.factors_accepted),
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


def _recover_period(
    instance: OracleInstance, params: SolverParams, bound: int, rng: np.random.Generator
) -> OrderResult:
    if bound < 1:
        raise ValueError("period bound must be >= 1")
    n = _register_size_for(params, bound)
    f0 = instance.evaluate(0)

    evals: dict[int, int] = {}

    def divides_period(c: int) -> bool:
        # exact for honest instances: f(c) = f(0) iff the period divides c
        if c not in evals:
            evals[c] = instance.evaluate(c)
        return evals[c] == f0

    acc = 1
    samples: list[PhaseSample] = []
    for trial in range(params.trials):
        sample = sample_control(instance, n, 1, seed=rng)[0]
        samples.append(sample)
        q = best_denominator_bounded(sample.observed, n, bound).denominator
        merged = lcm(acc, q)
        # honest readings are divisors of the period, so their lcm stays within
        # the bound; an overshoot means one of the two is a stray — keep the
        # fresh reading rather than a possibly poisoned accumulator
        acc = merged if merged <= bound else q
        if divides_period(acc):
            return OrderResult(_strip_period(acc, divides_period), trial + 1, samples, True)
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
    return _recover_period(instance, params, bound, np.random.default_rng(params.seed))


def find_period(instance: OracleInstance, params: SolverParams) -> OrderResult:
    """Period finding: `find_order`, on a function with or without shift maps."""
    return find_order(instance, params)


def factor_via_order(n: int, params: SolverParams) -> int:
    """Split an odd composite (not a prime power) via even orders.

    Each attempt draws a base, then finds its order with the bound
    `params.period_bound`, n by default; the bases and every order-finding
    sample come from one stream seeded by `params.seed`."""
    n = int(n)
    if n < 9 or n % 2 == 0:
        raise ValueError("need an odd composite")
    facts = _factorize(n)
    if len(facts) == 1:
        raise ValueError("prime or prime power; nothing to split quantumly")
    rng = np.random.default_rng(params.seed)
    bound = params.period_bound or n
    for _ in range(params.trials):
        a = int(rng.integers(2, n))
        g = gcd(a, n)
        if g > 1:
            return g
        try:
            r = _recover_period(make_order_instance(n, a), params, bound, rng).value
        except BudgetExhausted:
            continue
        if r % 2:
            continue
        half = pow(a, r // 2, n)
        if half == n - 1:
            continue
        for g in (gcd(half - 1, n), gcd(half + 1, n)):
            if 1 < g < n:
                return g
    raise BudgetExhausted(f"no factor of {n} within {params.trials} attempts")


def _batch_size(spec: GroupSpec) -> int:
    """Coset-sampler draws per hidden-subgroup batch: d(G) + 2, d(G) the
    least number of generators of G.  The draws of an honest instance are
    uniform on K^perp, which is isomorphic to G/K, so its p-ranks r_p are
    at most G's; t uniform draws generate a finite Abelian group of p-ranks
    r_p with probability prod_p prod_{i < r_p} (1 - p^(i - t)) (Pomerance,
    2001), which at t = d(G) + 2 is above prod_{j >= 3} 1/zeta(j) > 0.71."""
    return generator_count(spec.moduli) + 2


def solve_hsp_general(instance: OracleInstance, params: SolverParams) -> HspResult:
    """Hidden subgroup over any finite Abelian group.

    Batches of d(G) + 2 coset-sampler outcomes over the whole group
    (`_batch_size`) feed the character-kernel solver, which reads the kernel
    off the dual of the sampled characters' lattice.  Every generator h of
    the candidate kernel is then checked against the function at one point
    x per batch: f(x) is evaluated once, then f(x + h) for each h until one
    differs.  The batches and the points come from one random stream,
    seeded by `params.seed`.  The kernel always holds K, and for an honest
    promise, f constant on K-cosets and distinct across them, f(x + h) =
    f(x) at any x exactly when h lies in K, so a kernel that passes is K
    exactly.  A generator that fails means the samples do not yet span
    K^perp, so another batch of the same size is drawn; `params.trials`
    counts batches.
    """
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup solving needs a finite group domain")
    count = _batch_size(spec)
    rng = np.random.default_rng(params.seed)
    collected: list[Element] = []
    for attempt in range(params.trials):
        collected.extend(hsp_sample_batch(instance, count, seed=rng))
        kernel = character_kernel(collected, spec)
        failing = None
        if kernel.generators:
            x = tuple(int(c) for c in rng.integers(0, spec.moduli))
            fx = instance.evaluate(x)
            failing = next((h for h in kernel.generators if instance.evaluate(spec.add(x, h)) != fx), None)
        if failing is None:
            return HspResult(kernel, attempt + 1, collected, True)
    raise PromiseViolation(
        f"claimed coset shift {failing} changes f at {x}: "
        "samples never stabilized on a subgroup the function honors"
    )


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
    instance's `multiplicity_bound`.

    Infrastructure of the honest solver plus three safeguards: the register
    is sized for failure rate epsilon/m² (collisions dilute the good
    outcomes by at most m²); continued-fraction denominators are treated as
    dilation factors to recurse on f(acc·t); a run of five uninformative
    zero outcomes triggers the trailing classical scan over at most m²
    multiples.  Candidate periods must pass ten random consistency
    evaluations, drawn from the solve's one stream as the samples are, and
    the final answer is verified and minimized deterministically over a
    full window, so a false factor can never survive into the result.
    """
    bound = params.period_bound
    if bound is None:
        raise ValueError("period_bound required")
    m = instance.multiplicity_bound
    if m <= 1:
        return find_period(instance, params)

    zero_run_threshold, spot_checks = 5, 10
    eps_amp = params.epsilon / (m * m)
    f0 = instance.evaluate(0)
    memo: dict[int, int] = {0: f0}

    def fval(t: int) -> int:
        if t not in memo:
            memo[t] = instance.evaluate(t)
        return memo[t]

    def is_period(c: int) -> bool:
        # deterministic: window [0, bound) covers every residue of the true period
        return all(fval(x + c) == fval(x) for x in range(bound))

    rng = np.random.default_rng(params.seed)

    def spot_confirm(candidate: int) -> bool:
        for i in range(spot_checks):
            if i % 2 == 0:
                t = int(rng.integers(1, 2 * bound))
                if fval(candidate * t) != f0:
                    return False
            else:
                x = int(rng.integers(0, 2 * bound))
                if fval(x + candidate) != fval(x):
                    return False
        return True

    def tail_scan(acc: int, limit: int) -> tuple[int | None, int]:
        evals = 0
        for s in range(1, limit + 1):
            evals += 1
            if fval(acc * s) == f0 and spot_confirm(acc * s):
                return acc * s, evals
        return None, evals

    max_steps = 20 * (zero_run_threshold + 4)
    for attempt in range(params.trials):
        acc, zeros, steps = 1, 0, 0
        scan_evals = 0
        factors: list[int] = []
        samples: list[PhaseSample] = []
        candidate = None
        while steps < max_steps:
            steps += 1
            level_bound = bound // acc
            if level_bound <= m * m:
                candidate, scan_evals = tail_scan(acc, min(m * m, level_bound))
                break
            n = choose_register_size(2 * level_bound * level_bound, eps_amp)
            view = dilated_view(instance, acc)
            sample = sample_control(view, n, 1, seed=rng)[0]
            samples.append(sample)
            q = best_denominator_bounded(sample.observed, n, level_bound).denominator
            if q == 1:
                zeros += 1
                if zeros >= zero_run_threshold:
                    candidate, scan_evals = tail_scan(acc, min(m * m, level_bound))
                    if candidate is not None:
                        break
                    zeros = 0
                continue
            zeros = 0
            if acc * q > bound:
                continue  # oversized: inconsistent with any true divisor chain
            factors.append(q)
            acc *= q
        if candidate is None or not is_period(candidate):
            continue
        return OrderResult(
            _strip_period(candidate, is_period), attempt + 1, samples, True,
            scan_evaluations=scan_evals, factors_accepted=tuple(factors),
        )
    raise BudgetExhausted(f"no verified period within {params.trials} robust attempts")


def robust_hsp(instance: OracleInstance, params: SolverParams) -> HspResult:
    """Hidden-subgroup recovery tolerant of an m-to-1 label collapse, m the
    instance's `multiplicity_bound`.

    Sampler support always lies inside the annihilator of the function's
    true invariance subgroup, so the kernel of one batch of d(G) + 2 draws
    (`_batch_size`, as `solve_hsp_general` draws) only ever over-states it.
    The invariance subgroup is then grown from the kernel elements where f
    is f(0), by the stabiliser search of the coset law over f's whole
    table, read once and billed one query per domain point; the kernel
    only prunes that search, so one batch is drawn.  Any finite Abelian
    domain works.  Domains smaller than m² skip sampling: the kernel of no
    characters is all of G.
    """
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup solving needs a finite group domain")
    m = instance.multiplicity_bound
    if m <= 1:
        return solve_hsp_general(instance, params)

    collected = []
    if spec.order >= m * m:
        collected = hsp_sample_batch(instance, _batch_size(spec), seed=params.seed)
    table = instance.label_table(spec.moduli)
    instance.counter.add(spec.order)
    grids = np.indices(spec.moduli, sparse=True)
    candidates = table == table.flat[0]
    for t in collected:
        candidates &= _annihilated(grids, spec.moduli, t)
    return HspResult(SubgroupGenerators.of(spec, _table_stabiliser(table, candidates)[0]), 1, collected, True)
