"""Eigenvalue-estimation circuits, sampled from their exact outcome laws.

Two physically equivalent routes produce the same control-register law:

  * ``shift`` — the one-register route: the target starts in the cyclic
    vector |f(0)> (a uniform superposition of shift eigenvectors) and a
    controlled ladder of shift maps imprints the eigenvalue phase on the
    control register;
  * ``oracle`` — the plain-query route: the control is put in uniform
    superposition, one oracle application writes f into the target, and the
    control is transformed back.

On an n-level control, outcome x estimates a phase as x/n (exact Fourier
transform over Z_n, any n).  The semiclassical variant replaces the control
register by a single recycled qubit measured between steps, with each
measured bit feeding a rotation into the next step.  Its outcome law is the
shift route's register law on 2^bits levels (the Griffiths-Niu semiclassical
Fourier transform), so `control_distribution` is its one law; tests check
it against an independent walk of the cascade's binary branch tree.  The
runner draws its bits from the same eigenphase mixture: the basis target
is a uniform superposition of the L shift eigenvectors on its cycle, so a
run carries L weights on the phases k/L, each bit's law is their weighted
sum, and the measured bit conditions them.
Estimations chained on one kept target, as the discrete log runs them,
need no state either: the shifts along the domain generators commute, so
estimating them one after another draws jointly from the coset sampler's
law, the first estimation from its marginal and each later one from its
conditional given the outcomes before it (`sample_coset_coordinate`).

The register and coset-sampler laws come from the level sets of the label
table the circuit writes into the target (Mosca-Ekert): the law is the
summed power spectrum of their indicators.  Every one-dimensional law is
`_periodic_law`, read from one period of labels, never from the n-point
table: an integer-domain instance's `period_labels` on the oracle route,
the orbit of the target label under the unit shift on the shift route, and
a rank-1 coset table as its own period.  Level sets are then unions of
residue classes mod L, so the law is a mixture over the eigenphases k/L
fixed by the same-label pairs of one period counted by lag mod n: two
Dirichlet kernels weight those counts' spectra, in O(n) memory.  Distinct
labels, as in honest order and period functions and every shift orbit,
pair only with themselves and give the closed form of two kernels; an m-to-1
merge of labels only changes the counts.  The one-register sampler
(`sample_control`) builds no n-point law and reads one outcome at a time
(`_point_law`).  The target is a uniform superposition of the L orthogonal
shift eigenvectors of its cycle, so for distinct labels the law is the
mixture (1/L) sum_k F_n(k/L, .) of single-phase estimator laws
(Cleve-Ekert-Macchiavello-Mosca), drawn exactly at O(1) a draw: k uniform,
then the outcome by rejection from an envelope law on Z (`_draw_mixture`).
An m-to-1 merge is at most m times that mixture, so a mixture draw is kept
with probability law / (m mixture), at O(L) a proposal.  The cap bounds
the cycle's L labels, not n; the n-point laws serve `dump` and the tests.
The coset sampler (`hsp_sample_batch`) builds no table over the group
either.  A finite-domain instance is held on a subgroup H on which f is
constant, with one label per point of H's box: the coset states are shift
eigenvectors with the characters in H^perp as eigenvalues, so a draw is
t = M x mod d for x uniform in G, M = D B^-1 over H's Hermite basis B, which
is uniform on H^perp, at O(rank^2).  With one label per box point, as every
builder but a merge writes, that is the law; a merged box keeps a proposal
with probability law(t) / (m |H| / N), read from the box's labels in O(P)
for P box points, which the cap bounds.
The |G|-point coset law (`hsp_control_distribution`) serves the discrete
log's chained coordinates and the tests: a multi-register table is
read over its stabiliser K, found by rolls of the table
(`_table_stabiliser`), and its law lives on K^perp, fixed by which K-cosets
share a label.  With one label per coset it is |K|/N on K^perp with no FFT;
other tables, such as merged ones, take one FFT over their same-label pairs
of coset representatives, which the cap bounds with the points.  The dense
joint state (`_pre_measurement_state`) is only the reference that tests
compare the laws against; the dual-route check is the one other circuit
built on it.  Laws describe the instance rather than query it and bill
nothing; samplers bill one query per draw and the semiclassical runner one
per step."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amplitudes import (
    CapExceeded,
    QuantumState,
    RegisterLayout,
    basis_state,
    dimension_cap,
    from_amplitudes,
    l2_distance,
)
from .groups import _dual_rows, _exact_dtype, _factorize, _hermite_basis, _table_stabiliser
from .oracles import OracleInstance, apply_oracle, apply_shift
from .qft import apply_fourier

_BLOCK = 1 << 16  # control points per pass of `_periodic_law`


@dataclass(frozen=True)
class PhaseSample:
    """One measured control outcome and the exact rational it stands for."""

    observed: int
    register_size: int
    probability: float
    seed: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.observed, self.register_size)

    def to_json(self) -> dict:
        return {
            "observed": self.observed,
            "register_size": self.register_size,
            "probability": self.probability,
            "seed": self.seed,
        }


def _identity_point(instance: OracleInstance):
    return 0 if instance.domain is None else instance.domain.identity()


def _target_amplitudes(instance: OracleInstance, target) -> np.ndarray:
    """Resolve a target argument to an amplitude vector over the codomain."""
    x_size = instance.codomain_size
    if isinstance(target, np.ndarray):
        vec = target.astype(np.complex128)
        return vec / np.linalg.norm(vec)
    label = instance._raw(_identity_point(instance)) if target is None else int(target)
    vec = np.zeros(x_size, dtype=np.complex128)
    vec[label] = 1.0
    return vec


def _resolve_route(instance: OracleInstance, route: str | None) -> str:
    if route is None:
        route = "shift" if instance.homomorphism_available else "oracle"
    if route == "shift" and not instance.homomorphism_available:
        raise ValueError("shift route needs computable shift maps")
    if route == "oracle" and instance.domain is not None:
        raise ValueError("single-register oracle route is for integer domains")
    if route not in ("shift", "oracle"):
        raise ValueError(f"unknown route {route!r}")
    return route


def _pre_measurement_state(
    instance: OracleInstance,
    register_size: int,
    route: str,
    generator: int,
    target,
) -> QuantumState:
    """The joint control-target state just before the control is measured,
    built densely on n x |X| amplitudes: the laws' test reference, which
    also takes an amplitude-vector target, such as one kept.  Bills nothing."""
    n = int(register_size)
    x_size = instance.codomain_size
    layout = RegisterLayout.of((n, x_size), ("control", "target"))
    if route == "oracle":
        state = basis_state(layout, (0, 0))
        state = apply_fourier(state, 0)
        state = apply_oracle(state, [0], 1, instance)
    else:
        vec = _target_amplitudes(instance, target)
        amps = np.zeros((n, x_size), dtype=np.complex128)
        amps[0] = vec
        state = from_amplitudes(layout, amps.reshape(-1))
        state = apply_fourier(state, 0)
        state = apply_shift(state, 0, 1, instance, generator=generator, step=1)
    return apply_fourier(state, 0, inverse=True)


# --- exact outcome laws ------------------------------------------------------


def _cyclic_period(cycle: np.ndarray) -> int:
    """Least p with np.roll(cycle, p) == cycle.  The shifts that fix a cycle
    of length L form a subgroup of Z_L, so the least one divides L, and it is
    L stripped of each prime factor for as long as the roll still matches."""
    period = cycle.size
    for p in _factorize(cycle.size):
        while period % p == 0 and np.array_equal(np.roll(cycle, period // p), cycle):
            period //= p
    return period


def _sin_turns(r: np.ndarray, n: int) -> np.ndarray:
    """sin(pi r / n) for integers r in [0, n], folded onto [0, n/2] first,
    where the value is unchanged and the angle is most accurate."""
    folded = n - r
    np.minimum(folded, r, out=folded)
    angle = folded * (np.pi / n)
    return np.sin(angle, out=angle)


def _pair_spectra(labels: np.ndarray, occupied: int, n: int) -> tuple:
    """P_AA, P_BB and P_AB at the n control points of `_periodic_law`, for
    one period of labels given as indices into the `occupied` labels.

    Each P is the n-point spectrum sum_d h(d) exp(-2 pi i x d / n) of the
    same-label pairs (a, b) of one period counted by lag d = a - b: all pairs
    (AA), pairs with a, b < s (BB) and pairs with b < s (AB), n = Q L + s.
    Only d mod n matters, so the counts come from a circular correlation of
    a labels x min(2L, n) one-hot of the period: at width 2L the lags in
    (-L, L) stay apart, at width n they wrap as the spectrum does."""
    period = labels.size
    s = n % period
    width = min(2 * period, n)
    if occupied * width > dimension_cap():
        raise CapExceeded(f"label-period law over {occupied * width} amplitudes exceeds cap {dimension_cap()}")
    onehot = np.zeros((occupied, width))
    onehot[labels, np.arange(period)] = 1.0
    whole = np.fft.rfft(onehot, axis=1)
    onehot[:, s:] = 0.0
    head = np.fft.rfft(onehot, axis=1)
    spectra = np.zeros((2, n), dtype=np.complex128)
    for row, unit, left, right in ((0, 1, whole, whole), (0, 1j, head, head), (1, 1, whole, head)):
        counts = np.rint(np.fft.irfft((left * right.conj()).sum(axis=0), width))
        spectra[row, :period] += unit * counts[:period]  # lags d >= 0
        spectra[row, n - width + period :] += unit * counts[period:]  # d < 0, mod n
    # AA and BB counts are symmetric in d, so one FFT returns P_AA + i P_BB
    np.fft.fft(spectra, axis=1, out=spectra)
    return spectra[0].real, spectra[0].imag, spectra[1]


def _periodic_law(cycle: np.ndarray, n: int) -> np.ndarray:
    """level_set_law of the n-point table that repeats `cycle`.

    A cycle longer than n is cut to its first n labels.  A cycle with
    repeated labels is first cut to its least cyclic period; a cycle of
    distinct labels is its own.  With L that period and n = Q L + s,
    a level set holds the points a + k L with a < L and
    k < Q, and k = Q too when a < s.  So its indicator's spectrum is
    A(x) D_Q(x) + B(x) w^(Q y), with w = exp(-2 pi i / n), y = x L mod n,
    D_Q = sum_{k<Q} w^(k y), and A, B the sums of w^(x a) over its points
    a < L and a < s of one period.  Summed over labels, n^2 times the law is
        K_Q P_AA + P_BB + 2 Re(conj(E) P_AB)
    with the pair spectra of `_pair_spectra`, the Dirichlet kernel
    K_Q = S_Q^2, S_Q = sin(pi Q y / n) / sin(pi y / n) (Q where y == 0), and
    E = sum_{k=1..Q} w^(k y) = exp(-i pi (Q + 1) y / n) S_Q.  Arguments are
    reduced in int64: with Q y = k n + r, S_Q is (-1)^k sin(pi r / n) /
    sin(pi y / n), and the sign turns E's phase by k pi, which makes
    conj(E) = exp(i pi (y + r) / n) sin(pi r / n) / sin(pi y / n).  Points
    are taken in blocks, so the memory beyond the law is that of the
    spectra.  Distinct labels pair only with themselves, so every count sits
    at lag 0, the spectra are the constants L, s and s, and the law is
    (s K_{Q+1} + (L - s) K_Q) / n^2, with no FFT."""
    cycle = np.asarray(cycle)[:n]
    # a plain unique first: distinct labels, the common case, are their own
    # least period, and skipping the fold's allocations there measured ~10%
    # faster order finding
    occupied = np.unique(cycle).size
    if occupied < cycle.size:
        cycle = np.unique(cycle, return_inverse=True)[1]
        cycle = cycle[: _cyclic_period(cycle)]
    period = cycle.size
    q, s = divmod(n, period)
    spectra = (float(period), float(s), float(s)) if occupied == period else _pair_spectra(cycle, occupied, n)
    law = np.empty(n)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        p_aa, p_bb, p_ab = (p if np.ndim(p) == 0 else p[start:stop] for p in spectra)
        y = np.arange(start * period, stop * period, period, dtype=np.int64)
        y %= n
        r = q * y
        r %= n
        zero = y == 0
        denominator = _sin_turns(y, n)
        denominator[zero] = 1.0
        kernel = _sin_turns(r, n)
        kernel /= denominator
        kernel[zero] = q
        out = law[start:stop]
        np.multiply(kernel, p_aa, out=out)
        if s:  # else no pair has b < s
            r += y
            angle = r * (np.pi / n)
            cross = np.cos(angle) * p_ab.real
            if np.iscomplexobj(p_ab):
                cross -= np.sin(angle, out=angle) * p_ab.imag
            cross *= 2.0
            out += cross
        out *= kernel
        out += p_bb
    np.maximum(law, 0.0, out=law)  # rounding can leave a zero a hair below 0
    law /= float(n) * n
    return law


def _stabiliser_law(table: np.ndarray) -> np.ndarray:
    """level_set_law of a multi-register table, read over its stabiliser K.
    The law vanishes off K^perp and on it is (|K|/N)^2 times the spectrum of
    d(g), the number of same-label pairs (a, b) of K-coset representatives,
    the Hermite box of K, with a - b = g (Mosca-Ekert).  With one label per
    coset only the pairs a = b occur, and the law is |K|/N on K^perp with no
    FFT; any other table raises CapExceeded when its pairs exceed the cap,
    else scatters them for one FFT over its N points."""
    n = table.size
    generators, perp, members = _table_stabiliser(table, table == table.flat[0])
    if np.unique(table).size * members == n:
        return np.where(perp, members / n, 0.0)
    pivots = [row[i] for i, row in enumerate(_hermite_basis(generators, table.shape))]
    reps = np.indices(pivots).reshape(table.ndim, -1)  # one point per K-coset
    _, label, counts = np.unique(table[tuple(reps)], return_inverse=True, return_counts=True)
    blocks = counts**2  # pairs of each label, k x k for its k representatives
    pairs = int(blocks.sum())
    if pairs > dimension_cap():
        raise CapExceeded(f"same-label pair count {pairs} exceeds cap {dimension_cap()}")
    order = np.argsort(label, kind="stable")  # representatives grouped by label
    start = np.repeat(np.cumsum(counts) - counts, blocks)  # of each pair's label in order
    within = np.arange(pairs) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    a, b = np.divmod(within, np.repeat(counts, blocks))  # ranks of the pair within its label
    lags = (reps[:, order[start + a]] - reps[:, order[start + b]]) % np.reshape(table.shape, (-1, 1))
    law = np.bincount(np.ravel_multi_index(tuple(lags), table.shape), minlength=n).reshape(table.shape)
    law = np.where(perp, np.fft.fftn(law).real, 0.0)
    law *= (members / n) ** 2
    np.maximum(law, 0.0, out=law)  # rounding can leave a zero a hair below 0
    return law


def level_set_law(table) -> np.ndarray:
    """Outcome law of the control registers after the inverse Fourier
    transform, when their points t are entangled with target labels
    table[t]: the sum over labels of |FFT(1[table == label])|^2 / N^2,
    shaped like the table.

    A table whose N points exceed the dimension cap raises CapExceeded.  A
    one-dimensional table takes `_periodic_law` as the one period of
    itself, a multi-register table `_stabiliser_law`."""
    table = np.asarray(table, dtype=np.int64)
    if table.size > dimension_cap():
        raise CapExceeded(f"label-table law over {table.size} points exceeds cap {dimension_cap()}")
    if table.ndim == 1:
        return _periodic_law(table, table.size)
    return _stabiliser_law(table)


def _orbit_length(instance: OracleInstance, label: int, generator: int, limit: int) -> int:
    """Length of the cycle of `label` under the unit shift along the
    generator, counted up to `limit`: the period of the target labels the
    shift route's control points write.  A permutation's cycle holds
    distinct labels, so its length is all a law needs of it."""
    if not 0 <= label < instance.codomain_size:
        raise ValueError(f"target label {label} outside the codomain")
    spec = instance.domain
    step = instance.shift_permutation(1 if spec is None else spec.generator(generator)).tolist()
    length, current = 1, step[label]
    while current != label and length < limit:
        current = step[current]
        length += 1
    return length


def _register_cycle(instance: OracleInstance, n: int, generator: int, target, route: str | None) -> tuple:
    """(L, labels, m) of the labels an n-point control register writes,
    cut at n points: L their least cyclic period, `labels` one period as
    indices into the occupied labels, or None when those L labels are
    distinct, and m the largest count of one label in a period.

    The oracle route reads `period_labels`, the shift route the cycle of the
    basis target (None means f at the identity) under the unit shift; on the
    integers, f(0)'s cycle is read off `period_labels` too.  The cap bounds
    L; cached on the instance."""
    route = _resolve_route(instance, route)
    if target is not None and not isinstance(target, (int, np.integer)):
        raise ValueError("control laws take a basis-label target or None")
    key = ("cycle", route, n, generator, target)
    if key in instance._dist_cache:
        return instance._dist_cache[key]
    if route == "oracle":
        cycle = instance.period_labels[:n]
        length = cycle.size
    elif instance.domain is None and (target is None or target == instance.period_labels[0]):
        # the shift maps commute, so the unit shift walks f(0)'s label
        # through f(1), f(2), ..., and its cycle ends at the first return
        repeats = np.flatnonzero(instance.period_labels[1:] == instance.period_labels[0])
        length = min(int(repeats[0]) + 1 if repeats.size else instance.period_labels.size, n)
    else:
        label = instance._raw(_identity_point(instance)) if target is None else int(target)
        length = _orbit_length(instance, label, generator, min(n, dimension_cap() + 1))
    if length > dimension_cap():
        raise CapExceeded(f"register cycle of at least {length} labels exceeds cap {dimension_cap()}")
    entry = (length, None, 1)
    # a plain unique first: distinct labels, the common case, need no inverse
    if route == "oracle" and np.unique(cycle).size < length:
        labels = np.unique(cycle, return_inverse=True)[1]
        labels = labels[: _cyclic_period(labels)]
        entry = (labels.size, labels, int(np.bincount(labels).max()))
    instance._dist_cache[key] = entry
    return entry


def control_distribution(
    instance: OracleInstance,
    register_size: int,
    *,
    generator: int = 0,
    target=None,
    route: str | None = None,
) -> np.ndarray:
    """Exact control-register law of the estimation circuit, as an n-point
    array: `dump` and the tests read it, and the sampler does not.  Bills
    nothing.  The shift route's target must be a basis label (None means f
    at the identity)."""
    n = int(register_size)
    if n > dimension_cap():
        raise CapExceeded(f"control law over {n} points exceeds cap {dimension_cap()}")
    period, labels, _ = _register_cycle(instance, n, int(generator), target, route)
    return _periodic_law(np.arange(period) if labels is None else labels, n)


def _sin_turn(r: int, n: int) -> float:
    """sin(pi r / n) for an integer r in [0, n], as `_sin_turns` folds it."""
    return math.sin(math.pi * min(r, n - r) / n)


def _point_law(x: int, n: int, period: int, labels) -> tuple[float, float]:
    """The register law of `_periodic_law` at the one outcome x, and the
    mixture (1/L) sum_k F_n(k/L, x) of single-phase laws over its period L,
    which is the law of L distinct labels: (s K_{Q+1} + (L - s) K_Q) / n^2.

    With merged `labels`, n^2 times the law is sum over labels of
    |conj(E) A + B|^2, with A and B the sums of w^(x a) over the label's
    points a < L and a < s of one period and conj(E) as in `_periodic_law`;
    that costs O(L).  Each label's amplitude sums at most m residue terms,
    so by Cauchy-Schwarz the law is at most m times the mixture.  Arguments
    are reduced in Python ints, so no n overflows."""
    q, s = divmod(n, period)
    y = x * period % n
    r = q * y % n
    if y == 0:  # S_Q and S_{Q+1}, the roots of the kernels
        root, root_next = q, q + 1
    else:
        denominator = _sin_turn(y, n)
        root, root_next = _sin_turn(r, n) / denominator, _sin_turn((r + y) % n, n) / denominator
    scale = float(n) * n
    mixture = ((period - s) * root * root + s * root_next * root_next) / scale
    if labels is None:
        return mixture, mixture
    conj_e = root * np.exp(1j * math.pi * ((y + r) / n))
    a = np.arange(period, dtype=np.int64 if x * period < 1 << 63 else object)
    w = np.exp((a * x % n).astype(float) * (-2j * math.pi / n))  # w^(x a)
    amplitude = conj_e * w
    amplitude[:s] += w[:s]
    law = np.bincount(labels, amplitude.real) ** 2 + np.bincount(labels, amplitude.imag) ** 2
    return float(law.sum()) / scale, mixture


def _tail_index(g: float, v: float) -> int:
    """i >= 1 with P(i > I) = g / (I + g) when v is uniform on (0, 1]."""
    return math.floor(g / v - g) + 1


def _draw_tail(rng, f: float) -> int:
    """j >= 2 or j <= -1 with probability proportional to 1 / (j - f)^2.
    The right side (j = 1 + i, g = 1 - f) is proposed with probability f,
    the left (j = -i, g = f) otherwise, i by `_tail_index`, and i is kept
    with probability (i + g - 1) / (i + g): both sides then weigh
    f (1 - f) / (i + g)^2."""
    while True:
        right = rng.random() < f
        g = 1.0 - f if right else f
        i = _tail_index(g, 1.0 - rng.random())
        if rng.random() * (i + g) < i + g - 1:
            return 1 + i if right else -i


def _draw_mixture(rng, period: int, n: int) -> int:
    """One outcome of the mixture (1/L) sum_k F_n(k/L, .), exactly.

    Draw k uniform in [0, L); with n k = base L + num and f = num / L, the
    outcome is base + j mod n, where j = 0 when f = 0 and otherwise follows
    F_n(k/L, base + j) = sin^2(pi f) / (n^2 sin^2(pi t / n)), t = j - f
    taken in (-n/2, n/2].  That j is drawn by rejection from the envelope
    e(j) = sin^2(pi f) / (pi^2 (j - f)^2), a law on Z: since
    sin(pi u) >= 2u on [0, 1/2], F_n <= (pi^2 / 4) e, and j is kept with
    probability F_n / ((pi^2 / 4) e) = (2u / sin(pi u))^2, u = |t| / n, so 4 /
    pi^2 of proposals are kept.  A rejection keeps k: redrawing it would
    favour the phases with f = 0, which are never rejected."""
    k = int(rng.integers(period))
    base, num = divmod(n * k, period)
    if num == 0:
        return base
    f, g = num / period, (period - num) / period
    mass = (_sin_turn(num, period) / math.pi) ** 2
    zero, zero_or_one = mass / (f * f), mass / (f * f) + mass / (g * g)  # e(0), e(0) + e(1)
    width = n * period
    while True:
        pick = rng.random()
        j = 0 if pick < zero else 1 if pick < zero_or_one else _draw_tail(rng, f)
        offset = j * period - num  # t L
        if -width < 2 * offset <= width:
            u = abs(offset) / width
            if rng.random() * math.sin(math.pi * u) ** 2 < 4.0 * u * u:
                return (base + j) % n


def sample_control(
    instance: OracleInstance,
    register_size: int,
    count: int,
    *,
    generator: int = 0,
    seed: int = 0,
    target=None,
    route: str | None = None,
) -> list[PhaseSample]:
    """Draw measurement outcomes from the exact control law, each with its
    probability, and with no n-point array.

    The target is a uniform superposition of the L orthogonal shift
    eigenvectors of its cycle, so the law of L distinct labels is the
    mixture (1/L) sum_k F_n(k/L, .) of single-phase laws, drawn by
    `_draw_mixture` at O(1) per draw.  An m-to-1 merge of labels is at most
    m times that mixture, so its draws keep a mixture draw x with
    probability law(x) / (m mixture(x)), which costs O(L) per proposal; with
    m = 1 every draw is kept.  Each draw stands for one execution of the
    circuit and costs one query.
    """
    n = int(register_size)
    period, labels, multiplicity = _register_cycle(instance, n, int(generator), target, route)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(int(count)):
        while True:
            x = _draw_mixture(rng, period, n)
            law, mixture = _point_law(x, n, period, labels)
            if rng.random() * multiplicity * mixture < law:
                break
        samples.append(PhaseSample(x, n, law, seed))
    instance.counter.add(int(count))
    return samples


def _hsp_layout(instance: OracleInstance) -> RegisterLayout:
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup sampling needs a finite group domain")
    labels = tuple(f"c{j}" for j in range(spec.rank)) + ("target",)
    return RegisterLayout.of(tuple(spec.moduli) + (instance.codomain_size,), labels)


def hsp_control_distribution(instance: OracleInstance) -> np.ndarray:
    """Exact joint law over all coordinate controls of the coset sampler,
    read from f's table over the whole group: the discrete log's chained
    coordinates and the tests read it, and `hsp_sample_batch` does not.

    Returned flattened in row-major coordinate order.  Bills nothing; cached.
    """
    key = ("hsp",)
    if key in instance._dist_cache:
        return instance._dist_cache[key]
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup sampling needs a finite group domain")
    if spec.order > dimension_cap():  # before the table is built
        raise CapExceeded(f"coset law over {spec.order} points exceeds cap {dimension_cap()}")
    law = level_set_law(instance.label_table(tuple(spec.moduli))).reshape(-1)
    law.setflags(write=False)
    instance._dist_cache[key] = law
    return law


def _coset_sampler(instance: OracleInstance) -> tuple:
    """What a coset-sampler draw reads of a finite-domain instance, cached
    on it: M = D B^-1 for the Hermite basis B of the instance's subgroup H
    (`_dual_rows`), each row reduced mod its modulus, as an array of the
    dtype `_exact_dtype` picks; m, the largest count of box points that
    share a label; and for m > 1 the box's labels, ranked among the distinct
    ones and flattened in mixed-radix order, with the box's shape.  The cap
    bounds those points."""
    key = ("coset sampler",)
    if key in instance._dist_cache:
        return instance._dist_cache[key]
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup sampling needs a finite group domain")
    rows = _dual_rows(instance.basis, spec.moduli)
    dual = np.array([[a % d for a in row] for row, d in zip(rows, spec.moduli)], dtype=_exact_dtype(spec.moduli))
    entry = (dual, 1, None)
    labels = instance.box_labels.reshape(-1)
    if (multiplicity := int(np.bincount(labels).max())) > 1:
        if labels.size > dimension_cap():
            raise CapExceeded(f"merged coset law over {labels.size} box points exceeds cap {dimension_cap()}")
        entry = (dual, multiplicity, (np.unique(labels, return_inverse=True)[1], instance.pivots))
    instance._dist_cache[key] = entry
    return entry


def _coset_proposals(dual: np.ndarray, x: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """t = M x mod d for each row x of points of G, M the rows of `dual`."""
    return x.astype(dual.dtype, copy=False) @ dual.T % np.array(moduli, dtype=dual.dtype)


def _box_acceptance(t: np.ndarray, moduli: tuple[int, ...], multiplicity: int, labels, pivots) -> np.ndarray:
    """law(t) / (m |H| / N) at each row t of characters that annihilate H.

    f is constant on H-cosets, so the amplitude of label l at t is |H|/N
    times the sum of chi_t(b) = exp(2 pi i sum_j t_j b_j / d_j) over its box
    points b: law(t) = (|H|/N)^2 sum_l |sum_{f(b)=l} chi_t(b)|^2, which is
    at most m |H|/N by Cauchy-Schwarz, and with P = N/|H| box points the
    ratio is sum_l |...|^2 / (m P).  The box is a grid, so chi_t over it is
    the outer product of one row of p_j roots per coordinate, and the sums
    per label are two weighted counts.  Rows are taken in blocks."""
    size, width = labels.size, int(labels.max()) + 1
    ratio = np.empty(len(t))
    step = max(1, _BLOCK // size)
    for start in range(0, len(t), step):
        rows = t[start : start + step]
        chi = np.ones((len(rows), 1), dtype=np.complex128)
        for j, (p, d) in enumerate(zip(pivots, moduli)):
            turns = (np.multiply.outer(rows[:, j], np.arange(p, dtype=rows.dtype)) % d).astype(float) / d
            chi = (chi[:, :, None] * np.exp(2j * np.pi * turns)[:, None, :]).reshape(len(rows), -1)
        index = (np.arange(len(rows))[:, None] * width + labels).reshape(-1)
        power = sum(np.bincount(index, part.reshape(-1), len(rows) * width) ** 2 for part in (chi.real, chi.imag))
        ratio[start : start + step] = power.reshape(len(rows), width).sum(axis=1)
    return ratio / (multiplicity * size)


def hsp_sample_batch(instance: OracleInstance, count: int, seed: int = 0) -> list:
    """Draw `count` coset-sampler outcomes (group elements of the character
    group, identified with domain coordinates), with no table over G and no
    law array.  One query per draw.

    f is constant on the cosets of the instance's subgroup H, so the coset
    states are shift eigenvectors whose eigenvalues are the characters in
    H^perp, and the law vanishes off H^perp (Mosca-Ekert).  A proposal is
    t = M x mod d for x uniform in G, M = D B^-1 as `_coset_sampler` reads
    it: M is upper triangular with diagonal d_i / p_i, so coordinate i adds
    (d_i / p_i) x_i, uniform on a subgroup of p_i residues, to whatever the
    later coordinates give, and the proposals, which lie in H^perp, are
    uniform on its prod p_i points.  With one label per box point, as every
    builder but a merge writes, that is the law, at O(rank^2) a draw.  An
    m-to-1 box keeps a proposal with probability law(t) / (m |H| / N)
    (`_box_acceptance`), at O(P) a proposal for P box points; with m = 1
    every proposal is kept."""
    spec = instance.domain
    dual, multiplicity, box = _coset_sampler(instance)
    rng = np.random.default_rng(seed)
    count = int(count)
    draws: list = []
    while len(draws) < count:
        x = rng.integers(0, spec.moduli, size=((count - len(draws)) * multiplicity, spec.rank))
        t = _coset_proposals(dual, x, spec.moduli)
        if multiplicity > 1:
            t = t[rng.random(len(t)) < _box_acceptance(t, spec.moduli, multiplicity, *box)]
        draws.extend(map(tuple, t.tolist()))
    instance.counter.add(count)
    return draws[:count]


def _coordinate_law(instance: OracleInstance, coordinate: int, measured: dict) -> np.ndarray:
    """Law of coordinate j of the coset sampler's outcome given the
    coordinates already measured on the same target (axis -> outcome): the
    joint coset law at those outcomes, summed over every other axis and
    renormalised.  Bills nothing."""
    law = hsp_control_distribution(instance).reshape(instance.domain.moduli)
    others = [i for i in range(law.ndim) if i != coordinate]
    if coordinate not in range(law.ndim) or not set(measured) <= set(others):
        raise ValueError(f"coordinate {coordinate} given {sorted(measured)} outside rank {law.ndim}")
    law = np.moveaxis(law, coordinate, 0)[(slice(None),) + tuple(measured.get(i, slice(None)) for i in others)]
    weights = law.reshape(law.shape[0], -1).sum(axis=1)
    if not weights.sum() > 0.0:
        raise ValueError(f"measured outcomes {measured} have probability zero")
    return weights / weights.sum()


def sample_coset_coordinate(
    instance: OracleInstance, coordinate: int, measured: dict | None = None, *, seed: int = 0
) -> PhaseSample:
    """Estimate the eigenphase t_j / d_j of the shift along generator j on a
    d_j-level control, on the target |f(identity)> after earlier estimations
    read the `measured` coordinates (axis -> outcome).  The shifts commute,
    so this draws from the coset law's conditional given those outcomes.
    One query per draw."""
    law = _coordinate_law(instance, coordinate, dict(measured or {}))
    outcome = int(np.random.default_rng(seed).choice(law.size, p=law))
    instance.counter.add(1)
    return PhaseSample(outcome, law.size, float(law[outcome]), seed)


# --- dual-route verification ---------------------------------------------------


def verify_main_equality(instance: OracleInstance, register_size: int | None = None) -> float:
    """L2 distance between the two constructions of sum_x |x>|f(x)>.

    Route one queries the oracle on a uniform control; route two starts the
    target at |f(identity)> and applies the controlled shift ladder along
    each coordinate.  Exact arithmetic should agree to rounding error.
    Bills no query.
    """
    if not instance.homomorphism_available:
        raise ValueError("dual-route comparison needs shift maps")
    spec = instance.domain
    if spec is None:
        if register_size is None:
            register_size = instance.truth.period
        if register_size is None:
            raise ValueError("integer-domain comparison needs a register size")
        layout = RegisterLayout.of((int(register_size), instance.codomain_size))
        controls = [0]
    else:
        layout = _hsp_layout(instance)
        controls = list(range(spec.rank))
    target = len(controls)

    via_oracle = basis_state(layout, (0,) * len(controls) + (0,))
    for j in controls:
        via_oracle = apply_fourier(via_oracle, j)
    via_oracle = apply_oracle(via_oracle, controls, target, instance)

    f0 = instance._raw(_identity_point(instance))
    via_shifts = basis_state(layout, (0,) * len(controls) + (f0,))
    for j in controls:
        via_shifts = apply_fourier(via_shifts, j)
    for j in controls:
        via_shifts = apply_shift(via_shifts, j, target, instance, generator=j, step=1)
    return l2_distance(via_oracle, via_shifts)


# --- semiclassical (single recycled control qubit) ---------------------------


@dataclass(frozen=True)
class SemiclassicalStep:
    qubit_index: int  # 1-based position in the cascade
    shift_power: int  # the controlled ladder power applied at this step
    rotation_turns: Fraction  # phase fed forward from earlier bits
    bit: int


@dataclass
class SemiclassicalRun:
    steps: tuple[SemiclassicalStep, ...]
    sample: PhaseSample
    live_dimension: int  # eigenphases the cascade carries: the target's shift cycle L

    def to_json(self) -> dict:
        return {
            "bits": [s.bit for s in self.steps],
            "observed": self.sample.observed,
            "register_size": self.sample.register_size,
            "live_dimension": self.live_dimension,
        }


def phase_estimate_semiclassical(
    instance: OracleInstance,
    n_bits: int,
    *,
    generator: int = 0,
    seed: int = 0,
    target=None,
) -> SemiclassicalRun:
    """Iterative estimation with one control qubit, measured and recycled.

    Step s (1-based index s+1 in the transcript) applies the controlled
    shift ladder raised to p = 2^(n_bits-1-s), rotates the |1> branch back
    by the phase already pinned down by earlier bits, turns = -v / 2^(s+1)
    for the bits v measured so far, and measures after a Hadamard; bit s is
    the 2^s digit of the final outcome.

    The basis target (None means f at the identity) is the uniform
    superposition of the L shift eigenvectors on its cycle, and the cascade
    only kicks their phases k/L back onto the control, so the run carries L
    weights in place of a state: bit 0 has probability
    cos^2(pi (p k / L + turns)) under phase k, the bit is drawn from the
    weighted sum, and the weights are conditioned on it.  The outcome law is
    `control_distribution(instance, 2**n_bits, route="shift")`, the register
    route's on 2^n_bits levels (Griffiths-Niu).  Costs one query per step
    plus one `evaluate` when the default target is requested.
    """
    n_bits = int(n_bits)
    if n_bits < 1:
        raise ValueError("need at least one bit")
    if not instance.homomorphism_available:
        raise ValueError("semiclassical route needs shift maps")
    if target is not None and not isinstance(target, (int, np.integer)):
        raise ValueError("the cascade takes a basis-label target or None")
    label = instance.evaluate(_identity_point(instance)) if target is None else int(target)
    period = _orbit_length(instance, label, int(generator), instance.codomain_size)
    phases = np.arange(period, dtype=np.int64)  # eigenphase k / period
    weights = np.full(period, 1.0 / period)
    rng = np.random.default_rng(seed)

    v = 0
    steps: list[SemiclassicalStep] = []
    total_probability = 1.0
    for s in range(n_bits):
        power = 1 << (n_bits - 1 - s)
        turns = Fraction(-v, 1 << (s + 1))
        instance.counter.add(1)
        angle = (power % period) * phases % period / period + float(turns)
        angle *= np.pi
        factors = (np.cos(angle) ** 2, np.sin(angle) ** 2)  # of bit 0 and bit 1
        probs = np.maximum([weights @ factors[0], weights @ factors[1]], 0.0)
        bit = int(np.random.default_rng(int(rng.integers(1 << 62))).choice(2, p=probs / probs.sum()))
        total_probability *= float(probs[bit])
        weights *= factors[bit]
        weights /= weights.sum()
        v += bit << s
        steps.append(SemiclassicalStep(s + 1, power, turns, bit))

    sample = PhaseSample(v, 1 << n_bits, total_probability, seed)
    return SemiclassicalRun(tuple(steps), sample, period)
