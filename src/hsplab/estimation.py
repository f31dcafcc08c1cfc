"""Eigenvalue-estimation circuits, sampled from their exact outcome laws.

The two circuits of the paper prepare one state, sum_x |x>|f(x)>: querying f
into a target from a control in uniform superposition, and running the
controlled ladder of shift maps on the cyclic vector |f(0)>, a uniform
superposition of shift eigenvectors (the tests' dense reference checks
it).  So the control's law after the inverse Fourier transform does not
depend on which circuit ran, and each law has one computation.

On an n-level control, outcome x estimates a phase as x/n (exact Fourier
transform over Z_n, any n).  The semiclassical variant replaces the control
register by a single recycled qubit measured between steps, with each
measured bit feeding a rotation into the next step.  Its outcome law is the
register law on 2^bits levels (the Griffiths-Niu semiclassical Fourier
transform), so `control_distribution` is its one law; tests check it
against an independent walk of the cascade's binary branch tree.  The
runner draws its bits from the same eigenphase mixture: the basis target
is a uniform superposition of the L shift eigenvectors on its cycle, so a
run carries L weights on the phases k/L, each bit's law is their weighted
sum, and the measured bit conditions them.

The register and coset-sampler laws come from the level sets of the label
table the circuit writes into the target (Mosca-Ekert): the law is the
summed power spectrum of their indicators.  Every one-dimensional law is
`_periodic_law`, read from one period of labels, never from the n-point
table: the default target's row of labels f(k g) along the generator, which
is `period_labels` on the integers and one `label_table` row on a finite
domain, or an off-orbit basis target's cycle under the unit shift.  Level
sets are then unions of residue classes mod L, so the law is a mixture over
the eigenphases k/L fixed by the same-label pairs of one period counted by
lag mod n: two Dirichlet kernels weight those counts' spectra, in O(n)
memory.  Distinct labels, as in honest order and period functions and every
shift orbit, pair only with themselves and give the closed form of two
kernels; an m-to-1 merge of labels only changes the counts.  The one-register sampler
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
for P box points, which the cap bounds; `_coset_law_at` reads the law at
one drawn t the same way.  No state vector and no |G|-point law is built
here: the dense joint state and the coset law read from f's table over
the group are the references in `tests/dense_reference.py`.  Laws
describe the instance rather than query it and bill nothing; samplers bill
one query per draw and the semiclassical runner one per step."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amplitudes import CapExceeded, dimension_cap
from .groups import _dual_rows, _exact_dtype, _strip_period
from .oracles import OracleInstance

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


# --- exact outcome laws ------------------------------------------------------


def _reduced_cycle(cycle: np.ndarray) -> tuple:
    """(L, labels) of a cycle of labels: L its least cyclic period, and
    `labels` one period as indices into the occupied labels, or None when
    the cycle's labels are distinct and it is its own least period.  The
    rolls that fix a cycle form a subgroup of Z_size, so L divides the size
    and is what `_strip_period` leaves of it."""
    # a plain unique first: distinct labels, the common case, need no inverse,
    # and skipping its allocations measured ~10% faster order finding
    if np.unique(cycle).size == cycle.size:
        return cycle.size, None
    labels = np.unique(cycle, return_inverse=True)[1]
    period = _strip_period(labels.size, lambda d: np.array_equal(np.roll(labels, d), labels))
    return period, labels[:period]


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


def _periodic_law(period: int, labels, n: int) -> np.ndarray:
    """Outcome law sum over labels of |FFT(1[table == label])|^2 / n^2 of
    the n-point table that repeats one period of L <= n labels, given as
    `_reduced_cycle` gives them: `labels` as indices into the occupied
    labels, or None when the L labels are distinct.

    With n = Q L + s, a level set holds the points a + k L with a < L and
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
    q, s = divmod(n, period)
    occupied = period if labels is None else int(labels.max()) + 1
    spectra = (float(period), float(s), float(s)) if occupied == period else _pair_spectra(labels, occupied, n)
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


def _orbit_length(instance: OracleInstance, label: int, generator: int, limit: int) -> int:
    """Length of the cycle of `label` under the unit shift along the
    generator, counted up to `limit`: the period of the target labels the
    shift ladder's control points write.  A permutation's cycle holds
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


def _register_cycle(instance: OracleInstance, n: int, generator: int, target) -> tuple:
    """(L, labels, m) of the labels an n-point control register writes,
    cut at n points: L their least cyclic period, `labels` one period as
    indices into the occupied labels, or None when the labels written are
    distinct, and m the largest count of one label in a period.

    The default target (None or f at the identity) writes f's row of labels
    f(k g) along the generator g: `period_labels` on the integers, one
    `label_table` row of at most min(d_j, n, cap + 1) points on a finite
    domain.  With shift maps that row is the orbit of f(0) under a
    permutation, so its labels are distinct up to the first return of f(0),
    where the cycle ends; without them the row is cut at n and reduced to
    its least cyclic period (`_reduced_cycle`), and a finite domain, which
    has no period of labels to cut, raises ValueError.  Any other basis
    label's cycle is walked under the unit shift (`_orbit_length`).  The cap
    bounds L, or the cut row when it is reduced; cached on the instance."""
    if target is not None and not isinstance(target, (int, np.integer)):
        raise ValueError("control laws take a basis-label target or None")
    key = ("cycle", n, generator, target)
    if key in instance._dist_cache:
        return instance._dist_cache[key]
    spec = instance.domain
    row = None  # the default target's row, when it is reduced
    if target is not None and target != instance._raw(_identity_point(instance)):
        length = _orbit_length(instance, int(target), generator, min(n, dimension_cap() + 1))
    elif spec is not None and not instance.homomorphism_available:
        raise ValueError("a single-register law on a finite domain needs shift maps")
    else:
        if spec is None:
            row = instance.period_labels[:n]
        else:
            size = min(spec.moduli[generator], n, dimension_cap() + 1)
            row = instance.label_table(tuple(size if j == generator else 1 for j in range(spec.rank))).reshape(-1)
        length = row.size
        if instance.homomorphism_available:
            # the shift maps commute, so the unit shift walks f(0)'s label
            # through f(g), f(2g), ..., and its cycle ends at the first return
            returns = np.flatnonzero(row[1:] == row[0])
            length, row = int(returns[0]) + 1 if returns.size else length, None
    if length > dimension_cap():
        raise CapExceeded(f"register cycle of at least {length} labels exceeds cap {dimension_cap()}")
    entry = (length, None, 1)
    if row is not None:
        period, labels = _reduced_cycle(row)
        if labels is not None:
            entry = (period, labels, int(np.bincount(labels).max()))
    instance._dist_cache[key] = entry
    return entry


def control_distribution(
    instance: OracleInstance,
    register_size: int,
    *,
    generator: int = 0,
    target=None,
) -> np.ndarray:
    """Exact control-register law of the estimation circuit, as an n-point
    array: `dump` and the tests read it, and the sampler does not.  Bills
    nothing.  The target must be a basis label (None means f at the
    identity)."""
    n = int(register_size)
    if n > dimension_cap():
        raise CapExceeded(f"control law over {n} points exceeds cap {dimension_cap()}")
    return _periodic_law(*_register_cycle(instance, n, int(generator), target)[:2], n)


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
    period, labels, multiplicity = _register_cycle(instance, n, int(generator), target)
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


def _coset_law_at(instance: OracleInstance, t) -> float:
    """The coset law at one character t in H^perp, as `hsp_sample_batch`
    reads it: 1/P for P box points when each has its own label, else
    law(t) = acceptance(t) m / P (`_box_acceptance`).  Bills nothing."""
    spec = instance.domain
    dual, multiplicity, box = _coset_sampler(instance)
    points = math.prod(instance.pivots)
    if multiplicity == 1:
        return 1.0 / points
    t = np.array([t], dtype=dual.dtype)
    return float(_box_acceptance(t, spec.moduli, multiplicity, *box)[0]) * multiplicity / points


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
    weighted sum, and the weights are conditioned on it.  L is the target's
    `_register_cycle` cut at the codomain size, which no permutation cycle
    exceeds, so the default target's is read off f's row of labels and the
    cap bounds it.  The outcome law is `control_distribution(instance,
    2**n_bits)`, the register's on 2^n_bits levels (Griffiths-Niu).  Costs
    one query per step plus one `evaluate` when the default target is
    requested.
    """
    n_bits = int(n_bits)
    if n_bits < 1:
        raise ValueError("need at least one bit")
    if not instance.homomorphism_available:
        raise ValueError("semiclassical route needs shift maps")
    if target is not None and not isinstance(target, (int, np.integer)):
        raise ValueError("the cascade takes a basis-label target or None")
    label = instance.evaluate(_identity_point(instance)) if target is None else int(target)
    period = _register_cycle(instance, instance.codomain_size, int(generator), label)[0]
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
