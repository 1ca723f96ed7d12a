"""The q-analogue polynomials of Littlewood-Richardson coefficients.

Four independent engines compute the same family K(lambda, gamma, eta):

* ``k_by_kostant``     -- alternating sum over the symmetric group of
                          q-counted root-multiset decompositions, walking
                          only the arrangements of lambda + rho whose demand
                          has nonnegative prefix sums (every other one
                          counts zero);
* ``k_by_recurrence``  -- the block-peeling recurrence driven by minimal
                          coset representatives and skew LR coefficients;
* ``k_by_series``      -- direct expansion of the product generating
                          function, straightened monomial by monomial;
* ``k_by_charge``      -- the charge generating function over catabolizable
                          tableaux (proven in special cases, otherwise
                          conjectural; the result carries that label).

The module also houses the counting oracles (Kostka numbers, LR
coefficients) and the generating-function identities around cocharge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .catabolism import catabolism_type, enumerate_catabolizable
from .charge import charge_tableau, cocharge_tableau
from .crystal import is_mu_lattice
from .shapes import (
    RectSequence,
    Vec,
    block_bounds,
    dominates,
    from_rects,
    is_weakly_decreasing,
    normalize_index,
    pad,
    partitions,
    partitions_containing,
    rect_sequence,
    rho,
    roots_of,
    trim,
    vec_add,
    vec_sub,
)
from .tableaux import enumerate_cst, straight_cst


class QPoly:
    """A polynomial in q with (possibly negative) integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    cc[int(e)] = int(c)
        object.__setattr__(self, "coeffs", cc)

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def term(exponent: int, coeff: int = 1) -> "QPoly":
        return QPoly({exponent: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly({0: other})
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def __neg__(self):
        return QPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = QPoly({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def at_one(self) -> int:
        return sum(self.coeffs.values())

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def leq(self, other: "QPoly") -> bool:
        """Coefficientwise comparison."""
        exps = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(e) <= other.coefficient(e) for e in exps)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}q" + (f"^{e}" if e != 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"coeffs": {str(e): c for e, c in sorted(self.coeffs.items())}}

    @staticmethod
    def from_json(data) -> "QPoly":
        return QPoly({int(e): int(c) for e, c in data["coeffs"].items()})


ZERO = QPoly()
ONE = QPoly({0: 1})


@dataclass(frozen=True)
class KIndex:
    """An index triple (lambda, gamma, eta) with len(gamma) = sum(eta)."""

    lam: Vec
    gamma: Vec
    eta: Vec

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "eta", tuple(self.eta))
        if sum(self.eta) != len(self.gamma) or len(self.lam) != len(self.gamma):
            raise ValueError(f"inconsistent index {self}")
        if any(e <= 0 for e in self.eta):
            raise ValueError(f"eta parts must be positive: {self.eta}")

    @property
    def n(self) -> int:
        return len(self.gamma)

    def rects(self) -> RectSequence:
        return rect_sequence(self.eta, self.gamma)

    def normalized(self):
        """(sign, normalized index) or None when the polynomial is zero."""
        res = normalize_index(self.lam, self.gamma, self.eta)
        if res is None:
            return None
        sign, lam, gamma = res
        return sign, KIndex(lam, gamma, self.eta)


def index_from_rects(lam, rects) -> KIndex:
    rs = from_rects(rects)
    return KIndex(pad(lam, rs.n), rs.gamma, rs.eta)


# ---------------------------------------------------------------------------
# Bott straightening and the counting oracles


def bott_straighten(alpha):
    """Straighten a monomial exponent: None on a stuck repeat, else
    (sign, dominant weight) with alpha + rho sorted and shifted back."""
    alpha = tuple(alpha)
    n = len(alpha)
    v = vec_add(alpha, rho(n))
    if len(set(v)) < n:
        return None
    inv = sum(1 for i, j in itertools.combinations(range(n), 2) if v[i] < v[j])
    srt = tuple(sorted(v, reverse=True))
    return (-1 if inv % 2 else 1), vec_sub(srt, rho(n))


@cache
def kostka_number(shape, alpha) -> int:
    """Number of column-strict tableaux of the given shape and content."""
    return len(straight_cst(trim(shape), tuple(alpha)))


@cache
def lr_coefficient(outer, inner, lam, mu) -> int:
    """Inner product of the skew Schur functions outer/inner and lam/mu.

    Counts mu-lattice column-strict tableaux of shape outer/inner and
    content lam - mu.
    """
    outer, inner, lam, mu = trim(outer), trim(inner), trim(lam), trim(mu)
    if len(inner) > len(outer) or any(inner[i] > outer[i] for i in range(len(inner))):
        return 0
    if sum(outer) - sum(inner) != sum(lam) - sum(mu):
        return 0
    ln = max(len(lam), len(mu))
    diff = vec_sub(pad(lam, ln), pad(mu, ln))
    if any(x < 0 for x in diff):
        return 0
    return sum(
        1
        for t in enumerate_cst(outer, inner, diff)
        if is_mu_lattice(t.word(), mu)
    )


def lr3(c, a, b) -> int:
    """The structure constant <s_c, s_a s_b>: lattice fillings of c/a by b."""
    c, a = trim(c), trim(a)
    if len(a) > len(c) or any(a[i] > c[i] for i in range(len(a))):
        return 0
    return lr_coefficient(c, a, trim(b), ())


@cache
def lr_skew_times_row(sigma, alpha, r1, beta) -> int:
    """<s_sigma, s_{alpha/r1} s_beta>, summed over the middle partition."""
    sigma, alpha, r1, beta = trim(sigma), trim(alpha), trim(r1), trim(beta)
    deg = sum(alpha) - sum(r1)
    if deg < 0 or sum(sigma) != deg + sum(beta):
        return 0
    total = 0
    for nu in partitions(deg, max_len=len(alpha) or 1):
        c1 = lr3(alpha, r1, nu)
        if c1:
            total += c1 * lr3(sigma, beta, nu)
    return total


def lr_product_coefficient(lam, rects) -> int:
    """Coefficient of s_lam in the product of the s_{R_i}: iterated LR rule."""
    lam = trim(lam)
    state = {(): 1}
    for r in rects:
        r = trim(r)
        new: dict[Vec, int] = {}
        for sigma, mult in state.items():
            size = sum(sigma) + sum(r)
            for tau in partitions_containing(sigma, size, max_len=len(lam) or 1):
                c = lr3(tau, sigma, r)
                if c:
                    new[tau] = new.get(tau, 0) + mult * c
        state = new
        if not state:
            return 0
    return state.get(lam, 0)


def k_at_one(lam, rseq: RectSequence) -> int:
    """The q = 1 specialization: the LR coefficient of the block product."""
    return lr_product_coefficient(lam, rseq.rects)


# ---------------------------------------------------------------------------
# engine A: the q-analogue of the Kostant partition function


@cache
def _block_targets(eta):
    """For each 1-based position, the positions it can send flow to."""
    bounds = block_bounds(eta)
    n = sum(eta)
    targets = {}
    for k, (a, b) in enumerate(bounds):
        for i in range(a, b + 1):
            targets[i] = tuple(range(b + 1, n + 1))
    return targets


@cache
def _weak_comps(n, k):
    if k == 0:
        return ((),) if n == 0 else ()
    if k == 1:
        return ((n,),)
    return tuple(
        (first,) + rest
        for first in range(n + 1)
        for rest in _weak_comps(n - first, k - 1)
    )


@cache
def _kostant_count(eta, i, state) -> QPoly:
    """Sum of q^(total flow) over root multiplicity assignments.

    ``state[j]`` is the required outflow of position i+j (demands with the
    inflows from positions < i already folded in).  Flow only travels to
    strictly later blocks.
    """
    n = sum(eta)
    if i > n:
        return ONE
    out = state[0]
    if out < 0:
        return ZERO
    targets = _block_targets(eta)[i]
    if not targets:
        if out:
            return ZERO
        return _kostant_count(eta, i + 1, state[1:])
    total = ZERO
    first = targets[0]
    for comp in _weak_comps(out, len(targets)):
        nxt = list(state[1:])
        for k, amount in enumerate(comp):
            if amount:
                nxt[first - i - 1 + k] += amount
        total = total + _kostant_count(eta, i + 1, tuple(nxt))
    return QPoly.term(out) * total


def kostant_q(eta, demand) -> QPoly:
    """Sum of q^|m| over maps m from the block root set to N with
    sum of m(i,j) (e_i - e_j) equal to ``demand``."""
    eta, demand = tuple(eta), tuple(demand)
    if sum(demand) != 0:
        return ZERO
    n = len(demand)
    # every root use strictly lowers this functional, so negative means empty
    if sum((n - k - 1) * v for k, v in enumerate(demand)) < 0:
        return ZERO
    return _kostant_count(eta, 1, demand)


def _root_flow_arrangements(lam_rho, gamma_rho, first_block):
    """Yield (sign, demand) for the arrangements of ``lam_rho`` whose demand
    ``arrangement - gamma_rho`` can be a root flow.

    Every root e_i - e_j has i < j, so each prefix sum of the demand is the
    flow leaving the first positions and must be nonnegative; positions of
    the first block receive no inflow, so their demand is nonnegative.
    ``lam_rho`` is strictly decreasing, so each arrangement is one w and its
    sign counts the pairs placed out of order.
    """
    n = len(lam_rho)
    used = [False] * n
    demand = [0] * n

    def place(p, prefix, inversions):
        if p == n:
            yield (-1 if inversions % 2 else 1), tuple(demand)
            return
        for k in range(n):
            if used[k]:
                continue
            d = lam_rho[k] - gamma_rho[p]
            if prefix + d < 0 or (p < first_block and d < 0):
                continue
            used[k] = True
            demand[p] = d
            yield from place(p + 1, prefix + d, inversions + sum(used[k + 1:]))
            used[k] = False

    yield from place(0, 0, 0)


def k_by_kostant(idx: KIndex) -> QPoly:
    """Engine A: alternating sum over W of q-counted root decompositions,
    walking only the arrangements whose demand can be a root flow."""
    lam, gamma, eta = idx.lam, idx.gamma, idx.eta
    if not is_weakly_decreasing(lam):
        raise ValueError(f"lambda must be dominant, got {lam}")
    if sum(lam) != sum(gamma):
        return ZERO
    n = idx.n
    lam_rho = vec_add(lam, rho(n))
    gamma_rho = vec_add(gamma, rho(n))
    total = ZERO
    for sign, d in _root_flow_arrangements(lam_rho, gamma_rho, eta[0] if eta else 0):
        part = kostant_q(eta, d)
        if part:
            total = total + part * sign
    return total


# ---------------------------------------------------------------------------
# engine B: the block-peeling recurrence


def coset_reps(lam, m: int):
    """Minimal coset data for splitting off the first m positions.

    One entry per m-subset of positions of lam + rho: (sign, alpha, beta)
    where (alpha, beta) are the first m and last n-m parts of
    w^{-1}(lam + rho) - rho.
    """
    lam = tuple(lam)
    n = len(lam)
    if not is_weakly_decreasing(lam):
        raise ValueError(f"lambda must be dominant, got {lam}")
    v = vec_add(lam, rho(n))
    out = []
    for subset in itertools.combinations(range(n), m):
        rest = [i for i in range(n) if i not in subset]
        xi = vec_sub(tuple(v[i] for i in itertools.chain(subset, rest)), rho(n))
        crossings = sum(1 for i in subset for j in rest if j < i)
        out.append((-1 if crossings % 2 else 1, xi[:m], xi[m:]))
    return out


@cache
def _k_rec(lam: Vec, key) -> QPoly:
    rseq = RectSequence(*key)
    if rseq.t == 0:
        return ONE if not any(lam) else ZERO
    if rseq.t == 1:
        return ONE if trim(lam) == trim(rseq.rects[0]) else ZERO
    m = rseq.eta[0]
    r1 = trim(rseq.rects[0])
    n = rseq.n
    tail = rseq.tail()
    total = ZERO
    for sign, alpha, beta in coset_reps(lam, m):
        if any(x < 0 for x in alpha):
            continue
        if len(r1) > m or any(r1[i] > alpha[i] for i in range(len(r1))):
            continue
        deg = sum(alpha) - sum(r1)
        acc = ZERO
        for sigma in partitions_containing(beta, deg + sum(beta), n - m):
            c = lr_skew_times_row(sigma, alpha, r1, trim(beta))
            if c:
                acc = acc + c * _k_rec(pad(sigma, n - m), tail.key())
        if acc:
            total = total + QPoly.term(deg, sign) * acc
    return total


def k_by_recurrence(lam, rseq: RectSequence) -> QPoly:
    """Engine B: peel the first block with coset data and skew LR numbers."""
    lam = pad(lam, rseq.n)
    if not is_weakly_decreasing(lam) or (lam and lam[-1] < 0):
        raise ValueError(f"lambda must be a partition, got {lam}")
    if not rseq.all_partitions():
        raise ValueError(f"every block of {rseq} must be a partition")
    if sum(lam) != sum(rseq.gamma):
        return ZERO
    return _k_rec(lam, rseq.key())


# ---------------------------------------------------------------------------
# engine C: series expansion of the generating function


def staircase_functional(v) -> int:
    n = len(v)
    return sum((n - k - 1) * x for k, x in enumerate(v))


def default_degree_bound(lam, gamma) -> int:
    """Largest attainable q-degree for the coefficient of s_lam.

    Every root use strictly decreases the staircase functional, and the
    identity rearrangement maximizes it over the orbit of lam + rho.
    """
    return staircase_functional(vec_sub(lam, gamma))


def series_monomials(gamma, eta, bound: int) -> dict[Vec, QPoly]:
    """Expand the root product against x^gamma up to q-degree ``bound``.

    Returns monomial exponent vectors with their q-polynomials; exact for
    every s_lam whose attainable degree is at most ``bound``.
    """
    gamma = tuple(gamma)
    states: dict[Vec, QPoly] = {gamma: ONE}
    for (i, j) in sorted(roots_of(eta)):
        new: dict[Vec, QPoly] = {}
        for v, poly in states.items():
            floor = min(poly.coeffs)
            for k in range(bound - floor + 1):
                clipped = QPoly(
                    {e + k: c for e, c in poly.coeffs.items() if e + k <= bound}
                )
                if not clipped:
                    break
                vv = list(v)
                vv[i - 1] += k
                vv[j - 1] -= k
                key = tuple(vv)
                new[key] = new.get(key, ZERO) + clipped
        states = new
    return states


def series_decomposition(gamma, eta, bound: int) -> dict[Vec, QPoly]:
    """All coefficients K(lambda) at once, by monomial straightening."""
    out: dict[Vec, QPoly] = {}
    for alpha, poly in series_monomials(gamma, eta, bound).items():
        res = bott_straighten(alpha)
        if res is None:
            continue
        sign, lam = res
        out[lam] = out.get(lam, ZERO) + poly * sign
    return {lam: p for lam, p in out.items() if p}


def k_by_series(idx: KIndex, degree_bound: int | None = None) -> QPoly:
    """Engine C: expand the generating function and straighten monomials."""
    lam, gamma, eta = idx.lam, idx.gamma, idx.eta
    if not is_weakly_decreasing(lam):
        raise ValueError(f"lambda must be dominant, got {lam}")
    if sum(lam) != sum(gamma):
        return ZERO
    if degree_bound is None:
        degree_bound = default_degree_bound(lam, gamma)
    if degree_bound < 0:
        return ZERO
    return series_decomposition(gamma, eta, degree_bound).get(lam, ZERO)


# ---------------------------------------------------------------------------
# engine D: charge over catabolizable tableaux


PROVEN = "proven"
CONJECTURAL = "conjectural"


def charge_engine_status(rseq: RectSequence) -> str:
    """Provenance label: proven for hooks, two blocks, or full-column blocks
    over weakly decreasing block sizes; otherwise conjectural."""
    eta = rseq.eta
    if rseq.t <= 2:
        return PROVEN
    if all(e == 1 for e in eta[1:]):
        return PROVEN
    if is_weakly_decreasing(eta) and all(x == 1 for x in rseq.gamma):
        return PROVEN
    return CONJECTURAL


@dataclass(frozen=True)
class ChargeResult:
    poly: QPoly
    status: str


def k_by_charge(lam, rseq: RectSequence) -> ChargeResult:
    """Engine D: the charge generating function over catabolizable tableaux."""
    if not rseq.is_dominant():
        raise ValueError(f"the block sequence must be dominant: {rseq.gamma}")
    lam = trim(lam)
    total = ZERO
    for t in enumerate_catabolizable(lam, rseq):
        total = total + QPoly.term(charge_tableau(t))
    return ChargeResult(total, charge_engine_status(rseq))


def kostka_foulkes(lam, mu) -> QPoly:
    """Charge generating function over CST(lam, mu)."""
    total = ZERO
    for t in straight_cst(trim(lam), tuple(mu)):
        total = total + QPoly.term(charge_tableau(t))
    return total


def cocharge_kostka(lam, mu) -> QPoly:
    """Cocharge generating function over CST(lam, mu)."""
    total = ZERO
    for t in straight_cst(trim(lam), tuple(mu)):
        total = total + QPoly.term(cocharge_tableau(t))
    return total


def standard_cocharge_sum(lam, mu) -> QPoly:
    """Cocharge sum over standard tableaux whose catabolism type dominates mu."""
    lam, mu = trim(lam), trim(mu)
    total = ZERO
    for t in straight_cst(lam, (1,) * sum(lam)):
        if dominates(catabolism_type(t), mu):
            total = total + QPoly.term(cocharge_tableau(t))
    return total


def two_rectangle_formula(lam, r1, r2) -> QPoly:
    """Closed form for a two-block sequence: a q-power times a skew LR number."""
    r1, r2 = tuple(r1), tuple(r2)
    m = len(r1)
    lam = trim(lam)
    if len(lam) > m + len(r2):
        return ZERO
    lam = pad(lam, m + len(r2))
    alpha, beta = lam[:m], lam[m:]
    c = lr_skew_times_row(trim(r2), trim(alpha), trim(r1), trim(beta))
    if not c:
        return ZERO
    return QPoly.term(sum(alpha) - sum(r1), c)


# ---------------------------------------------------------------------------
# dispatch and identities


ENGINES = ("kostant", "recurrence", "series", "charge")


def compute(idx: KIndex, engine: str = "recurrence", degree_bound=None):
    """Normalize the index and run one engine; returns (QPoly, status)."""
    norm = idx.normalized()
    if norm is None:
        return ZERO, "exact"
    sign, nidx = norm
    if engine == "kostant":
        return k_by_kostant(nidx) * sign, "exact"
    if engine == "series":
        return k_by_series(nidx, degree_bound) * sign, "exact"
    if engine == "recurrence":
        return k_by_recurrence(nidx.lam, nidx.rects()) * sign, "exact"
    if engine == "charge":
        res = k_by_charge(nidx.lam, nidx.rects())
        return res.poly * sign, res.status
    raise ValueError(f"unknown engine {engine!r} (expected one of {ENGINES})")


def dual_index(idx: KIndex) -> KIndex:
    """Contragredient dual: negate-reverse both weights, reverse the blocks."""
    def star(v):
        return tuple(-x for x in reversed(v))

    return KIndex(star(idx.lam), star(idx.gamma), tuple(reversed(idx.eta)))


def dominant_reorderings(rseq: RectSequence):
    """All orderings of the blocks that keep the concatenation dominant."""
    seen = set()
    for perm in itertools.permutations(rseq.rects):
        if perm in seen:
            continue
        seen.add(perm)
        cand = from_rects(perm)
        if cand.is_dominant():
            yield cand
