"""The q-analogue polynomials of Littlewood-Richardson coefficients.

Four independent engines compute the same family K(lambda, gamma, eta):

* ``k_by_kostant``     -- alternating sum over the symmetric group of
                          q-counted root flows, as one signed walk over the
                          positions that places an entry of lambda + rho and
                          its outflow together, so arrangements that agree
                          on what is left share its count, kept in one table
                          per eta across calls;
* ``k_by_recurrence``  -- the block-peeling recurrence driven by minimal
                          coset representatives and skew LR coefficients;
* ``k_by_series``      -- direct expansion of the product generating
                          function, keeping only the monomials whose
                          alpha + rho can still reach lambda + rho, each
                          straightened with integer coefficients;
* ``k_by_charge``      -- the charge generating function over catabolizable
                          tableaux (proven in special cases, otherwise
                          conjectural; the result carries that label).

The module also houses the counting oracles (Kostka numbers, LR
coefficients, the latter counting lattice fillings cell by cell without
building tableaux) and the generating-function identities around cocharge.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from functools import cache
from operator import add, ge, le
from typing import NamedTuple

from .catabolism import catabolism_type, catabolizable_by_shape, enumerate_catabolizable
from .charge import charge_tableau, cocharge_grade
from .shapes import (
    RectSequence,
    Vec,
    block_starts,
    dominates,
    from_rects,
    is_partition,
    is_weakly_decreasing,
    pad,
    partitions_containing,
    perm_sign,
    rho,
    roots_of,
    straighten,
    trim,
    vec_add,
    vec_sub,
)
from .tableaux import standard_tableaux, straight_cst


class QPoly:
    """A polynomial in q with (possibly negative) integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cc = {e: c for e, c in coeffs.items() if c} if coeffs else {}
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
        """The inverse of ``to_json``; ValueError unless every coefficient is an
        int and every key a nonnegative exponent written as ``to_json`` writes it."""
        coeffs = data["coeffs"]
        if not all(type(c) is int for c in coeffs.values()):
            raise ValueError(f"coefficients must be integers: {coeffs}")
        out = {int(k): c for k, c in coeffs.items()}
        # equal only when str(int(k)) == k for every key: no two keys name one exponent
        if list(map(str, out)) != list(coeffs) or min(out, default=0) < 0:
            raise ValueError(f"exponents must be nonnegative integers: {coeffs}")
        return QPoly(out)


ZERO = QPoly()
ONE = QPoly({0: 1})


class KIndex(namedtuple("KIndex", "lam gamma eta")):
    """An index triple (lambda, gamma, eta) with len(gamma) = sum(eta)."""

    __slots__ = ()

    def __new__(cls, lam, gamma, eta):
        idx = super().__new__(cls, tuple(lam), tuple(gamma), tuple(eta))
        if sum(idx.eta) != len(idx.gamma) or len(idx.lam) != len(idx.gamma):
            raise ValueError(f"inconsistent index {idx}")
        if any(e <= 0 for e in idx.eta):
            raise ValueError(f"eta parts must be positive: {idx.eta}")
        return idx

    @property
    def n(self) -> int:
        return len(self.gamma)

    def rects(self) -> RectSequence:
        return RectSequence._make((self.eta, self.gamma))

    def normalized(self):
        """(sign, normalized index) or None when the polynomial is zero.

        Straightens lambda and every block of gamma, then shifts all entries
        to be nonnegative: the result has a partition lambda and partition
        blocks, its polynomial times ``sign`` is this one's, and it is its
        own normalization with sign 1.
        """
        # no length check: len(lam) = len(gamma) = sum(eta) by construction
        if sum(self.lam) != sum(self.gamma):
            return None
        starts = block_starts(self.eta)
        sign, straight = 1, []
        for piece in [self.lam, *(self.gamma[a:b] for a, b in itertools.pairwise(starts))]:
            if (res := straighten(piece)) is None:
                return None
            sign *= res[0]
            straight.append(res[1])
        lam, *blocks = straight
        gamma = tuple(itertools.chain.from_iterable(blocks))
        shift = -min((0, *lam, *gamma))
        return sign, KIndex._make((tuple(x + shift for x in lam),
                                   tuple(x + shift for x in gamma), self.eta))


# ---------------------------------------------------------------------------
# the counting oracles


def kostka_number(shape, alpha) -> int:
    """Number of column-strict tableaux of the given shape and content."""
    return len(straight_cst(trim(shape), tuple(alpha)))


@cache
def lr_coefficient(outer, inner, lam, mu) -> int:
    """Inner product of the skew Schur functions outer/inner and lam/mu.

    Counts mu-lattice column-strict tableaux of shape outer/inner and
    content lam - mu, filling the cells in the order the lattice condition
    reads them, top row first and each row right to left: a cell takes
    letters from the cell above + 1 up to its right neighbour, and a letter
    x goes in only while some of its content is left and mu_x plus the x's
    placed stays below that count for x - 1 (Fulton, Young Tableaux, 5).
    """
    outer, inner, lam, mu = shapes = trim(outer), trim(inner), trim(lam), trim(mu)
    if not all(map(is_partition, shapes)):
        raise ValueError(f"not skew shapes: {outer}/{inner} and {lam}/{mu}")
    if len(inner) > len(outer) or any(inner[i] > outer[i] for i in range(len(inner))):
        return 0
    if sum(outer) - sum(inner) != sum(lam) - sum(mu):
        return 0
    ln = max(len(lam), len(mu))
    left = list(vec_sub(pad(lam, ln), pad(mu, ln)))
    if any(x < 0 for x in left):
        return 0
    counts = [float("inf"), *pad(mu, ln)]  # mu_x plus the x's placed, at x
    inner = pad(inner, len(outer))
    cells = [(i, j) for i in range(len(outer)) for j in range(outer[i] - 1, inner[i] - 1, -1)]
    # the letters of the current path by cell, read only at cells already
    # filled on it; a neighbour that is not a cell bounds by 0 above, ln right
    filled = {}

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cell = cells[k]
        found = 0
        for x in range(filled.get((i - 1, j), 0) + 1, filled.get((i, j + 1), ln) + 1):
            if left[x - 1] and counts[x] < counts[x - 1]:
                left[x - 1] -= 1
                counts[x] += 1
                filled[cell] = x
                found += fill(k + 1)
                left[x - 1] += 1
                counts[x] -= 1
        return found

    return fill(0)


def lr_product(rects, max_len: int) -> dict[Vec, int]:
    """The product of the s_{R_i} by the iterated LR rule, as
    {partition: coefficient} over the partitions with at most max_len parts."""
    state = {(): 1}
    for r in rects:
        r = trim(r)
        new: dict[Vec, int] = {}
        for sigma, mult in state.items():
            for tau in partitions_containing(sigma, sum(sigma) + sum(r), max_len):
                c = lr_coefficient(tau, sigma, r, ())
                if c:
                    new[tau] = new.get(tau, 0) + mult * c
        state = new
    return state


# ---------------------------------------------------------------------------
# engine A: K = sum over w of sign(w) P_q(w(lam + rho) - (gamma + rho)), where
# P_q(d) sums q^|m| over the maps m from the block roots e_i - e_j (i in an
# earlier block than j) to N with demand sum m(i,j)(e_i - e_j) = d (Kostant).


class _KostantStates(dict):
    """Coefficients by q-degree of the signed flow count from a state of the
    walk for one eta: ``count`` computes one and stores nothing, and a miss
    stores what ``count`` gives.

    A state after positions 0..p-1 is (the entries of lam + rho not yet
    placed, increasing; what each position from p on still needs, its
    (gamma + rho) less its inflow so far).  Arrangements that agree on it
    share its count.  Placing v with k unplaced entries above it has sign
    (-1)^k and outflow v - need_p, which falls with v, so the loop stops at
    the first negative one; the outflow lowers the later blocks' needs.  A
    last-block position only receives and ends up holding its need, so that
    need never drops below the least entry left.  A state is dropped at once
    unless the positions left in p's block can take distinct entries at
    least their needs and the last block distinct entries at most theirs.
    """

    def __init__(self, eta):
        starts = block_starts(eta)
        self.n, self.last = starts[-1], starts[-2] if eta else 0
        # the first position of the block after each position's own
        self.first = [b for a, b in itertools.pairwise(starts) for _ in range(a, b)]

    def __missing__(self, state):
        coeffs = self[state] = self.count(state)
        return coeffs

    def count(self, state):
        values, needs = state
        n, last = self.n, self.last
        top = len(values) - 1
        p = n - 1 - top
        if p >= last:
            # every position left is in the last block and only receives, so
            # it holds its need: one arrangement, when the needs are the entries
            return (perm_sign([-x for x in needs]),) if sorted(needs) == list(values) else ()
        acc = []
        first = self.first[p]
        here = sorted(needs[:first - p])
        if not (all(map(ge, values[len(values) - len(here):], here))
                and all(map(le, values, sorted(needs[last - p:])))):
            return ()
        child = list(needs[1:])

        def spread(j, left):
            # spread ``left`` over the targets first..j, from j inward
            i = j - p - 1
            need = child[i]
            if left and j > first:
                for a in range((min(left, need - low) if j >= last else left) + 1):
                    child[i] = need - a
                    spread(j - 1, left - a)
                child[i] = need
                return
            if j >= last and left > need - low:
                return
            child[i] = need - left
            coeffs = self[rest, tuple(child)]
            child[i] = need
            if coeffs:
                acc.extend([0] * (out + len(coeffs) - len(acc)))
                for d, c in enumerate(coeffs, out):
                    acc[d] += sign * c

        for k in range(top, -1, -1):
            out = values[k] - needs[0]
            if out < 0:
                break
            rest = values[:k] + values[k + 1:]
            low = rest[0]
            sign = -1 if (top - k) % 2 else 1
            spread(n - 1, out)
        return tuple(acc)


# one table of states per eta, kept across calls: the states below the root
# recur across gammas of one eta, many groups apart
@cache
def _kostant_states(eta) -> _KostantStates:
    return _KostantStates(eta)


def k_by_kostant(idx: KIndex) -> QPoly:
    """Engine A: Kostant's alternating sum of q-counted root flows."""
    lam, gamma, eta = idx.lam, idx.gamma, idx.eta
    if not is_weakly_decreasing(lam):
        raise ValueError(f"lambda must be dominant, got {lam}")
    if sum(lam) != sum(gamma):
        return ZERO
    n = len(lam)
    lam_rho = tuple(map(add, reversed(lam), range(n)))
    gamma_rho = tuple(map(add, gamma, range(n - 1, -1, -1)))
    # the root, nothing placed yet, is counted but not kept: it seldom recurs
    coeffs = _kostant_states(eta).count((lam_rho, gamma_rho))
    return QPoly(dict(enumerate(coeffs))) if coeffs else ZERO


# ---------------------------------------------------------------------------
# engine B: the block-peeling recurrence


@cache
def _peel(lam: Vec, r1: Vec) -> tuple:
    """The nonzero first-block terms (deg, sign * c, sigma padded to n - m) at lambda
    (n parts) against R_1 = r1 (m parts): every R that starts with r1 shares them.

    The cosets split off the first m positions of w^{-1}(lam + rho) - rho, and only
    those whose alpha contains r1 are kept.  lam + rho strictly decreases, so position
    k of alpha holds one of its first caps[k] entries, those at least rho_k + r1_k.
    Each chosen position i passes i - k unchosen ones.
    """
    m, n = len(r1), len(lam)
    r1_trim, r1_size = trim(r1), sum(r1)
    lam_rho, rho_n, rho_rest = vec_add(lam, rho(n)), rho(n), rho(n - m)
    caps = [sum(1 for x in lam_rho if x >= floor) for floor in vec_add(rho_n, r1)]
    terms = []
    for chosen in itertools.combinations(range(max(caps, default=0)), m):
        if any(map(ge, chosen, caps)):
            continue
        sign = -1 if (sum(chosen) - m * (m - 1) // 2) % 2 else 1
        alpha = vec_sub((lam_rho[i] for i in chosen), rho_n)
        beta = vec_sub((x for i, x in enumerate(lam_rho) if i not in chosen), rho_rest)
        deg = sum(alpha) - r1_size
        for sigma in partitions_containing(beta, deg + sum(beta), n - m):
            if c := lr_coefficient(sigma, trim(beta), trim(alpha), r1_trim):
                terms.append((deg, sign * c, pad(sigma, n - m)))
    return tuple(terms)


@cache
def _k_rec(lam: Vec, rseq: RectSequence) -> QPoly:
    if rseq.t <= 1:
        return ONE if trim(lam) == trim(rseq.gamma) else ZERO
    tail, total = rseq.tail(), {}
    for deg, c, sigma in _peel(lam, rseq.gamma[:rseq.eta[0]]):
        for e, x in _k_rec(sigma, tail).coeffs.items():
            total[deg + e] = total.get(deg + e, 0) + c * x
    return QPoly(total) if total else ZERO


def k_by_recurrence(lam, rseq: RectSequence) -> QPoly:
    """Engine B: peel the first block with coset data and skew LR numbers; a
    lambda with more parts than positions has coefficient zero."""
    lam = trim(lam)
    if not is_partition(lam):
        raise ValueError(f"lambda must be a partition, got {lam}")
    if not all(map(is_partition, rseq.rects)):
        raise ValueError(f"every block of {rseq} must be a partition")
    if len(lam) > rseq.n or sum(lam) != sum(rseq.gamma):
        return ZERO
    return _k_rec(pad(lam, rseq.n), rseq)


# ---------------------------------------------------------------------------
# engine C: series expansion of the generating function


def default_degree_bound(lam, gamma) -> int:
    """Largest attainable q-degree for the coefficient of s_lam: the
    staircase functional <rho, lam - gamma>.

    Every root use strictly decreases the staircase functional, and the
    identity rearrangement maximizes it over the orbit of lam + rho.
    """
    return sum(k * x for k, x in enumerate(reversed(vec_sub(lam, gamma))))


def series_monomials(gamma, eta, bound: int, values=None) -> dict[Vec, dict[int, int]]:
    """Expand the root product against x^gamma up to q-degree ``bound``.

    Returns monomial exponent vectors with their coefficients by q-degree;
    exact for every s_lam, lam a partition with the entries of lam + rho in
    ``values`` (by default range(|gamma| + n), which holds them for every
    partition of |gamma|), whose attainable degree is at most ``bound``; empty
    when ``bound`` is negative.  Roots are taken in sorted order: from its
    first root (i, .) on position i only gains, and position j can win back
    at most the degree budget left (nothing in the last block).  So the
    k-loop of root (i, j) stops once alpha_i + rho_i passes max(values) or
    alpha_j + rho_j plus that budget is below min(values), and the root
    (i, n) finishes position i: a state is kept only when alpha_i + rho_i is
    in ``values`` and is not a finished value.  Every dropped state
    straightens to zero or to a weight whose lam + rho leaves ``values``.
    """
    gamma = tuple(gamma)
    n = len(gamma)
    if values is None:
        values = range(sum(gamma) + n)
    lo, hi = min(values, default=0), max(values, default=-1)  # empty at n = 0 (no roots)
    states: dict[Vec, dict[int, int]] = {gamma: {0: 1}} if bound >= 0 else {}
    for (i, j) in roots_of(eta):
        in_last = j > n - eta[-1]
        new: dict[Vec, dict[int, int]] = {}
        for v, coeffs in states.items():
            vv = list(v)
            budget = bound - min(coeffs)
            room = v[j - 1] + n - j - lo
            stop = min(budget, hi - v[i - 1] - n + i, room if in_last else (room + budget) // 2)
            finished = {v[k] + n - 1 - k for k in range(i - 1)} if j == n else None
            for k in range(stop + 1):
                top = vv[i - 1] + n - i
                if finished is None or (top in values and top not in finished):
                    acc = new.setdefault(tuple(vv), {})
                    for e, c in coeffs.items():
                        if e + k <= bound:
                            acc[e + k] = acc.get(e + k, 0) + c
                vv[i - 1] += 1
                vv[j - 1] -= 1
        states = new
    return states


def series_decomposition(gamma, eta, bound: int, values=None) -> dict[Vec, QPoly]:
    """All coefficients K(lambda), lambda a partition with lambda + rho in
    ``values``, at once, by monomial straightening."""
    out: dict[Vec, dict[int, int]] = {}
    for alpha, coeffs in series_monomials(gamma, eta, bound, values).items():
        res = straighten(alpha)
        if res is None:
            continue
        sign, lam = res
        acc = out.setdefault(lam, {})
        for e, c in coeffs.items():
            acc[e] = acc.get(e, 0) + sign * c
    return {lam: p for lam, coeffs in out.items() if (p := QPoly(coeffs))}


def k_by_series(idx: KIndex, degree_bound: int | None = None) -> QPoly:
    """Engine C: expand the generating function and straighten monomials."""
    lam, gamma, eta = idx.lam, idx.gamma, idx.eta
    if not is_partition(lam):
        raise ValueError(f"lambda must be a partition, got {lam}")
    if sum(lam) != sum(gamma):
        return ZERO
    if degree_bound is None:
        degree_bound = default_degree_bound(lam, gamma)
    lam_rho = frozenset(map(add, lam, rho(len(lam))))
    return series_decomposition(gamma, eta, degree_bound, lam_rho).get(lam, ZERO)


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


class ChargeResult(NamedTuple):
    poly: QPoly
    status: str


def _generating(stat, tableaux) -> QPoly:
    """The sum of q^stat(t) over the tableaux."""
    return QPoly(Counter(map(stat, tableaux)))


def _charge_polys(rseq: RectSequence) -> dict[Vec, QPoly]:
    """Engine D on every shape at once."""
    return {shape: _generating(charge_tableau, ts)
            for shape, ts in catabolizable_by_shape(rseq).items()}


def k_by_charge(lam, rseq: RectSequence) -> ChargeResult:
    """Engine D: the charge generating function over catabolizable tableaux."""
    if not rseq.is_dominant():
        raise ValueError(f"the block sequence must be dominant: {rseq.gamma}")
    return ChargeResult(_generating(charge_tableau, enumerate_catabolizable(lam, rseq)),
                        charge_engine_status(rseq))


def cocharge_kostka(lam, mu) -> QPoly:
    """Cocharge generating function over CST(lam, mu), mu a partition."""
    if not is_weakly_decreasing(mu := tuple(mu)):
        raise ValueError(f"cocharge needs partition content, got {mu}")
    return _generating(cocharge_grade, straight_cst(trim(lam), mu))


def standard_cocharge_sum(lam, mu) -> QPoly:
    """Cocharge sum over standard tableaux whose catabolism type dominates mu."""
    if not is_weakly_decreasing(mu := trim(mu)):
        raise ValueError(f"cocharge needs partition content, got {mu}")
    tableaux = standard_tableaux(lam)
    if sum(lam) != sum(mu):
        return ZERO
    return _generating(cocharge_grade, (t for t in tableaux if dominates(catabolism_type(t), mu)))


# ---------------------------------------------------------------------------
# dispatch and identities


ENGINES = ("kostant", "recurrence", "series", "charge")


def compute(idx: KIndex, engine: str = "recurrence", degree_bound=None):
    """Normalize the index and run one engine; returns (QPoly, status), the
    status ``truncated`` for a series run below the attainable degree."""
    norm = idx.normalized()
    poly, status = _compute_normalized(norm, engine, degree_bound)
    return (poly * norm[0] if norm else poly), status


def _compute_normalized(norm, engine: str, degree_bound):
    """``compute`` on the normalization ``idx.normalized()`` of an index:
    the (QPoly, status) of the normalized index, before the sign."""
    if norm is None:
        return ZERO, "exact"
    nidx = norm[1]
    if engine == "kostant":
        return k_by_kostant(nidx), "exact"
    if engine == "series":
        truncated = (degree_bound is not None
                     and degree_bound < default_degree_bound(nidx.lam, nidx.gamma))
        return k_by_series(nidx, degree_bound), "truncated" if truncated else "exact"
    if engine == "recurrence":
        return k_by_recurrence(nidx.lam, nidx.rects()), "exact"
    if engine == "charge":
        return k_by_charge(nidx.lam, nidx.rects())
    raise ValueError(f"unknown engine {engine!r} (expected one of {ENGINES})")


def dominant_reorderings(rseq: RectSequence):
    """All orderings of the blocks that keep the concatenation dominant."""
    for perm in dict.fromkeys(itertools.permutations(rseq.rects)):
        cand = from_rects(perm)
        if cand.is_dominant():
            yield cand
