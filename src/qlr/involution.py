"""The triple re-encoding map and the cancelling involution.

A signed triple (w, T, U) pairs a permutation with two equal-shape
column-strict tableaux: T in the alphabet above the first block, U with
content read off w.  The re-encoding map inverts column RSK on (T, U) with a
rotated word indexing, prepends i^(gamma_i) to the first-block words, and
re-runs RSK to get a pair (P, Q).  On that side the cancelling step fixes
pairs with lattice Q and otherwise flips w by the simple reflection at the
rightmost lattice violation of Q while moving Q within its string.

Triples are enumerated by a walk that visits only the permutations with a
nonnegative U-content, never all n! of them.  The report at the bottom drives
the whole construction over every triple and checks: the involution property,
sign reversal, weight preservation, the charge shift of the re-encoding, the
bijection between fixed points and catabolizable tableaux, stability of the
catabolizable side (escapes are reported, not asserted), and agreement of the
signed sum with the recurrence engine.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import product
from typing import NamedTuple

from .catabolism import catabolizable_by_shape, enumerate_catabolizable
from .charge import charge_tableau
from .crystal import _involute_at, _rightmost_failure, refill
from .kpoly import QPoly, k_by_recurrence
from .shapes import (
    RectSequence,
    Vec,
    is_partition,
    pad,
    perm_sign,
    rho,
    vec_add,
    vec_sub,
)
from .tableaux import (
    Tableau,
    column_rsk,
    column_rsk_inverse,
    straight_cst,
    yamanouchi_tableau,
)


class SignedTriple(NamedTuple):
    w: Vec
    t: Tableau
    u: Tableau


class InvolutionContext:
    """All data attached to one dominant index (lambda, R)."""

    def __init__(self, lam, rseq: RectSequence):
        if not is_partition(rseq.gamma):
            raise ValueError(f"the block sequence must be dominant and nonnegative: {rseq}")
        self.rseq = rseq
        self.n = rseq.n
        self.m = rseq.eta[0]
        self.gamma = rseq.gamma
        self.lam = pad(lam, self.n)
        self.r1 = self.gamma[:self.m]
        self.lam_rho = vec_add(self.lam, rho(self.n))

    @cached_property
    def ts_by_shape(self):
        """The T on the catabolizable side as ordered sets, by shape in partitions
        order; walked on first use, so an index with no triple never walks it."""
        return {shape: dict.fromkeys(t.relabel(self.m) for t in ts)
                for shape, ts in catabolizable_by_shape(self.rseq.tail()).items()}

    def xi(self, w) -> Vec:
        return vec_sub([self.lam_rho[x - 1] for x in w], rho(self.n))

    def u_content(self, w):
        """Content vector of U for this w, or None when no U can exist."""
        xi = self.xi(w)
        alpha, beta = xi[: self.m], xi[self.m:]
        cu = beta + tuple(a - r for a, r in zip(alpha, self.r1))
        if any(x < 0 for x in cu):
            return None
        return cu

    def weight_exponent(self, w, t: Tableau) -> int:
        xi = self.xi(w)
        return sum(xi[: self.m]) - sum(self.r1) + charge_tableau(t)

    # -- the re-encoding map -------------------------------------------------

    def expand(self, triple: SignedTriple):
        """Map (w, T, U) to (w, P, Q)."""
        n, m = self.n, self.m
        words = column_rsk_inverse(triple.t, triple.u)
        words += [()] * (n - len(words))
        # the first m words carry the heads i^gamma_i, the rest follow
        heads = [(i,) * g + w for i, (g, w) in enumerate(zip(self.gamma, words[n - m:]), 1)]
        p, q = column_rsk(heads + words[:n - m])
        return triple.w, p, q

    def contract(self, w, p: Tableau, q: Tableau) -> SignedTriple:
        """Invert :meth:`expand`; raises when (w, p, q) is not in the image."""
        m = self.m
        v = column_rsk_inverse(p, q, labels=list(range(1, self.n + 1)))
        tails = []
        for i, (g, word) in enumerate(zip(self.gamma, v[:m]), 1):
            if word[:g] != (i,) * g:
                raise ValueError(f"word {word} does not start with {i}^gamma_{i}")
            tails.append(word[g:])
        t, u = column_rsk(v[m:] + tails)
        return SignedTriple(w, t, u)

    # -- the cancelling step -------------------------------------------------

    def step(self, w, p: Tableau, q: Tableau):
        """One application of the cancelling involution on (w, P, Q).

        Returns None on a fixed point (lattice Q), else (w s_r, P, Q') with
        Q' the reflection of the raising of Q at the violation letter r,
        which is the lattice involution with mu = ().
        """
        qw = q.word()
        if (found := _rightmost_failure(qw, ())) is None:
            return None
        r = found[1]
        w2 = w[:r - 1] + (w[r], w[r - 1]) + w[r + 1:]  # w s_r
        return w2, p, refill(q, _involute_at(qw, *found))

    def theta(self, triple: SignedTriple):
        """The involution on triples; None marks a fixed point."""
        w, p, q = self.expand(triple)
        stepped = self.step(w, p, q)
        if stepped is None:
            return None
        return self.contract(*stepped)

    # -- enumeration ---------------------------------------------------------

    def _nonnegative_u_perms(self):
        """The w whose U-content is nonnegative, in lexicographic order.

        Since ``xi(w)[k] = (lam+rho)[w(k)-1] - rho[k]``, the U-content is
        nonnegative exactly when each position k holds an entry of lam+rho of
        at least ``rho[k] + r1[k]`` (r1 padded by zeros past the first block).
        lam+rho is strictly decreasing, so position k admits exactly the
        values ``1..caps[k]``; for a partition gamma the floors strictly
        decrease and ``caps`` weakly increases, so the earlier positions hold
        k of ``1..caps[k]`` and position k takes the j-th smallest value left,
        for j < caps[k] - k.
        """
        n = self.n
        caps = [
            sum(1 for x in self.lam_rho if x >= floor)
            for floor in vec_add(rho(n), pad(self.r1, n))
        ]
        for picks in product(*(range(c - k) for k, c in enumerate(caps))):
            free = list(range(1, n + 1))
            yield tuple(free.pop(j) for j in picks)

    def triples(self):
        """All triples of the index with T on the catabolizable side; only the
        w with a nonnegative U-content are visited."""
        for w in self._nonnegative_u_perms():
            cu = self.u_content(w)
            for shape, ts in self.ts_by_shape.items():
                us = straight_cst(shape, cu)
                for t in ts:
                    for u in us:
                        yield SignedTriple(w, t, u)


class InvolutionReport(NamedTuple):
    lam: Vec
    eta: Vec
    gamma: Vec
    triple_count: int
    signed_sum: QPoly
    engine_poly: QPoly
    matches_engine: bool
    involution_ok: bool
    weight_preserved: bool
    charge_shift_ok: bool
    fixed_points: tuple[Tableau, ...]
    bijection_ok: bool
    escapes: tuple[SignedTriple, ...]

    @property
    def ok(self) -> bool:
        return (
            self.matches_engine
            and self.involution_ok
            and self.weight_preserved
            and self.charge_shift_ok
            and self.bijection_ok
            and not self.escapes
        )


def verify_involution(lam, rseq: RectSequence) -> InvolutionReport:
    """Run the whole cancellation argument for one dominant index."""
    ctx = InvolutionContext(lam, rseq)
    lam = ctx.lam
    identity = tuple(range(1, ctx.n + 1))
    superstandard = yamanouchi_tableau(lam)

    signed: Counter[int] = Counter()
    involution_ok = True
    weight_ok = True
    shift_ok = True
    fixed = []
    escapes = []
    count = 0
    images: dict[SignedTriple, SignedTriple] = {}

    for triple in ctx.triples():
        count += 1
        exponent = ctx.weight_exponent(triple.w, triple.t)
        signed[exponent] += perm_sign(triple.w)

        w, p, q = ctx.expand(triple)
        # the re-encoding shifts charge by the first-block defect
        if charge_tableau(p) != exponent:
            shift_ok = False
        stepped = ctx.step(w, p, q)
        if stepped is None:
            if w != identity or q != superstandard:
                involution_ok = False
            fixed.append(p)
            continue
        other = ctx.contract(*stepped)
        images[triple] = other
        if perm_sign(other.w) != -perm_sign(triple.w):
            involution_ok = False
        if ctx.weight_exponent(other.w, other.t) != exponent:
            weight_ok = False
        if other.t not in ctx.ts_by_shape.get(other.t.outer, ()):
            escapes.append(triple)

    for x, y in images.items():
        back = images.get(y)
        if back is None:
            # y escaped the catabolizable side; apply the map directly
            back = ctx.theta(y)
        if back != x:
            involution_ok = False

    signed_sum = QPoly(signed)
    # enumerate_catabolizable lists by reading word
    ct = enumerate_catabolizable(lam, rseq)
    bijection_ok = sorted(fixed, key=Tableau.word) == list(ct)
    engine = k_by_recurrence(lam, rseq)

    return InvolutionReport(
        lam=lam,
        eta=rseq.eta,
        gamma=rseq.gamma,
        triple_count=count,
        signed_sum=signed_sum,
        engine_poly=engine,
        matches_engine=signed_sum == engine,
        involution_ok=involution_ok,
        weight_preserved=weight_ok,
        charge_shift_ok=shift_ok,
        fixed_points=tuple(fixed),
        bijection_ok=bijection_ok,
        escapes=tuple(escapes),
    )
