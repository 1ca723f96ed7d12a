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

from dataclasses import dataclass

from .catabolism import enumerate_catabolizable, is_catabolizable
from .charge import charge_tableau
from .crystal import lattice_violation, raising, reflection, refill
from .kpoly import QPoly, ZERO, k_by_recurrence
from .shapes import (
    RectSequence,
    Vec,
    adjacent_transposition,
    identity_perm,
    pad,
    partitions,
    perm_apply,
    perm_inverse,
    perm_mul,
    perm_sign,
    rho,
    trim,
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


@dataclass(frozen=True)
class SignedTriple:
    w: Vec
    t: Tableau
    u: Tableau


class InvolutionContext:
    """All data attached to one dominant index (lambda, R)."""

    def __init__(self, lam, rseq: RectSequence):
        if not rseq.is_dominant():
            raise ValueError(f"the block sequence must be dominant: {rseq}")
        self.rseq = rseq
        self.n = rseq.n
        self.m = rseq.eta[0]
        self.gamma = rseq.gamma
        self.lam = pad(lam, self.n)
        self.r1 = rseq.rects[0]
        self.gamma_hat = self.gamma[self.m:]
        self.t_content = (0,) * self.m + self.gamma_hat

    def xi(self, w) -> Vec:
        return vec_sub(
            perm_apply(perm_inverse(w), vec_add(self.lam, rho(self.n))),
            rho(self.n),
        )

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
        v = [None] * n
        for j in range(1, n - m + 1):
            v[m + j - 1] = words[j - 1]
        for i in range(1, m + 1):
            v[i - 1] = (i,) * self.gamma[i - 1] + words[n - m + i - 1]
        p, q = column_rsk(v)
        return triple.w, p, q

    def contract(self, w, p: Tableau, q: Tableau) -> SignedTriple:
        """Invert :meth:`expand`; raises when (w, p, q) is not in the image."""
        n, m = self.n, self.m
        v = column_rsk_inverse(p, q, labels=list(range(1, n + 1)))
        words = [None] * n
        for i in range(1, m + 1):
            head, tail = v[i - 1][: self.gamma[i - 1]], v[i - 1][self.gamma[i - 1]:]
            if head != (i,) * self.gamma[i - 1]:
                raise ValueError(f"word {v[i-1]} does not start with {i}^gamma_{i}")
            words[n - m + i - 1] = tail
        for j in range(1, n - m + 1):
            words[j - 1] = v[m + j - 1]
        t, u = column_rsk(words)
        return SignedTriple(w, t, u)

    # -- the cancelling step -------------------------------------------------

    def step(self, w, p: Tableau, q: Tableau):
        """One application of the cancelling involution on (w, P, Q).

        Returns None on a fixed point (lattice Q), else (w s_r, P, Q') with
        Q' the reflection of the raising of Q at the violation letter.
        """
        qw = q.word()
        r = lattice_violation(qw)
        if r is None:
            return None
        w2 = perm_mul(w, adjacent_transposition(self.n, r))
        lifted = raising(qw, r)
        if lifted is None:
            raise RuntimeError("violation letter must be unpaired above r")
        q2 = refill(q, reflection(lifted, r))
        return w2, p, q2

    def theta(self, triple: SignedTriple):
        """The involution on triples; None marks a fixed point."""
        w, p, q = self.expand(triple)
        stepped = self.step(w, p, q)
        if stepped is None:
            return None
        return self.contract(*stepped)

    # -- enumeration ---------------------------------------------------------

    def tableau_in_catabolizable_side(self, t: Tableau) -> bool:
        return is_catabolizable(t.relabel(-self.m), self.rseq.tail())

    def _nonnegative_u_perms(self):
        """The w whose U-content is nonnegative, in lexicographic order.

        Since ``xi(w)[k] = (lam+rho)[w(k)-1] - rho[k]``, the U-content is
        nonnegative exactly when each position k holds an entry of lam+rho of
        at least ``rho[k] + r1[k]`` (r1 padded by zeros past the first block).
        lam+rho is strictly decreasing, so position k admits exactly the
        values ``1..caps[k]``; the walk fills positions in order and tries
        only those.
        """
        n = self.n
        lam_rho = vec_add(self.lam, rho(n))
        caps = [
            sum(1 for x in lam_rho if x >= floor)
            for floor in vec_add(rho(n), pad(self.r1, n))
        ]
        used = [False] * (n + 1)
        w = [0] * n

        def place(k):
            if k == n:
                yield tuple(w)
                return
            for v in range(1, caps[k] + 1):
                if used[v]:
                    continue
                used[v] = True
                w[k] = v
                yield from place(k + 1)
                used[v] = False

        yield from place(0)

    def triples(self):
        """All triples of the index with T on the catabolizable side.

        Only the w with a nonnegative U-content are visited, and each shape's
        list of catabolizable T is built once, on first use.
        """
        shapes = partitions(sum(self.gamma_hat), max_len=self.n)
        t_lists: dict[Vec, list[Tableau]] = {}
        for w in self._nonnegative_u_perms():
            cu = self.u_content(w)
            for shape in shapes:
                ts = t_lists.get(shape)
                if ts is None:
                    ts = t_lists[shape] = [
                        t
                        for t in straight_cst(shape, self.t_content)
                        if self.tableau_in_catabolizable_side(t)
                    ]
                if not ts:
                    continue
                us = straight_cst(shape, cu)
                for t in ts:
                    for u in us:
                        yield SignedTriple(w, t, u)


@dataclass(frozen=True)
class InvolutionReport:
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
    identity = identity_perm(ctx.n)
    superstandard = yamanouchi_tableau(lam)

    signed_sum = ZERO
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
        signed_sum = signed_sum + QPoly.term(exponent, perm_sign(triple.w))

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
        if not ctx.tableau_in_catabolizable_side(other.t):
            escapes.append(triple)

    for x, y in images.items():
        back = images.get(y)
        if back is None:
            # y escaped the catabolizable side; apply the map directly
            back = ctx.theta(y)
        if back != x:
            involution_ok = False

    ct = enumerate_catabolizable(trim(lam), rseq)
    bijection_ok = sorted(fixed, key=lambda t: t.word()) == sorted(
        ct, key=lambda t: t.word()
    )
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
