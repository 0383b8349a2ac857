"""The Camina predicates as they were evaluated before the conditions
became one mask per theory: every condition scanned element by element,
and every witness and subject formatted when the verdict was built.

This is the oracle of `superchar.vanishing`: `is_camina_element`,
`is_s_gcp`, `is_camina_triple` and `is_camina_pair` here must give
verdicts whose `to_json()`, `holds`, `agreement` and `vacuous` equal
those of the package's, and `check_ugroupp` must yield the scopes and
hypotheses of the package's T-ugroupp checker, with conclusions that give
the same (holds, witness) whether or not the hypothesis holds.
`u_by_membership` is U(S|N) read element by element, the kernel
intersection that L-ukernel states.
`CaminaVerdict` is the verdict class as it stood, with eager text.
"""

from superchar.groups import cached, element_mask, quotient_group
from superchar.structure import irr_over, is_s_abelian, s_commutator_full, s_normal_subgroups, super_kernel
from superchar.supertheory import (
    SuperTheory,
    deflation,
    is_delta_product,
    non_coset_union,
    require_s_normal,
    star_construct,
)
from superchar.vanishing import escaping_character, u_rel, v_rel
from superchar.verifier import _failing, _sub


class CaminaVerdict:
    """Outcome of a multi-characterization predicate.

    `conditions` holds the independently evaluated equivalent conditions;
    `agreement` is True when they all coincide.  `witnesses` carries
    counterexample payloads for the false conditions.
    """

    __slots__ = ("subject", "holds", "conditions", "agreement", "vacuous", "witnesses")

    def __init__(self, subject: str, holds: bool, conditions: dict[str, bool],
                 vacuous: bool = False, witnesses: dict | None = None):
        self.subject, self.holds, self.conditions = subject, holds, conditions
        self.agreement = len(set(conditions.values())) == 1
        self.vacuous = vacuous
        self.witnesses = {} if witnesses is None else witnesses

    def to_json(self):
        out = {
            "subject": self.subject,
            "holds": self.holds,
            "agreement": self.agreement,
            "conditions": dict(self.conditions),
        }
        if self.vacuous:
            out["vacuous"] = True
        if self.witnesses:
            out["witnesses"] = {k: str(v) for k, v in self.witnesses.items()}
        return out


def _first_outside(S: SuperTheory, N, fails) -> int | None:
    """The first element outside N, in element order, at which fails(g)
    holds, or None."""
    return next((g for g in range(S.group.order) if not N.mask >> g & 1 and fails(g)), None)


@cached
def _differences(S: SuperTheory, g: int) -> int:
    """The mask of g^-1 Cl_S(g), the differences a transversal test needs."""
    row = S.group.mul[S.group.inv[g]]
    return element_mask(row[y] for y in S.superclass(g))


@cached
def is_camina_element(S: SuperTheory, g: int) -> CaminaVerdict:
    """Four independent characterizations of an S-Camina element:
    all of Irr(S|[G,S]) vanish at g; Cl_S(g) = g[G,S]; |Cl_S(g)| = |[G,S]|;
    and every commutator-coset difference is realized inside Cl_S(g)."""
    com = s_commutator_full(S)
    cls = S.superclass(g)
    row = S.group.mul[g]
    witnesses: dict[str, object] = {}

    nonzero = next((sigma for sigma in irr_over(S, com) if not sigma.value_on(g).is_zero()), None)
    if nonzero is not None:
        witnesses["vanishing"] = f"sigma_{nonzero.index}(g) = {nonzero.value_on(g)}"
    coset = frozenset(row[z] for z in com.members)
    class_is_coset = cls == coset
    if not class_is_coset:
        witnesses["class-coset"] = f"Cl_S({g}) = {sorted(cls)}, g[G,S] = {sorted(coset)}"
    size_match = len(cls) == len(com)
    if not size_match:
        witnesses["class-size"] = f"|Cl_S({g})| = {len(cls)}, |[G,S]| = {len(com)}"
    missing = com.mask & ~_differences(S, g)
    if missing:
        witnesses["transversal"] = f"no y in Cl_S({g}) with g^-1 y = {(missing & -missing).bit_length() - 1}"

    conditions = {
        "vanishing": nonzero is None,
        "class-coset": class_is_coset,
        "class-size": size_match,
        "transversal": not missing,
    }
    return CaminaVerdict(
        f"element {g}",
        holds=nonzero is None,
        conditions=conditions,
        witnesses=witnesses,
    )


@cached
def is_s_gcp(S: SuperTheory, N) -> CaminaVerdict:
    """Generalized S-Camina pair (G, N): every element outside N is an
    S-Camina element, with the equivalent vanishing, class-size and
    transversal forms evaluated independently.

    The coset-product form is asserted in the reading "every superclass
    outside N is a union of [G,S]-cosets", available when [G,S] <= N; the
    literal "over N and [G,S]" reading only when N = [G,S], where the two
    coincide.
    """
    require_s_normal(S, N)
    com = s_commutator_full(S)
    witnesses: dict[str, object] = {}

    non_camina = _first_outside(S, N, lambda g: not is_camina_element(S, g).holds)
    if non_camina is not None:
        witnesses["camina-elements"] = f"element {non_camina} is not an S-Camina element"
    wrong_size = _first_outside(S, N, lambda g: len(S.superclass(g)) != len(com))
    if wrong_size is not None:
        witnesses["class-sizes"] = f"|Cl_S({wrong_size})| = {len(S.superclass(wrong_size))} != {len(com)}"
    short = _first_outside(S, N, lambda g: com.mask & ~_differences(S, g))
    if short is not None:
        witnesses["transversal"] = f"element {short} misses a commutator-coset difference"
    escaping = escaping_character(irr_over(S, com), N)
    if escaping:
        witnesses["vanishing"] = f"sigma_{escaping.index} does not vanish off N"

    conditions = {
        "camina-elements": non_camina is None,
        "class-sizes": wrong_size is None,
        "transversal": short is None,
        "vanishing": escaping is None,
    }
    if com.members <= N.members:
        conditions["coset-product"] = is_delta_product(S, com, N)
        if not conditions["coset-product"]:
            witnesses["coset-product"] = "some superclass outside N is not a union of [G,S]-cosets"
    if N.members == com.members:
        conditions["coset-product-literal"] = is_delta_product(S, N, com)
    return CaminaVerdict(
        f"pair (G, {sorted(N.members)})",
        holds=non_camina is None,
        conditions=conditions,
        vacuous=len(N) == S.group.order,
        witnesses=witnesses,
    )


def is_camina_triple(S: SuperTheory, N, M) -> CaminaVerdict:
    """S-Camina triple (G, N, M) with M <= N: five independent conditions,
    led by the defining one (superclasses outside N are unions of
    M-cosets)."""
    require_s_normal(S, N)
    require_s_normal(S, M)
    witnesses: dict[str, object] = {}

    bad = non_coset_union(S, M, N)
    coset = bad is None
    if not coset:
        witnesses["coset-union"] = f"superclass {sorted(bad)} is not a union of M-cosets"
    defl = deflation(S, M)
    _, proj = quotient_group(S.group, M)
    product = lambda g: len(defl.superclass(proj[g])) * len(M)
    wrong_size = _first_outside(S, N, lambda g: len(S.superclass(g)) != product(g))
    if wrong_size is not None:
        witnesses["class-size-product"] = (
            f"|Cl_S({wrong_size})| = {len(S.superclass(wrong_size))}, deflated class times |M| = "
            f"{product(wrong_size)}"
        )
    short = _first_outside(S, N, lambda g: M.mask & ~_differences(S, g))
    if short is not None:
        witnesses["transversal"] = f"element {short} misses an M-difference"
    bound = v_rel(S, M).members <= N.members
    if not bound:
        witnesses["vanishing-bound"] = (
            f"V(S|M) = {sorted(v_rel(S, M).members)} escapes {sorted(N.members)}"
        )
    escaping = escaping_character(irr_over(S, M), N)
    if escaping:
        witnesses["vanishing"] = f"sigma_{escaping.index} does not vanish outside N"
    conditions = {
        "coset-union": coset,
        "class-size-product": wrong_size is None,
        "transversal": short is None,
        "vanishing-bound": bound,
        "vanishing": escaping is None,
    }
    return CaminaVerdict(
        f"triple (G, {sorted(N.members)}, {sorted(M.members)})",
        holds=coset,
        conditions=conditions,
        vacuous=len(N) == S.group.order,
        witnesses=witnesses,
    )


def is_camina_pair(S: SuperTheory, N) -> CaminaVerdict:
    """S-Camina pair (G, N): the coset-product condition of
    `is_delta_product` at M = N, the star construction actually reproducing
    S, V(S|N) = N, and the two-clause character condition.

    The two-clause condition degenerates at N = 1 (no character lies over
    the trivial subgroup), so there it is not asserted.
    """
    require_s_normal(S, N)
    witnesses: dict[str, object] = {}

    bad = non_coset_union(S, N, N)
    coset = bad is None
    if not coset:
        witnesses["coset-union"] = f"superclass {sorted(bad)} is not a union of N-cosets"
    construction = star_construct(S, N) == S
    if not construction:
        witnesses["construction"] = "the star construction over N differs from S"
    vsub = v_rel(S, N).members == N.members
    if not vsub:
        witnesses["vanishing-off"] = f"V(S|N) = {sorted(v_rel(S, N).members)}"
    conditions = {
        "coset-union": coset,
        "construction": construction,
        "vanishing-off": vsub,
    }
    if len(N) > 1:
        over = irr_over(S, N)
        clause_a = _first_outside(S, N, lambda g: any(not sigma.value_on(g).is_zero() for sigma in over)) is None
        clause_b = all(
            any(not sigma.value_on(n).is_zero() for sigma in over) for n in sorted(N.members)
        )
        conditions["two-clause"] = clause_a and clause_b
        if not conditions["two-clause"]:
            witnesses["two-clause"] = f"clause a: {clause_a}, clause b: {clause_b}"
    return CaminaVerdict(
        f"pair (G, {sorted(N.members)})",
        holds=coset,
        conditions=conditions,
        vacuous=len(N) == S.group.order,
        witnesses=witnesses,
    )


def check_ugroupp(S: SuperTheory):
    """The rows of T-ugroupp, each subgroup W tested on its own."""
    subs = s_normal_subgroups(S)

    def failures(N):
        # the vanishing property of W: every member of Irr(S|W) vanishes off N
        U = u_rel(S, N)
        fails = []
        if escaping_character(irr_over(S, U), N):
            fails.append("u-has-property")
        for W in subs:
            if not escaping_character(irr_over(S, W), N) and not W.members <= U.members:
                fails.append(f"maximality-{_sub(W)}")
        return fails

    if is_s_abelian(S):
        yield {}, False, lambda: _failing([f"{_sub(N)}: {fail}" for N in subs for fail in failures(N)])
        return
    for N in subs:
        yield {"n": N}, True, lambda: _failing(failures(N))


def u_by_membership(S: SuperTheory, N) -> frozenset[int]:
    """U(S|N) element by element: g lies in it exactly when every
    supercharacter whose kernel misses g vanishes off N."""
    kernels = [(sigma, super_kernel(sigma).members) for sigma in S.supercharacters()]
    return frozenset(g for g in range(S.group.order)
                     if not escaping_character((sigma for sigma, ker in kernels if g not in ker), N))
