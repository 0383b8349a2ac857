"""Theorem suite: run every structural result against a corpus of theories.

Each theorem is a checker registered with `@theorem(id, description)`.  A
result is an implication, so a checker yields one (scope, hypothesis,
conclusion) row per scope (subgroup, subgroup pair, or element): the
hypothesis True, False or `VACUOUS`, the conclusion a callable that
evaluates both sides of every claimed equivalence independently and gives
(holds, witness).  A checker is the one place its theorem's conclusion is
evaluated: the builders in `structure` and `vanishing` compute values and
check none of them, so a false conclusion fails its own rows, not every
checker that builds the value.  `_encode_rows` alone turns rows into
statuses.  Failures are data, not exceptions; a corpus run over the
default catalog is expected to produce zero fail-status reports, and any
fail is either an implementation bug or a genuine counterexample worth
looking at.
"""

from __future__ import annotations

import gc
import io
import json
import marshal
import os
from contextlib import closing

from .chartab import DEFAULT_MAX_ORDER, character_table_of
from .errors import OrderBoundError
from .groups import SubgroupSet, build_group, quotient_image, release, subgroup_product, trivial_subgroup
from .structure import (
    irr_over,
    is_s_abelian,
    lower_series,
    s_center,
    s_commutator_full,
    s_nilpotence_class,
    s_normal_subgroups,
    super_kernel,
    upper_series,
)
from . import supertheory
from .supertheory import (
    SuperTheory,
    coarsest,
    deflation,
    enumerate_scts,
    finest,
    is_delta_product,
    sigma_orthogonality,
)
from .vanishing import (
    camina_masks,
    escaping_character,
    gcp_holds,
    is_camina_element,
    is_camina_pair,
    is_camina_triple,
    is_s_gcp,
    is_vz,
    nonvanishing_mask,
    scd_check,
    u_chain,
    u_rel,
    u_theory,
    v_rel,
    v_series,
    v_theory,
    vanish_off,
)

DEFAULT_CATALOG = (
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "C2xC2",
    "C8",
    "C2xC4",
    "C2xC2xC2",
    "S3",
    "D4",
    "Q8",
    "D5",
    "D6",
    "A4",
    "C3xC3",
    "D8",
    "Q16",
    "S4",
)


_CHECKERS: dict = {}  # theorem id -> checker, in registration order
VACUOUS = object()  # the hypothesis of a scope where it holds only vacuously: N = G, or Z(S) = G
# the one status rule, (hypothesis, whether the conclusion holds) -> status; where the
# hypothesis fails the conclusion is not called, and whether it holds is None
_STATUS = {
    (False, None): "not-applicable",
    (True, True): "pass",
    (VACUOUS, True): "vacuous",
    (True, False): "fail",
    (VACUOUS, False): "fail",
}
_TAILS: dict = {}  # theorem id -> (hypothesis, holds) -> what follows a row's scope, up to the end of its theorem id
_SUMMARY_KEY = {"pass": "pass", "fail": "fail", "vacuous": "vacuous", "not-applicable": "na"}
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # what json.dumps would build per call


def corpus_json_bytes(data) -> bytes:
    """Canonical JSON encoding of a corpus or of any value in it;
    byte-identical across runs and job counts."""
    return _CANONICAL.encode(data).encode("ascii")


def theorem(tid: str, description: str):
    """Register the decorated checker as theorem `tid`; an id registered
    twice raises.  The suite runs the checkers in registration order."""

    def register(check):
        if tid in _CHECKERS:
            raise ValueError(f"theorem id {tid!r} is registered twice")
        check.description = description
        _CHECKERS[tid] = check
        _TAILS[tid] = {outcome: b'},"status":"%s","theorem_id":%s' % (status.encode(), corpus_json_bytes(tid))
                       for outcome, status in _STATUS.items()}
        return check

    return register


def _sub(H: SubgroupSet) -> list[int]:
    return list(H.sorted_members())


def _failing(failing: list, **witness):
    """The (holds, witness) of a conclusion whose failing checks are named
    in failing; the witness lists them, with any further fields, when
    there are any."""
    return not failing, {"failing": failing, **witness} if failing else None


def _verdict(verdict, agrees: bool = True):
    """The (holds, witness) of a verdict's conclusion: it holds when the
    verdict's conditions agree and so does agrees, a further reading
    checked against the verdict; a failing one shows the verdict."""
    ok = verdict.agreement and agrees
    return ok, None if ok else verdict.to_json()


# ---------------------------------------------------------------------------
# individual checkers


@theorem("T-celt", "four characterizations of Camina elements agree")
def _check_celt(S: SuperTheory):
    vanishing, coset, size, transversal = camina_masks(S)
    split = (vanishing ^ coset) | (vanishing ^ size) | (vanishing ^ transversal)
    for g in range(S.group.order):
        # a verdict is built only where its conditions disagree
        yield {"element": g}, True, lambda: _verdict(is_camina_element(S, g)) if split >> g & 1 else (True, None)


@theorem("T-corgcp", "characterizations of generalized Camina pairs agree")
def _check_corgcp(S: SuperTheory):
    for N in s_normal_subgroups(S):
        yield {"n": N}, VACUOUS if len(N) == S.group.order else True, lambda: _verdict(is_s_gcp(S, N))


@theorem("L-cp", "Camina pairs close upward, pass to quotients, and bound the center")
def _check_cp(S: SuperTheory):
    subs = s_normal_subgroups(S)
    com = s_commutator_full(S)
    center = s_center(S)
    abelian = is_s_abelian(S)
    order = S.group.order
    for N in subs:
        if not gcp_holds(S, N):
            continue  # the hypothesis picks the scopes: only Camina pairs have a row
        fails = []
        if not com.members <= N.members:
            fails.append("commutator-below")
        for M in subs:
            if N.members <= M.members and len(M) < order and not gcp_holds(S, M):
                fails.append(f"upward-{_sub(M)}")
        for K in subs:
            if K.members <= N.members:
                if not gcp_holds(deflation(S, K), quotient_image(S.group, K, N)):
                    fails.append(f"quotient-{_sub(K)}")
        if not abelian and not center.members <= N.members:
            fails.append("center-below")
        yield {"n": N}, VACUOUS if len(N) == order else True, lambda: _failing(fails)


@theorem("L-vs", "basic properties of the vanishing-off subgroup V(S)")
def _check_vs(S: SuperTheory):
    subs = s_normal_subgroups(S)
    V = v_theory(S)
    com = s_commutator_full(S)
    gcp_subs = [N for N in subs if gcp_holds(S, N)]
    fails = []
    if not gcp_holds(S, V):
        fails.append("v-is-gcp")
    if not com.members <= V.members:
        fails.append("commutator-inside-v")
    if not is_s_abelian(S) and not s_center(S).members <= V.members:
        fails.append("center-inside-v")
    if any(not V.members <= N.members for N in gcp_subs):
        fails.append("v-minimal")
    if frozenset(range(S.group.order)).intersection(*(N.members for N in gcp_subs)) != V.members:
        fails.append("v-as-intersection")
    yield {}, True, lambda: _failing(fails, v=_sub(V))


@theorem("T-zeta", "upper central terms above a non-central commutator land in V(S)")
def _check_zeta(S: SuperTheory):
    up = upper_series(S)
    com = s_commutator_full(S)
    V = v_theory(S)
    top = max(1, len(up.terms) - 1)

    def conclusion(m):
        ok = up.term(m + 1).members <= V.members
        return ok, None if ok else {"zeta": _sub(up.term(m + 1)), "v": _sub(V)}

    for m in range(1, top + 1):
        yield {"m": m}, not com.members <= up.term(m).members, lambda: conclusion(m)


@theorem("C-class", "nilpotence class c forces zeta_(c-1) inside V(S)")
def _check_cclass(S: SuperTheory):
    c = s_nilpotence_class(S)
    if c is not None and c >= 1:
        yield {"class": c}, True, lambda: (upper_series(S).term(c - 1).members <= v_theory(S).members, None)


@theorem("C-hyper", "non-nilpotent theories have their hypercenter inside V(S)")
def _check_chyper(S: SuperTheory):
    yield {}, s_nilpotence_class(S) is None, lambda: (upper_series(S).last.members <= v_theory(S).members, None)


@theorem("L-vsn", "non-abelian quotients force N into V(S) and bound the deflated V")
def _check_vsn(S: SuperTheory):
    V = v_theory(S)

    def conclusion(N, defl):
        image = quotient_image(S.group, N, V).members
        ok = N.members <= V.members and v_theory(defl).members <= image
        return ok, None if ok else {"v": _sub(V), "deflated-v": _sub(v_theory(defl))}

    for N in s_normal_subgroups(S):
        defl = deflation(S, N)
        yield {"n": N}, not is_s_abelian(defl), lambda: conclusion(N, defl)


@theorem("T-vseries", "the V-series interleaves the lower central series")
def _check_vseries(S: SuperTheory):
    def conclusion():
        # interleaving, strictness propagation, and the deflated-series identity with its nilpotence class
        vs = v_series(S)
        low = lower_series(S)
        top = max(len(vs.terms), len(low.terms)) + 1
        fails = [
            f"interleaving-{i}"
            for i in range(1, top + 1)
            if not low.term(i + 1).members <= vs.term(i).members <= low.term(i).members
        ]
        strict = [i for i in range(1, top + 1) if len(vs.term(i)) < len(low.term(i))]
        if strict and not all(len(vs.term(i)) < len(low.term(i)) for i in range(1, max(strict) + 1)):
            fails.append("strictness-propagation")
        for n in range(1, top + 1):
            vn = vs.term(n)
            if not len(vn) < len(low.term(n)):
                continue
            defl = deflation(S, vn)
            if s_nilpotence_class(defl) != n:
                fails.append(f"deflated-class-{n}")
            dvs = v_series(defl)
            fails += [
                f"deflated-v-{n}-{i}"
                for i in range(1, n + 1)
                if dvs.term(i) is not quotient_image(S.group, vn, vs.term(i))
            ]
        return _failing(fails)

    yield {}, True, conclusion


@theorem("C-vterm", "S-nilpotency is equivalent to the V-series reaching 1")
def _check_vterm(S: SuperTheory):
    nilpotent = s_nilpotence_class(S) is not None
    terminates = len(v_series(S).last) == 1
    ok = nilpotent == terminates
    witness = None if ok else {"nilpotent": nilpotent, "v-series-last": _sub(v_series(S).last)}
    yield {}, True, lambda: (ok, witness)


@theorem("L-vzs", "VZ characterizations through the coset-product condition")
def _check_vzs(S: SuperTheory):
    yield {}, VACUOUS if len(s_center(S)) == S.group.order else True, lambda: _verdict(is_vz(S))


@theorem("T-zs", "VZ holds exactly when V(S) sits between [G,S] and Z(S)")
def _check_zs(S: SuperTheory):
    vz = is_vz(S).holds
    com = s_commutator_full(S)
    V = v_theory(S)
    squeezed = com.members <= V.members and V.members <= s_center(S).members
    ok = vz == squeezed
    witness = None if ok else {"vz": vz, "v": _sub(V)}
    yield {}, True, lambda: (ok, witness)


@theorem("T-vznilp", "non-abelian VZ theories are nilpotent of class 2")
def _check_vznilp(S: SuperTheory):
    def conclusion():
        c = s_nilpotence_class(S)
        return c == 2, None if c == 2 else {"class": c}

    yield {}, not is_s_abelian(S) and is_vz(S).holds, conclusion


@theorem("L-scd", "supercharacter degrees of VZ theories")
def _check_scd(S: SuperTheory):
    yield {}, not is_s_abelian(S) and is_vz(S).holds, lambda: _failing([c.name for c in scd_check(S).failures])


@theorem("L-unormal", "U(S|N) is S-normal")
def _check_unormal(S: SuperTheory):
    for N in s_normal_subgroups(S):
        yield {"n": N}, True, lambda: (S.is_s_normal(u_rel(S, N)), None)


@theorem("L-irr", "character-set containment mirrors subgroup containment")
def _check_irr(S: SuperTheory):
    subs = s_normal_subgroups(S)
    over = {N: frozenset(sigma.index for sigma in irr_over(S, N)) for N in subs}
    for M in subs:
        for N in subs:
            contained = over[M] <= over[N]
            yield {"m": M, "n": N}, True, lambda: (contained == (M.members <= N.members), None)


@theorem("L-uorder", "U(S|.) is monotone")
def _check_uorder(S: SuperTheory):
    subs = s_normal_subgroups(S)
    for H in subs:
        for N in subs:
            if not H.members <= N.members:
                continue
            yield {"h": H, "n": N}, True, lambda: (u_rel(S, H).members <= u_rel(S, N).members, None)


@theorem("L-ugroup", "H lies in U(S|N) exactly when V(S|H) lies in N")
def _check_ugroup(S: SuperTheory):
    subs = s_normal_subgroups(S)
    for H in subs:
        for N in subs:
            lhs = H.members <= u_rel(S, N).members
            rhs = v_rel(S, H).members <= N.members
            yield {"h": H, "n": N}, True, lambda: (lhs == rhs, None)


@theorem("C-ucorr", "membership in U(S|N) matches the coset-product factorization")
def _check_ucorr(S: SuperTheory):
    subs = s_normal_subgroups(S)
    for H in subs:
        for N in subs:
            if not H.members <= N.members:
                continue
            triple = is_camina_triple(S, N, H)
            agrees = (H.members <= u_rel(S, N).members) == triple.holds
            yield {"h": H, "n": N}, VACUOUS if len(N) == S.group.order else True, lambda: _verdict(triple, agrees)


@theorem("C-ucor", "N = U(S|N) exactly at star factorizations")
def _check_ucor(S: SuperTheory):
    for N in s_normal_subgroups(S):
        pair = is_camina_pair(S, N)
        agrees = (N is u_rel(S, N)) == pair.holds
        yield {"n": N}, VACUOUS if len(N) == S.group.order else True, lambda: _verdict(pair, agrees)


@theorem("T-ugroupp", "U(S|N) is the largest subgroup with the vanishing property")
def _check_ugroupp(S: SuperTheory):
    subs = s_normal_subgroups(S)

    def failures(N):
        # the vanishing property of W: every member of Irr(S|W) vanishes off N;
        # U(S|N) as the kernel intersection of the characters escaping N is L-ukernel
        U = u_rel(S, N)
        fails = ["u-has-property"] if escaping_character(irr_over(S, U), N) else []
        return fails + [f"maximality-{_sub(W)}" for W in subs
                        if not escaping_character(irr_over(S, W), N) and not W.members <= U.members]

    if is_s_abelian(S):
        # one row for the theory: its conclusion is that of every N at once
        yield {}, False, lambda: _failing([f"{_sub(N)}: {fail}" for N in subs for fail in failures(N)])
        return
    for N in subs:
        yield {"n": N}, True, lambda: _failing(failures(N))


@theorem("L-ucap", "U(S|N) is bounded by N and the commutator")
def _check_ucap(S: SuperTheory):
    abelian = is_s_abelian(S)
    com = s_commutator_full(S)
    for N in s_normal_subgroups(S):
        # U(S|G) = G by the product definition, so the bound needs N < G
        applies = not abelian and len(N) < S.group.order
        yield {"n": N}, applies, lambda: (u_rel(S, N).members <= (N.members & com.members), None)


@theorem("T-udelta", "U(S|N) > 1 detects nontrivial coset-product factors")
def _check_udelta(S: SuperTheory):
    subs = s_normal_subgroups(S)
    for N in subs:
        if len(N) == 1:
            continue
        exists = any(
            1 < len(H) and H.members <= N.members and is_delta_product(S, H, N)
            for H in subs
        )
        nontrivial = len(u_rel(S, N)) > 1
        ok = exists == nontrivial
        witness = None if ok else {"exists-factor": exists, "u": _sub(u_rel(S, N))}
        yield {"n": N}, True, lambda: (ok, witness)


@theorem("L-uchain", "the iterated U-chain bottoms out above 1 iff a star factor exists")
def _check_uchain(S: SuperTheory):
    subs = s_normal_subgroups(S)
    for N in subs:
        if len(N) == 1 or len(N) == S.group.order:
            continue
        last = u_chain(S, N).last
        exists = any(
            1 < len(H) and H.members <= N.members and is_delta_product(S, H, H)
            for H in subs
        )
        ok = (len(last) > 1) == exists
        witness = None if ok else {"chain-last": _sub(last), "exists-star": exists}
        yield {"n": N}, True, lambda: (ok, witness)


@theorem("L-uquot", "U commutes with deflation above V(S|N)")
def _check_uquot(S: SuperTheory):
    subs = s_normal_subgroups(S)

    def conclusion(N, H):
        # U(S^{G/N} | HN/N) = U(S|H)N/N
        lhs = u_rel(deflation(S, N), quotient_image(S.group, N, H))
        rhs = quotient_image(S.group, N, u_rel(S, H))
        return _failing([] if lhs is rhs else [f"deflated U = {_sub(lhs)}, projected U = {sorted(rhs.members)}"])

    for N in subs:
        for H in subs:
            yield {"n": N, "h": H}, v_rel(S, N).members <= H.members, lambda: conclusion(N, H)


@theorem("L-ukernel", "U(S|N) as a kernel intersection")
def _check_ukernel(S: SuperTheory):
    def conclusion(N):
        # the kernels of the supercharacters whose vanishing-off subgroup escapes N
        family = [sigma for sigma in S.supercharacters() if not vanish_off(sigma).members <= N.members]
        intersection = frozenset(range(S.group.order)).intersection(*(super_kernel(s).members for s in family))
        U = u_rel(S, N)
        if intersection != U.members:
            return False, {"failing": [f"intersection {sorted(intersection)}, U(S|N) {_sub(U)}"]}
        return True, None if family else {"notes": ["the character family is empty; the intersection defaults to G"]}

    for N in s_normal_subgroups(S):
        yield {"n": N}, True, lambda: conclusion(N)


@theorem("T-final", "VZ, Z(S) = V(S), and U(S) = [G,S] are equivalent")
def _check_final(S: SuperTheory):
    def conclusion():
        vz = is_vz(S).holds
        z_eq_v = s_center(S) is v_theory(S)
        u_eq_com = u_theory(S) is s_commutator_full(S)
        ok = vz == z_eq_v == u_eq_com
        return ok, None if ok else {"vz": vz, "z=v": z_eq_v, "u=[G,S]": u_eq_com}

    yield {}, not is_s_abelian(S), conclusion


@theorem("L-sabelian-gcp", "S-abelian groups are exactly those with (G,1) a Camina pair")
def _check_sabelian_gcp(S: SuperTheory):
    lhs = is_s_abelian(S)
    rhs = gcp_holds(S, trivial_subgroup(S.group))
    witness = None if lhs == rhs else {"s-abelian": lhs, "gcp-at-1": rhs}
    yield {}, True, lambda: (lhs == rhs, witness)


@theorem("P-roworth", "supercharacter row orthogonality")
def _check_roworth(S: SuperTheory):
    yield {}, True, lambda: _failing([f"pair-{a}-{b}" for a, b in sigma_orthogonality(S)[0]])


@theorem("P-colorth", "supercharacter column orthogonality")
def _check_colorth(S: SuperTheory):
    blocks, cols = S.yparts.blocks, sigma_orthogonality(S)[1]
    witness = {"g": min(blocks[cols[0][0]]), "h": min(blocks[cols[0][1]])} if cols else None
    yield {}, True, lambda: (not cols, witness)


@theorem("P-prop42", "V(S|N) is S-normal and is the product of the V(sigma) over N")
def _check_prop42(S: SuperTheory):
    for N in s_normal_subgroups(S):
        V = v_rel(S, N)
        product = trivial_subgroup(S.group)
        for sigma in irr_over(S, N):
            product = subgroup_product(S.group, product, vanish_off(sigma))
        raw_subgroups = all(nonvanishing_mask(s) == vanish_off(s).mask for s in irr_over(S, N))
        fails = []
        if not S.is_s_normal(V):
            fails.append("s-normal")
        if product is not V:
            fails.append("product-formula")
        witness = {"failing": fails} if fails else None
        if witness is None and not raw_subgroups:
            witness = {"note": "some nonvanishing sets needed closure to become subgroups"}
        yield {"n": N}, True, lambda: (not fails, witness)


@theorem("L-comker", "[G,S] is the intersection of the supercharacter kernels containing it")
def _check_comker(S: SuperTheory):
    def conclusion():
        com = s_commutator_full(S)
        kernels = (super_kernel(sigma).members for sigma in S.supercharacters())
        meet = frozenset(range(S.group.order)).intersection(*(ker for ker in kernels if com.members <= ker))
        ok = meet == com.members
        return ok, None if ok else {"commutator": _sub(com), "intersection": sorted(meet)}

    yield {}, True, conclusion


@theorem("L-superker", "ker(sigma_X) is the intersection of the kernels of the characters in X")
def _check_superker(S: SuperTheory):
    def conclusion(sigma):
        ker = super_kernel(sigma)
        classical = frozenset(range(S.group.order)).intersection(*(S.table.char_kernel(t).members for t in sigma.part))
        ok = ker.members == classical
        return ok, None if ok else {"kernel": _sub(ker), "classical": sorted(classical)}

    for sigma in S.supercharacters():
        yield {"sigma": sigma.index}, True, lambda: conclusion(sigma)


@theorem("L-nilclass", "the upper and lower central series give the same nilpotence class")
def _check_nilclass(S: SuperTheory):
    def conclusion():
        upper, low = s_nilpotence_class(S), lower_series(S)
        # the class c is the first with gamma_(c+1) = 1
        lower = next((c for c, H in enumerate(low.terms, low.start_index - 1) if len(H) == 1), None)
        return upper == lower, None if upper == lower else {"upper": upper, "lower": lower}

    yield {}, True, conclusion


THEOREM_IDS = tuple(_CHECKERS)
THEOREM_DESCRIPTIONS = {tid: check.description for tid, check in _CHECKERS.items()}


CHUNK_ROWS = 256  # rows joined into one piece
_NOT_APPLICABLE = (({}, False, None),)  # the row of a checker that yields none: it has no scope, so no conclusion
_SHAPES: dict = {}  # a scope's keys, as given -> each key in sorted order with its JSON lead (a pure memo)


def _encode_rows(tid: str, rows, counts: dict, fails: list) -> list[bytes]:
    """The canonical JSON of tid's (scope, hypothesis, conclusion) rows,
    each led by a comma, joined `CHUNK_ROWS` at a time, each with the
    status `_STATUS` gives it.  A conclusion is called where its hypothesis
    holds, before the next row is pulled, and gives the row's witness.  A
    scope value is written from the int or the `SubgroupSet` it is, and
    any other value, like a witness, is encoded.  Once the last row is
    made, the statuses are counted in counts and the failing rows appended
    to fails as report dicts, with their subgroups as sorted lists; when
    rows or a conclusion raises, nothing is counted."""
    enc, tails, shapes = corpus_json_bytes, _TAILS[tid], _SHAPES
    seen, failed = dict.fromkeys(tails, 0), []
    chunks, out = [], []
    for n, (scope, hypothesis, conclusion) in enumerate(rows, 1):
        # called before the checker resumes, a conclusion may close over the checker's loop variables
        holds, witness = conclusion() if hypothesis else (None, None)
        outcome = hypothesis, holds
        keys = shapes.get(tuple(scope))
        if keys is None:
            keys = shapes[tuple(scope)] = [(k, (b"," if i else b"") + enc(k) + b":") for i, k in enumerate(sorted(scope))]
        out.append(b',{"scope":{')
        for key, lead in keys:
            value = scope[key]
            out.append(lead)
            out.append(b"%d" % value if type(value) is int else
                       value.json_bytes() if type(value) is SubgroupSet else enc(value))
        out.append(tails[outcome])
        out.append(b"}" if witness is None else b',"witness":%s}' % enc(witness))
        seen[outcome] += 1
        if hypothesis and not holds:
            plain = {k: list(v.sorted_members()) if type(v) is SubgroupSet else v for k, v in scope.items()}
            report = {"theorem_id": tid, "scope": plain, "status": _STATUS[outcome]}
            failed.append(report if witness is None else {**report, "witness": witness})
        if n % CHUNK_ROWS == 0:
            chunks.append(b"".join(out))
            out = []
    for outcome, k in seen.items():
        counts[_SUMMARY_KEY[_STATUS[outcome]]] += k
    fails += failed
    return chunks + [b"".join(out)] if out else chunks


def run_suite(S: SuperTheory, counts: dict, fails: list):
    """Run every theorem over all applicable scopes of the theory and yield
    its reports, the rows of the corpus JSON, as canonical JSON in
    registration order: comma-separated, in chunks of at most `CHUNK_ROWS`
    reports, every chunk but the first led by a comma.  Each row is written
    straight from the checker's scope: ints as they are, subgroups from the
    bytes each `SubgroupSet` encodes once.  Each report's status is counted
    in counts (keyed as the corpus summary), and each failing report is
    appended to fails as a dict.

    Every theorem id appears at least once: a checker that yields no row
    gives one not-applicable report, and an exception raised by a checker
    or a conclusion becomes a fail report carrying its type and message
    rather than aborting the suite.  A theorem's chunks are held until its
    checker ends, so that fail report replaces every row it yielded before.
    """
    first = True
    for tid, check in _CHECKERS.items():
        try:
            chunks = _encode_rows(tid, check(S), counts, fails) or _encode_rows(tid, _NOT_APPLICABLE, counts, fails)
        except Exception as exc:
            raised = {"error": str(exc), "exception": type(exc).__name__}
            chunks = _encode_rows(tid, [(raised, True, lambda: (False, None))], counts, fails)
        for chunk in chunks:
            yield chunk[1:] if first else chunk
            first = False


# ---------------------------------------------------------------------------
# corpus driver


def _theories_for(table, all_scts: bool):
    if all_scts and table.n_classes <= supertheory.MAX_CLASSES:
        return enumerate_scts(table), True
    theories = [finest(table)]
    if table.group.order >= 2:
        c = coarsest(table)
        if c is not theories[0]:
            theories.append(c)
    return theories, False


def _build(spec: str, max_order: int | None):
    """The group of spec, or None when max_order is given and the group is
    known to be larger.  No group is built above the Dixon limit: there the
    order read off the spec, or the size a closure stopped at, decides
    between a skip and the limit's error."""
    limit = DEFAULT_MAX_ORDER if max_order is None else min(max_order, DEFAULT_MAX_ORDER)
    try:
        return build_group(spec, limit)
    except OrderBoundError as exc:
        if max_order is None or exc.order <= max_order:
            raise
        return None


def _group_entry(spec: str, all_scts: bool, max_order: int | None, tally: dict):
    """Yield the canonical JSON of the group entry of spec in pieces: its
    head, then each theory's head, its reports in the chunks `run_suite`
    yields and its tail, then the group's tail; nothing when the group is
    skipped.  After its suite, a theory's own cache entries are released
    and it is evicted from its table's cache (not before: `is_camina_pair`
    reads `star_construct(S, N) is S`); what the group and its tables cache
    otherwise, the theories of its quotients included, stays.

    tally receives the entry without its reports: label, order and
    theory_count, the status `counts`, and under "theories" the index and
    failing reports of each theory that has any, as `failing_reports`
    reads them."""
    G = _build(spec, max_order)
    if G is None:
        return
    theories, enumerated = _theories_for(character_table_of(G), all_scts)
    counts = dict.fromkeys(_SUMMARY_KEY.values(), 0)
    tally.update(label=G.label, order=G.order, theory_count=len(theories), counts=counts, theories=[])
    enc = corpus_json_bytes
    yield b'{"enumerated":%s,"label":%s,"order":%s,"theories":[' % (enc(enumerated), enc(G.label), enc(G.order))
    for idx, S in enumerate(theories):
        fails = []
        yield b'%s{"index":%s,"reports":[' % (b"," if idx else b"", enc(idx))
        yield from run_suite(S, counts, fails)
        if fails:
            tally["theories"].append({"index": idx, "reports": fails})
        yield b'],"xparts":%s,"yparts":%s}' % (enc(S.xparts_json()), enc(S.yparts.to_json()))
        release(S)
        supertheory.sct_from_class_partition.evict(S.table, S.yparts)
    yield b'],"theory_count":%s}' % enc(len(theories))


def _freed_after(pieces):
    yield from pieces
    # the group's caches are cyclic (group _memo -> table -> theories ->
    # table): free them now rather than whenever the collector next runs
    gc.collect()


def _serial(args):
    for a in args:
        tally = {}
        yield tally, _freed_after(_group_entry(*a, tally))


def _send(fd, kind: bytes, data=b""):
    """Write a frame to fd: the kind byte, the data's length in 8 bytes, the data."""
    frame = memoryview(kind + len(data).to_bytes(8, "little") + data)
    while frame:
        frame = frame[os.write(fd, frame):]


def _recv(fd):
    """(kind, data) of the next frame on fd; kind is empty if fd ends first.
    A length not yet whole reads low, so no read passes the frame's end."""
    frame = b""
    while (short := 9 + int.from_bytes(frame[1:9], "little") - len(frame)) > 0:
        if not (chunk := os.read(fd, short)):
            return b"", b""
        frame += chunk
    return frame[:1], frame[9:]


def _serve(down, up, args, inherited):
    """A forked pool worker: it closes the parent-side fds it inherited; for
    each group index from down (g frames, until s) it sends up the pieces in
    blocks (b) of at least 16 KiB as they are made, then the tally (t, by
    marshal) or the exception (e, by pickle).  It leaves only by `os._exit`."""
    try:
        for fd in inherited:
            os.close(fd)
        while (frame := _recv(down))[0] == b"g":
            tally, block = {}, bytearray()
            try:
                for piece in _freed_after(_group_entry(*args[int(frame[1])], tally)):
                    block += piece
                    if len(block) >= 1 << 14:
                        _send(up, b"b", block)
                        block.clear()
                end = b"t", marshal.dumps(tally)
            except Exception as exc:
                import pickle  # only a group that raises pays for it
                end = b"e", pickle.dumps(exc)
            if block:
                _send(up, b"b", block)
            _send(up, *end)
        os._exit(0)
    finally:  # whatever was raised, SystemExit included: never into the caller's stack, nor flushing its stdio
        os._exit(1)


def _pooled(args, n):
    """(tally, blocks) of each group of args in input order, from n forked
    `_serve` workers with a pipe each way; a worker that ends a group is sent
    the next.  In its turn a group's blocks are yielded as they come, then its
    tally filled or its exception raised; only later groups' early blocks are held."""
    import select  # imported here: a serial run does not pay for them at start-up
    import signal

    todo, fds, pids, to, busy, held, ends = iter(range(n, len(args))), [], {}, {}, {}, {}, {}
    ready = select.poll()  # no FD_SETSIZE bound, unlike select.select

    def assign(fd, i):
        busy[fd] = i
        if i is None:  # stopped: its coming EOF is no death, so it is no longer watched
            ready.unregister(fd)
        _send(to[fd], b"s") if i is None else _send(to[fd], b"g", b"%d" % i)

    def arrivals(k, tally):
        yield from held.pop(k, ())
        while k not in ends:
            for fd, _ in ready.poll():
                i, (kind, data) = busy[fd], _recv(fd)
                if kind == b"b":
                    held.setdefault(i, []).append(data)
                elif kind:
                    if kind == b"e":
                        import pickle
                    ends[i] = pickle.loads(data) if kind == b"e" else marshal.loads(data)
                    assign(fd, next(todo, None))
                else:  # the worker died
                    ready.unregister(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(fd), 0)[1])
                    ends[i] = ChildProcessError(f"the worker verifying {args[i][0]} exited with code {code}")
            yield from held.pop(k, ())
        if isinstance(ends[k], BaseException):
            raise ends[k]
        tally.update(ends[k])

    try:
        for i in range(n):
            (down, to_worker), (from_worker, up) = os.pipe(), os.pipe()
            fds += to_worker, from_worker
            with open(down, "rb", 0), open(up, "wb", 0):  # the worker's ends: the parent closes them
                if not (pid := os.fork()):
                    _serve(down, up, args, fds)
            pids[from_worker], to[from_worker] = pid, to_worker
            ready.register(from_worker, select.POLLIN)
            assign(from_worker, i)
        for k in range(len(args)):
            tally = {}
            yield tally, arrivals(k, tally)
    finally:  # every pipe closed and every worker reaped, a busy one killed first
        for fd in fds:
            os.close(fd)
        for fd, pid in pids.items():
            if busy.get(fd) is not None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def verify_groups(specs, all_scts: bool = True, jobs: int = 1, max_order: int | None = None, out=None,
                  skipped=None):
    """Verify the groups of specs in input order and yield the tally of each
    one verified (see `_group_entry`); with `out`, a binary stream, write
    the canonical JSON of the corpus there as it is made (see `run_corpus`).
    Each spec skipped for max_order is appended to the list `skipped`.  A
    spec after the first that cannot be built raises before anything is
    written.

    What exists before the first group is built, the imported modules
    above all, is frozen out of the collector's reach (`gc.freeze`) for the
    run, pool workers included, so each group's collect walks that group's
    objects only; nothing is frozen when something already is."""
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        specs = list(specs)
        for spec in specs[1:]:  # a refusal after the first group would leave a prefix
            _build(spec, max_order)
        args = [(spec, all_scts, max_order) for spec in specs]
        if jobs > 1 and len(args) > 1 and hasattr(os, "fork"):  # else serially, with the same bytes
            with closing(_pooled(args, min(jobs, len(args)))) as entries:
                yield from _collect(specs, entries, out, skipped)
        else:
            yield from _collect(specs, _serial(args), out, skipped)
    finally:
        if freeze:
            gc.unfreeze()


def _collect(specs, entries, out, skipped):
    """Write the pieces of the specs' entries to out as they arrive, in
    input order, between the corpus's head and tail; yield each tally."""
    summary = dict.fromkeys(_SUMMARY_KEY.values(), 0)
    skipped = [] if skipped is None else skipped
    head = b'{"groups":['  # written with the first group, so a refused group writes nothing
    for spec in specs:
        tally, pieces = next(entries)
        for piece in pieces:
            if out is not None:
                out.write(head)
                out.write(piece)
            head = b""
        if not tally:
            skipped.append(spec)
            continue
        head = b","
        for key, n in tally["counts"].items():
            summary[key] += n
        yield tally
    if out is None:
        return
    rest = {"skipped": skipped} if skipped else {}
    rest["summary"] = summary
    if head != b",":  # no group was written
        out.write(head)
    # "groups" sorts before "skipped" and "summary", so the rest closes the object
    out.write(b"]," + corpus_json_bytes(rest)[1:])


def run_corpus(
    specs=DEFAULT_CATALOG,
    all_scts: bool = True,
    jobs: int = 1,
    max_order: int | None = None,
    out=None,
) -> dict | list[dict]:
    """Run the full suite over a list of group specs.

    Groups whose enumeration guard is exceeded fall back to the finest and
    coarsest theories; with max_order, a group above it is skipped before
    it is built.  Groups are verified one at a time, and each group's caches
    are freed before the next starts.  The output is deterministic: entries
    appear in input order and every report is pure data, so worker count
    cannot change a byte of it.

    With `out`, a binary stream, the canonical JSON of the corpus is
    written there: each theorem's reports as soon as its checker has run
    on a theory (under `jobs` > 1, in blocks as its worker sends them, once
    its group's turn comes), written from the checkers' rows as they are made.  Memory is bounded by
    one theorem's encoded rows plus the caches shared across a group's
    theories; each theory's own caches are released after its suite, and
    each group's before the next group starts.  Only the failing
    reports are kept: the list `failing_reports` would give is returned.
    Without `out`, the corpus is those bytes decoded as a dict.  A spec
    after the first that cannot be built raises before anything is written.
    """
    if out is None:
        buf = io.BytesIO()
        run_corpus(specs, all_scts, jobs, max_order, buf)
        return json.loads(buf.getvalue())
    return failing_reports({"groups": list(verify_groups(specs, all_scts, jobs, max_order, out))})


def failing_reports(corpus: dict) -> list[dict]:
    out = []
    for entry in corpus["groups"]:
        for theory in entry["theories"]:
            for report in theory["reports"]:
                if report["status"] == _STATUS[True, False]:
                    out.append(
                        {
                            "group": entry["label"],
                            "theory": theory["index"],
                            **report,
                        }
                    )
    return out
