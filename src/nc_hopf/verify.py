"""Verification suites for the structural identities of the library.

Each suite exercises one family of identities exhaustively on a bounded
corpus (or on deterministic pseudo-random functionals where the statement
quantifies over the dual) and returns a report listing every check with a
counterexample description on failure.  The suites are the arbiter for the
reading of the coproduct conventions, so failures are reported rather than
silently absorbed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import groupby
from itertools import product as iter_product

from . import clear_caches
from .errors import INTERNAL_FAULTS, InconsistencyError, NcHopfError
from .functionals import (
    NC,
    WORDS,
    Algebra,
    LinearFunctional,
    augmentation,
    convolve,
    exp_prec,
    extract_infinitesimal,
    half_convolve,
    pullback_sp,
    random_functional,
    random_infinitesimal,
    solve_left_fixed_point,
    standard_section,
)
from .partitions import (
    NonCrossingPartition,
    Record,
    _block_gathers,
    _nc_shapes,
    bell_number,
    catalan_number,
    check_enumeration_size,
    enumerate_nc_partitions,
    enumerate_set_partitions,
    full_partition,
    moebius,
    moebius_to_top,
)
from .tensor import (
    UNIT,
    BarWord,
    DecoratedNC,
    LinComb,
    add_into,
    barword_degree,
    barword_text,
    delta_bar,
    delta_nc,
    lincomb_sum,
    sp,
    tensor_product,
)
from .transforms import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    MultiMomentMap,
    _first_block_cumulants,
    _free_moments_fixed_point,
    classical_cumulants_from_moments,
    classical_moments_from_cumulants,
    free_cumulants_from_moments,
    free_moments_from_cumulants,
    generalized_free_cumulants,
    kappa_powers,
    symbolic_cumulants,
)
from .trees import (
    UNIT_TREE,
    erase_gaps,
    gapped_hierarchy_tree,
    hierarchy_tree,
    tree_coproduct,
    tree_degree,
)


class Check(Record):
    """One check of a suite: its label, whether it held and, on failure,
    what failed."""

    _fields = ("label", "ok", "detail")

    def __init__(self, label: str, ok: bool, detail: str = ""):
        self.label = label
        self.ok = ok
        self.detail = detail


# the label prefix of the one check of a suite that raised under
# run_suite("all"); the exception type follows it
RAISED = "raised "


class SuiteReport(Record):
    """The checks of one suite, in the order they ran."""

    _fields = ("name", "checks")

    def __init__(self, name: str, checks: list | None = None):
        self.name = name
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.checks.append(Check(label, ok, detail))

    def check(self, label: str, failing: list):
        """Record a check that holds when ``failing``, the names of the
        cases it failed on, is empty; its detail counts and lists them."""
        detail = f"{len(failing)} failing: {', '.join(failing)}"
        self.checks.append(Check(label, not failing,
                                 detail if failing else ""))

    @property
    def raised(self) -> bool:
        """Whether the suite stopped on an internal fault."""
        return any(c.label.startswith(RAISED) for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {status} "
                 f"({len(self.checks)} checks, {len(self.failures())} failed)"]
        for c in self.failures():
            lines.append(f"  FAIL {c.label}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# coproduct operator plumbing


def _apply(terms: LinComb, leg: int, linear_map) -> LinComb:
    """Push ``terms``, keyed by tuples of legs, through ``linear_map`` on
    leg ``leg``: each key of the leg's image, a tuple of legs, replaces
    that leg in place, so a coproduct turns pairs into triples.  Each
    distinct leg's image is computed once per call; entries that cancel
    are dropped."""
    out: LinComb = {}
    get = out.get
    images: dict = {}
    for key, c in terms.items():
        x = key[leg]
        if x not in images:
            images[x] = linear_map(x)
        head, tail = key[:leg], key[leg + 1:]
        for legs, d in images[x].items():
            new_key = head + legs + tail
            new = get(new_key, 0) + c * d
            if new:
                out[new_key] = new
            elif new_key in out:
                del out[new_key]
    return out


def _reduced(variant: str):
    """b -> ``delta_bar(b, variant)`` less its group-like terms b ⊗ 1 and
    1 ⊗ b: the reduced halves of ``left+`` and ``right+`` and the reduced
    coproduct of ``full``, in which the unshuffle axioms are stated."""
    def coproduct(b: BarWord) -> LinComb:
        out = dict(delta_bar(b, variant))
        if variant != "right+":
            add_into(out, (b, UNIT), -1)
        if variant != "left+":
            add_into(out, (UNIT, b), -1)
        return out
    return coproduct


def _rational(f: LinearFunctional) -> LinearFunctional:
    """f / 60, of the same class as f.  On a random functional this gives
    back the rationals num/den whose 60-fold it holds.  One trial of each
    suite that draws random functionals runs on these, so values that mix
    ``int`` and ``Fraction`` stay checked."""
    return type(f)(f.algebra, f.truncation, lambda b: Fraction(f(b), 60),
                   unit_value=f.unit_value, name=f.name)


def _elements(kind: str, alphabet: tuple[str, ...], max_degree: int) -> list:
    """Single generator atoms of every degree up to ``max_degree`` on the
    chosen bialgebra, by degree."""
    degrees = range(1, max_degree + 1)
    if kind == WORDS:
        return [w for d in degrees for w in iter_product(alphabet, repeat=d)]
    check_enumeration_size("nc", max_degree)
    return [(shape, None) for d in degrees for shape in _nc_shapes(d)]


# ---------------------------------------------------------------------------
# suites


def verify_coassociativity(max_degree: int = 6) -> SuiteReport:
    """(Delta x id) Delta = (id x Delta) Delta on both bialgebras, checked
    on every generator up to the degree bound."""
    report = SuiteReport("coassociativity")
    for kind in (WORDS, NC):
        atoms = _elements(kind, ("a", "b", "c"), max_degree)
        bad = []
        for atom in atoms:
            b: BarWord = (atom,)
            terms = delta_bar(b, "full")
            if _apply(terms, 0, delta_bar) != _apply(terms, 1, delta_bar):
                bad.append(barword_text(b))
        report.check(f"{kind}: generators up to degree {max_degree} "
                     f"({len(atoms)})", bad)
    return report


def verify_unshuffle(max_degree: int = 5) -> SuiteReport:
    """The three half-coproduct axioms, the compatibilities with the bar
    product, and reconstruction of the full coproduct from its halves."""
    report = SuiteReport("unshuffle")
    left_of, right_of, reduced_of = map(_reduced, ("left+", "right+", "full"))
    for kind in (WORDS, NC):
        atoms = _elements(kind, ("a", "b"), max_degree)
        failures: dict[str, list] = {k: [] for k in
                                     ("C1", "C2", "C3", "halves", "D1", "D2")}
        for atom in atoms:
            b: BarWord = (atom,)
            left, right = left_of(b), right_of(b)
            name = barword_text(b)
            if _apply(left, 0, left_of) != _apply(left, 1, reduced_of):
                failures["C1"].append(name)
            if _apply(left, 0, right_of) != _apply(right, 1, left_of):
                failures["C2"].append(name)
            if _apply(right, 0, reduced_of) != _apply(right, 1, right_of):
                failures["C3"].append(name)
            rebuilt = lincomb_sum(left, right,
                                  {(b, UNIT): 1, (UNIT, b): 1})
            if rebuilt != delta_bar(b, "full"):
                failures["halves"].append(name)
        for a in atoms:
            for b in atoms:
                if barword_degree((a, b)) > max_degree:
                    break  # atoms come by degree: every later b is over too
                bar = (a, b)
                name = barword_text(bar)
                expect_l = tensor_product(delta_bar((a,), "left+"),
                                          delta_bar((b,), "full"))
                if delta_bar(bar, "left+") != expect_l:
                    failures["D1"].append(name)
                expect_r = tensor_product(delta_bar((a,), "right+"),
                                          delta_bar((b,), "full"))
                if delta_bar(bar, "right+") != expect_r:
                    failures["D2"].append(name)
        for label, bad in failures.items():
            report.check(f"{kind}: {label} up to degree {max_degree}", bad)
    return report


def _sample_barwords(algebra: Algebra, max_degree: int,
                     rng: random.Random, per_degree: int) -> list[BarWord]:
    out: list[BarWord] = []
    for d in range(1, max_degree + 1):
        basis = algebra.barwords(d)
        if len(basis) <= per_degree:
            out.extend(basis)
        else:
            out.extend(rng.sample(basis, per_degree))
    return out


def verify_halfshuffle(max_degree: int = 6) -> SuiteReport:
    """Dual shuffle axioms for random functionals on both bialgebras,
    evaluated on a random sample of basis bar words per degree, plus the
    unit laws with the augmentation."""
    report = SuiteReport("halfshuffle")
    trials, seed = 100, 7
    for kind in (WORDS, NC):
        algebra = Algebra(kind, ("a", "b"))
        rng = random.Random(f"{seed}:{kind}")
        failures: dict[str, list] = {k: [] for k in ("A1", "A2", "A3", "units")}
        samples = _sample_barwords(algebra, max_degree, rng, 4)
        for trial in range(trials):
            f = random_functional(algebra, max_degree, seed * 1000 + trial * 3)
            g = random_functional(algebra, max_degree, seed * 1000 + trial * 3 + 1)
            h = random_functional(algebra, max_degree, seed * 1000 + trial * 3 + 2)
            if trial == 0:
                f, g, h = _rational(f), _rational(g), _rational(h)
            e = augmentation(algebra, max_degree)
            a1_l = half_convolve(half_convolve(f, g, "left"), h, "left")
            a1_r = half_convolve(f, convolve(g, h), "left")
            a2_l = half_convolve(half_convolve(f, g, "right"), h, "left")
            a2_r = half_convolve(f, half_convolve(g, h, "left"), "right")
            a3_l = half_convolve(f, half_convolve(g, h, "right"), "right")
            a3_r = half_convolve(convolve(f, g), h, "right")
            fe = half_convolve(f, e, "left")
            ef = half_convolve(e, f, "right")
            ef0 = half_convolve(e, f, "left")
            fe0 = half_convolve(f, e, "right")
            for b in samples:
                name = f"trial {trial}: {barword_text(b)}"
                if a1_l(b) != a1_r(b):
                    failures["A1"].append(name)
                if a2_l(b) != a2_r(b):
                    failures["A2"].append(name)
                if a3_l(b) != a3_r(b):
                    failures["A3"].append(name)
                if (fe(b) != f(b) or ef(b) != f(b)
                        or ef0(b) != 0 or fe0(b) != 0):
                    failures["units"].append(name)
        for label, bad in failures.items():
            report.check(f"{kind}: {label} ({trials} triples, "
                         f"{trials * len(samples)} samples)", bad)
    return report


def verify_sp_morphism(max_word_len: int = 6) -> SuiteReport:
    """The splitting map intertwines the full and half coproducts, and its
    dual preserves the convolution and both half-shuffle products."""
    report = SuiteReport("sp-morphism")
    alphabet = ("a", "b")
    functional_degree, trials, seed = 5, 5, 11

    def sp_legs(b: BarWord) -> LinComb:  # Sp, each image a one-leg key
        return {(x,): c for x, c in sp(b).items()}

    # the three coproducts of a word read its Sp image's atoms in turn
    words = _elements(WORDS, alphabet, max_word_len)
    structural: dict = {k: [] for k in ("full", "left+", "right+")}
    for ls in words:
        b: BarWord = (ls,)
        image = sp_legs(b)
        for variant, bad in structural.items():
            lhs = _apply(image, 0, lambda x: delta_bar(x, variant))
            rhs = _apply(_apply(delta_bar(b, variant), 1, sp_legs), 0,
                         sp_legs)
            if lhs != rhs:
                bad.append(barword_text(b))
    for variant, bad in structural.items():
        report.check(f"structural {variant} on words up to length "
                     f"{max_word_len} ({len(words)})", bad)

    nc_algebra = Algebra(NC, alphabet)
    words_algebra = Algebra(WORDS, alphabet)
    rng = random.Random(seed)
    failures: dict[str, list] = {k: [] for k in ("*", "≺", "≻")}
    for trial in range(trials):
        f = random_functional(nc_algebra, functional_degree, seed + 100 + trial)
        g = random_functional(nc_algebra, functional_degree, seed + 200 + trial)
        if trial == 0:
            f, g = _rational(f), _rational(g)
        pairs = {
            "*": (pullback_sp(convolve(f, g)),
                  convolve(pullback_sp(f), pullback_sp(g))),
            "≺": (pullback_sp(half_convolve(f, g, "left")),
                  half_convolve(pullback_sp(f), pullback_sp(g), "left")),
            "≻": (pullback_sp(half_convolve(f, g, "right")),
                  half_convolve(pullback_sp(f), pullback_sp(g), "right")),
        }
        for b in _sample_barwords(words_algebra, functional_degree, rng, 3):
            for label, (lhs, rhs) in pairs.items():
                if lhs(b) != rhs(b):
                    failures[label].append(f"trial {trial}: {barword_text(b)}")
    for label, bad in failures.items():
        report.check(f"dual preserves {label} ({trials} pairs)", bad)
    return report


def verify_character_bijection(truncation: int = 8) -> SuiteReport:
    """Fixed point vs half-shuffle exponential, multiplicativity of the
    result, exact recovery of the generator, agreement with the free
    transforms, and commutation with the pullback of the splitting map."""
    report = SuiteReport("character-bijection")
    commute_degree, seed = 6, 23
    algebra = Algebra(WORDS, ("a",))
    kappa = random_infinitesimal(algebra, truncation, seed)
    phi_fix = solve_left_fixed_point(kappa)
    phi_exp = exp_prec(kappa)
    by_degree = [algebra.barwords(d) for d in range(truncation + 1)]
    basis = [b for words in by_degree for b in words]
    bad = [barword_text(b) for b in basis if phi_fix(b) != phi_exp(b)]
    report.check(f"exp≺ = fixed point on {len(basis)} bar words, "
                 f"N={truncation}", bad)

    # every product a|b within the truncation, each value read from the
    # check above
    pairs = ((a, b) for da in range(1, truncation)
             for db in range(1, truncation - da + 1)
             for a in by_degree[da] for b in by_degree[db])
    bad = ([str(("unit", phi_fix.unit_value))]
           if phi_fix.unit_value != 1 else [])
    products = 0
    for products, (a, b) in enumerate(pairs, 1):
        if phi_fix(a + b) != phi_fix(a) * phi_fix(b):
            bad.append(str((barword_text(a), barword_text(b))))
    report.check(f"fixed point is a character ({products} products)", bad)

    recovered = extract_infinitesimal(phi_fix)
    bad = [f"a^{n}" for n in range(1, truncation + 1)
           if recovered((("a",) * n,)) != kappa((("a",) * n,))]
    report.check("generator recovered exactly", bad)

    # the paper's construction against the closed forms of the transforms
    powers = [(("a",) * n,) for n in range(1, truncation + 1)]
    k = CumulantSequence(tuple(map(kappa, powers)), FREE)
    m = MomentSequence.of(map(phi_fix, powers))
    k_sym = symbolic_cumulants(min(truncation, 8), FREE)
    routes = {
        "k2m": (m.values[1:], free_moments_from_cumulants(k).values[1:]),
        "m2k": (tuple(map(recovered, powers)),
                free_cumulants_from_moments(m).values),
        "symbolic k2m": (_free_moments_fixed_point(k_sym),
                         free_moments_from_cumulants(k_sym).values[1:]),
    }
    bad = [f"{name} at a^{n}" for name, (got, expect) in routes.items()
           for n, (x, y) in enumerate(zip(got, expect), 1) if x != y]
    report.check(f"fixed point = k2m and extraction = m2k on a^n, "
                 f"N={truncation}, symbolic to N={k_sym.order}", bad)

    nc_algebra = Algebra(NC, ("a",))
    kappa_nc = _rational(
        random_infinitesimal(nc_algebra, commute_degree, seed + 1))
    lhs = pullback_sp(exp_prec(kappa_nc))
    rhs = exp_prec(pullback_sp(kappa_nc))
    words_algebra = Algebra(WORDS, ("a",))
    basis = [b for d in range(commute_degree + 1)
             for b in words_algebra.barwords(d)]
    bad = [barword_text(b) for b in basis if lhs(b) != rhs(b)]
    report.check(f"Sp* commutes with exp≺ up to degree {commute_degree}",
                 bad)
    return report


def _lattice_cumulants(moment, words) -> dict:
    """Solve moment(w) = sum over pi in NC(|w|) of prod_{B in pi} kappa(w|_B)
    for the one-block term kappa(w), for each letter tuple w in ``words``;
    returns letter tuple -> kappa.  The words are solved shortest first, so
    every proper subword a term needs is solved before it.

    The transforms solve by the first-block recursion instead, with
    2^(n-1) - 1 terms per word against Cat(n) - 1 here, and read no
    partition, so the keyrell suite holds this solve to that one.

    Precondition: ``words`` holds every block restriction of its words.  A
    missing subword raises KeyError, which is an internal fault, not bad
    input."""
    check_enumeration_size("nc", max(map(len, words), default=1))
    # each degree's multi-block shapes, once, as the gathers of their blocks
    shapes = {n: [_block_gathers(blocks)
                  for blocks in _nc_shapes(n) if len(blocks) > 1]
              for n in set(map(len, words))}
    r: dict = {}
    for letters in sorted(words, key=len):
        total = moment(letters)
        for gathers in shapes[len(letters)]:
            term = None
            for gather in gathers:
                kappa = r[gather(letters)]
                term = kappa if term is None else term * kappa
            total = total - term
        r[letters] = total
    return r


def _free_pair_moments(moments: dict, order: int) -> dict:
    """The moment table, on every word up to ``order`` letters, of free
    variables with the given one-letter moments (letter ->
    MomentSequence).  A word of one run x is read off x's moments.  For runs
    x_1, ..., x_r of alternating letters, freeness says phi of the product
    of the centred runs x_i - phi(x_i) is 0.  Expanded over the set S of
    runs kept, that is the sum of phi(product of the runs in S) times
    -phi(x_i) for each run left out, and S = all runs gives phi(w).  The
    other terms read shorter words, solved before it.  No partition is
    involved."""
    table: dict = {}
    for n in range(1, order + 1):
        for w in iter_product(tuple(moments), repeat=n):
            runs = [(x, len(list(run))) for x, run in groupby(w)]
            if len(runs) == 1:
                table[w] = moments[w[0]].moment(n)
                continue
            total = 0
            for mask in range((1 << len(runs)) - 1):
                kept, term = (), 1
                for i, (x, k) in enumerate(runs):
                    if mask >> i & 1:
                        kept += (x,) * k
                    else:
                        term = -term * moments[x].moment(k)
                total += term * table[kept] if kept else term
            table[w] = -total
    return table


def verify_keyrell(max_n: int = 6) -> SuiteReport:
    """The fixed point of Psi = e + sd(kappa) ≺ Psi evaluates on a decorated
    partition as the product of kappa over its blocks, and the cumulants
    solved from moments over the whole NC lattice equal those of the
    first-block recursion, which reads no partition.  The multivariate
    transform, on the moments of two free variables, gives their
    one-letter cumulants and no mixed one, at order min(max_n, 8)."""
    report = SuiteReport("keyrell")
    alphabet = tuple(f"x{i}" for i in range(1, max_n + 1))
    nc_algebra = Algebra(NC, alphabet)
    seed = 31
    rng_values: dict = {}

    def kappa_fn(w: tuple[str, ...]) -> Fraction:
        if w not in rng_values:
            r = random.Random(f"{seed}:{'.'.join(w)}")
            rng_values[w] = Fraction(r.randint(-12, 12), r.randint(1, 5))
        return rng_values[w]

    sd = standard_section(kappa_fn, nc_algebra, max_n)
    psi = solve_left_fixed_point(sd)
    bad = []
    count = 0
    for n in range(1, max_n + 1):
        w = alphabet[:n]
        shapes = enumerate_nc_partitions(n)
        count += len(shapes)
        if len(shapes) != catalan_number(n):
            bad.append(f"|NC_{n}| = {len(shapes)} ≠ Catalan({n}) = "
                       f"{catalan_number(n)}")
        for shape in shapes:
            expect = kappa_powers(shape, w, kappa_fn)
            if psi((DecoratedNC(shape, w),)) != expect:
                bad.append(f"{shape.text()} on {'.'.join(w)}")
    report.check(f"Psi(L⊗w) = block product of kappa ({count} partitions)",
                 bad)

    # principal equation: kappa solved from phi over the NC lattice, and by
    # the first-block recursion, which reads no partition
    def phi_fn(letters: tuple) -> Fraction:
        r = random.Random(f"{seed + 1}:{'.'.join(letters)}")
        return Fraction(r.randint(-12, 12), r.randint(1, 5))

    # the subwords of x1...x_max_n are closed under block restriction and
    # gaps, so one solve over them serves every n
    words = [tuple(x for i, x in enumerate(alphabet) if mask >> i & 1)
             for mask in range(1, 1 << max_n)]
    lattice = _lattice_cumulants(phi_fn, words)
    recursion = _first_block_cumulants(phi_fn, words)
    bad = [".".join(w) for w in words if lattice[w] != recursion[w]]
    report.check(f"lattice solve = first-block recursion on {len(words)} "
                 f"subwords, n ≤ {max_n}", bad)

    # freeness, from outside both routes of the transform: for free a and b
    # every mixed cumulant vanishes, and those of a^n and b^n are the
    # one-letter cumulants (Speicher, Math. Ann. 298, 1994)
    order = min(max_n, 8)
    rng = random.Random(seed + 2)
    moments = {x: MomentSequence.of(
        Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        for _ in range(order)) for x in ("a", "b")}
    one_letter = {x: free_cumulants_from_moments(m)
                  for x, m in moments.items()}
    label = (f"free a, b: mixed cumulants vanish, a^n and b^n give m2k, "
             f"order {order}")
    try:
        kappa = generalized_free_cumulants(MultiMomentMap(
            ("a", "b"), order, _free_pair_moments(moments, order))).table
    except InconsistencyError as exc:
        report.add(label, False, str(exc))
    else:
        report.check(label, [".".join(w) for w, k in kappa.items()
                             if k != (one_letter[w[0]].cumulant(len(w))
                                      if len(set(w)) == 1 else 0)])
    return report


def verify_roundtrip(order: int = 8) -> SuiteReport:
    """moments -> cumulants -> moments and the reverse are the identity in
    both flavors, on random rational sequences."""
    report = SuiteReport("roundtrip")
    count = 50
    rng = random.Random(41)
    for flavor in (CLASSICAL, FREE):
        bad = []
        for trial in range(count):
            vals = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                         for _ in range(order))
            m = MomentSequence.of(vals)
            c = CumulantSequence(vals, flavor)
            if flavor == CLASSICAL:
                back_m = classical_moments_from_cumulants(
                    classical_cumulants_from_moments(m))
                back_c = classical_cumulants_from_moments(
                    classical_moments_from_cumulants(c))
            else:
                back_m = free_moments_from_cumulants(
                    free_cumulants_from_moments(m))
                back_c = free_cumulants_from_moments(
                    free_moments_from_cumulants(c))
            if back_m.values != m.values or back_c.values != c.values:
                bad.append(f"trial {trial}")
        report.check(f"{flavor}: {count} random sequences, N={order}", bad)
    return report


def verify_semicircular(order: int = 8) -> SuiteReport:
    """The cumulant sequence (0, 1, 0, ...) has even moments counted by the
    Catalan numbers and vanishing odd moments; the oracle is a brute-force
    count of non-crossing partitions into pairs."""
    report = SuiteReport("semicircular")
    k = CumulantSequence(tuple(int(n == 2) for n in range(1, order + 1)),
                         FREE)
    m = free_moments_from_cumulants(k)
    bad = []
    for n in range(1, order + 1):
        pairings = sum(1 for p in enumerate_nc_partitions(n)
                       if all(len(b) == 2 for b in p.blocks))
        expect = catalan_number(n // 2) if n % 2 == 0 else 0
        if pairings != expect:
            bad.append(f"pair count at n={n}")
        if m.moment(n) != pairings:
            bad.append(f"moment at n={n}")
    report.check(f"moments = non-crossing pair counts = Catalan, N={order}",
                 bad)
    return report


def _transported(shape: NonCrossingPartition, tree_of) -> LinComb:
    """The partition coproduct of ``shape`` pushed through the tree map
    ``tree_of``: tree on the left leg, which holds one atom or is the unit
    (mapped to the bare root), forest on the right."""
    def trees(b: BarWord) -> tuple:
        return tuple(tree_of(NonCrossingPartition._unchecked(
            blocks=blocks, size=sum(map(len, blocks)))) for blocks, _ in b)

    rooted = _apply(delta_nc(DecoratedNC(shape)), 0,
                    lambda b: {trees(b) or (UNIT_TREE,): 1})
    return _apply(rooted, 1, lambda b: {(trees(b),): 1})


def verify_tree_consistency(max_n: int = 6) -> SuiteReport:
    """Pushing the partition coproduct through the gapped hierarchy map
    reproduces the tree coproduct exactly, on every shape.  The bare map
    (marks erased) does so on exactly the shapes whose gapped tree has no
    mark: a mark separates siblings that the partition coproduct keeps in
    different components, and a bare tree cannot tell them apart.  Both
    maps are degree-preserving but not injective."""
    report = SuiteReport("tree-consistency")
    shapes = [shape for n in range(1, max_n + 1)
              for shape in enumerate_nc_partitions(n)]
    bad, marked, bare_failed = [], [], []
    for shape in shapes:
        text, gapped = shape.text(), gapped_hierarchy_tree(shape)
        if _transported(shape, gapped_hierarchy_tree) != tree_coproduct(gapped):
            bad.append(text)
        bare = erase_gaps(gapped)
        if bare != gapped:
            marked.append(text)
        if _transported(shape, hierarchy_tree) != tree_coproduct(bare):
            bare_failed.append(text)
    report.check(f"coproducts agree through the gapped hierarchy map "
                 f"({len(shapes)} shapes)", bad)
    # the rule: the bare map fails on exactly the marked shapes
    detail = f"marked: {', '.join(marked)}" if marked else "marked: none"
    if bare_failed != marked:
        wrong = set(marked).symmetric_difference(bare_failed)
        against = [s.text() for s in shapes if s.text() in wrong]
        detail += f"; {len(wrong)} against the rule: {', '.join(against)}"
    report.add(f"bare hierarchy map transports exactly the mark-free shapes "
               f"({len(shapes) - len(marked)} hold, {len(marked)} marked fail)",
               bare_failed == marked, detail)

    bad = [shape.text() for shape in shapes
           if not tree_degree(gapped_hierarchy_tree(shape))
           == tree_degree(hierarchy_tree(shape)) == len(shape.blocks)]
    report.check("degree preserved (vertices = blocks)", bad)

    a = NonCrossingPartition.of([[1, 4], [2, 3], [5, 6, 7]])
    b = NonCrossingPartition.of([[1, 3], [2], [4, 5]])
    report.add("known collision of distinct partitions",
               a != b and hierarchy_tree(a) == hierarchy_tree(b))
    return report


def verify_moebius(max_n: int = 7) -> SuiteReport:
    """The Möbius recursion against the closed forms on both lattices: its
    column holds the signed Catalan and factorial values at 0̂, and
    ``moebius`` matches the column on every interval [pi, 1̂]."""
    report = SuiteReport("moebius")
    for lattice, values, magnitude, enum in (
            ("nc", "signed Catalan", catalan_number, enumerate_nc_partitions),
            ("set", "signed factorial", math.factorial,
             enumerate_set_partitions)):
        bad_bottom, bad_column, count = [], [], 0
        for n in range(1, max_n + 1):
            parts, column = enum(n), moebius_to_top(lattice, n)
            bottom = tuple((x,) for x in range(1, n + 1))
            if column[bottom] != (-1) ** (n - 1) * magnitude(n - 1):
                bad_bottom.append(f"n={n}")
            top = full_partition(range(1, n + 1))
            count += len(parts)
            bad_column += [p.text() for p in parts
                           if moebius(lattice, p, top) != column[p.blocks]]
        report.check(f"{lattice} lattice: recursion gives {values} values, "
                     f"n ≤ {max_n}", bad_bottom)
        report.check(f"{lattice} lattice: closed form matches the recursion "
                     f"on [pi, 1̂] ({count} intervals)", bad_column)
    return report


def verify_counting(max_n: int = 10) -> SuiteReport:
    """Enumeration sizes against the Catalan and Bell recurrences."""
    report = SuiteReport("counting")
    bad = [f"nc n={n}" for n in range(1, max_n + 1)
           if len(enumerate_nc_partitions(n)) != catalan_number(n)]
    report.check(f"|NC_n| = Catalan(n), n ≤ {max_n}", bad)
    bad = [f"set n={n}" for n in range(1, max_n + 1)
           if len(enumerate_set_partitions(n)) != bell_number(n)]
    report.check(f"|P_n| = Bell(n), n ≤ {max_n}", bad)
    return report


# Each suite by name, with the ceiling of its size bound.  The bound is the
# suite's only parameter, and its default is in the suite's signature.  The
# ceiling is the largest bound that runs in under a minute and 600 MB on a
# 2-vCPU machine; one step past it costs several times more, in time or
# memory (moebius at 10 runs for minutes; keyrell at 11 takes 107 s and
# 916 MB, against 20-23 s and 294 MB at 10; counting at 11 takes 4.9 s and
# 243 MB, against 0.9 s and 56 MB at 10).  run_suite checks a bound
# against it before any suite runs.
SUITES = {
    "counting": (verify_counting, 10),
    "coassociativity": (verify_coassociativity, 7),
    "unshuffle": (verify_unshuffle, 8),
    "halfshuffle": (verify_halfshuffle, 8),
    "sp-morphism": (verify_sp_morphism, 7),
    "character-bijection": (verify_character_bijection, 12),
    "keyrell": (verify_keyrell, 10),
    "roundtrip": (verify_roundtrip, 12),
    "semicircular": (verify_semicircular, 12),
    "tree-consistency": (verify_tree_consistency, 9),
    "moebius": (verify_moebius, 9),
}


def run_suite(name: str, bound: int | None = None) -> list[SuiteReport]:
    """Run one named suite, at ``bound`` or at its default bound, or all of
    them at their defaults, emptying the library's caches after each, so no
    suite holds the memory of the ones before it.  Under ``all``, a suite
    raising one of ``errors.INTERNAL_FAULTS`` is reported as failed, its one
    check ``raised <exception type>`` holding the text, and the next suite
    runs; a domain error ends the run.  A bound given with ``all``, or
    outside 1..ceiling, is a domain error raised before any suite runs."""
    if name == "all":
        if bound is not None:
            raise NcHopfError("--max-degree applies to one suite, not 'all'")
        reports = []
        for suite, (fn, _) in SUITES.items():
            try:
                reports.append(fn())
            except INTERNAL_FAULTS as exc:
                report = SuiteReport(suite)
                report.add(RAISED + type(exc).__name__, False, str(exc))
                reports.append(report)
            clear_caches()
        return reports
    if name not in SUITES:
        raise NcHopfError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(sorted(SUITES))} or 'all'")
    fn, ceiling = SUITES[name]
    if bound is None:
        return [fn()]
    if not 1 <= bound <= ceiling:
        raise NcHopfError(f"--max-degree for {name} runs from 1 to "
                          f"{ceiling}, not {bound}")
    return [fn(bound)]
