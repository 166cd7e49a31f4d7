"""Deterministic work counts of a few requests, pinned so that a change which
brings back repeated work fails here, whatever the speed of the host."""

import io
from fractions import Fraction

from nc_hopf import cli, functionals, transforms
from nc_hopf.coefficients import Poly


def test_symbolic_k2m_poly_multiplications(monkeypatch):
    # the type sums make one product per type of two or more parts (58 up
    # to degree 8) and one scalar product per type for its weight (66); the
    # series makes the rest
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    out = io.StringIO()
    assert cli.main(["transform", "free", "--direction", "k2m",
                     "--symbolic", "--n", "8"], out=out) == 0
    assert len(calls) == 265


def test_multi_m2k_functional_evaluations(monkeypatch):
    # extraction reads known values in place, so every call of a functional
    # is a cache miss that evaluates one bar word, for the character or for
    # the extracted cumulants
    evaluations, calls = [], []
    init = functionals.LinearFunctional.__init__
    call = functionals.LinearFunctional.__call__

    def counted_init(self, algebra, truncation, eval_basis, *args, **kw):
        def ev(b):
            evaluations.append(b)
            return eval_basis(b)
        init(self, algebra, truncation, ev, *args, **kw)

    def counted_call(self, b):
        calls.append(b)
        return call(self, b)

    monkeypatch.setattr(functionals.LinearFunctional, "__init__",
                        counted_init)
    monkeypatch.setattr(functionals.LinearFunctional, "__call__",
                        counted_call)
    words = list(transforms._letter_tuples("abc", range(1, 5)))
    table = {w: Fraction(sum(map(ord, w)) % 7 - 3, len(w) + 1)
             for w in words}
    transforms.generalized_free_cumulants(
        transforms.MultiMomentMap(("a", "b", "c"), 4, table))
    assert len(words) == 120
    assert len(evaluations) == len(calls) == 249


def test_unshuffle_form_checks_and_bar_misses(monkeypatch):
    # a generator cache checks an atom's form on its miss, so each of the
    # 52 atoms read (30 words and 22 decorated shapes up to degree 4) is
    # checked once; the bar cache builds only products and one-atom full
    # sums
    import nc_hopf
    from nc_hopf import tensor
    checked = []
    real = tensor._check_atom
    monkeypatch.setattr(tensor, "_check_atom",
                        lambda a, word: checked.append(a) or real(a, word))
    nc_hopf.clear_caches()
    try:
        out = io.StringIO()
        assert cli.main(["verify", "unshuffle", "--max-degree", "4"],
                        out=out) == 0
        assert len(checked) == len(set(checked)) == 52
        assert tensor._bar_coproduct.cache_info().misses == 231
    finally:
        nc_hopf.clear_caches()


def count_pairing_work(monkeypatch, request):
    """The functional evaluations and ``delta_bar`` calls that ``request``
    makes, on functionals it builds itself."""
    evaluations, coproducts = [], []
    init = functionals.LinearFunctional.__init__
    delta_bar = functionals.delta_bar

    def counted_init(self, algebra, truncation, eval_basis, *args, **kw):
        def ev(b):
            evaluations.append(b)
            return eval_basis(b)
        init(self, algebra, truncation, ev, *args, **kw)

    def counted_delta_bar(b, variant="full"):
        coproducts.append((b, variant))
        return delta_bar(b, variant)

    monkeypatch.setattr(functionals.LinearFunctional, "__init__",
                        counted_init)
    monkeypatch.setattr(functionals, "delta_bar", counted_delta_bar)
    request()
    return len(evaluations), len(coproducts)


def test_fixed_point_and_extraction_pairing_work(monkeypatch):
    # Phi of one decorated atom of degree 5 reads kappa and Phi on the legs
    # of its left half, recursively; the extraction then solves for kappa
    # on the atoms of the same legs, reading Phi from its cache
    from nc_hopf.partitions import NonCrossingPartition
    from nc_hopf.tensor import DecoratedNC

    def request():
        algebra = functionals.Algebra(functionals.NC, ("a", "b"))
        singletons = NonCrossingPartition(tuple((i,) for i in range(1, 6)))
        atom = DecoratedNC(singletons, ("a", "b", "b", "a", "b"))
        kappa = functionals.random_infinitesimal(algebra, 5, seed=5)
        phi = functionals.solve_left_fixed_point(kappa)
        assert functionals.extract_infinitesimal(phi)((atom,)) == kappa(
            (atom,))

    assert count_pairing_work(monkeypatch, request) == (65, 31)


def test_convolution_pairing_work(monkeypatch):
    # one three-atom bar word of degree 5, paired against its full
    # coproduct and both of its halves
    def request():
        algebra = functionals.Algebra(functionals.WORDS, ("a", "b"))
        f = functionals.random_functional(algebra, 5, seed=1)
        g = functionals.random_functional(algebra, 5, seed=2)
        b = (("a", "b"), ("b",), ("a", "a"))
        functionals.convolve(f, g)(b)
        functionals.half_convolve(f, g, "left")(b)
        functionals.half_convolve(f, g, "right")(b)

    assert count_pairing_work(monkeypatch, request) == (37, 3)
