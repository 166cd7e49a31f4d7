"""The mutant table: small faults, each put into one file of
``src/nc_hopf`` by replacing an exact old text, with the Tier-1 test that
must fail while the fault is there.

``python tools/mutants.py`` applies each row in a temporary copy of the
repository, runs its check, and reports the mutant killed or survived.
``tests/test_mutants.py`` holds the table to the source: each old text
occurs exactly once in its file, so a row cannot rot silently."""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str       # under src/nc_hopf
    old: str        # occurs exactly once in the file
    new: str
    check: str      # a pytest node id that must fail with the mutant in


MUTANTS = (
    Mutant("decoration-one-letter-short", "tensor.py",
           "atoms = [(shape, letters[start:end])",
           "atoms = [(shape, letters[start:end - 1])",
           "tests/test_tensor.py::TestNcCoproduct"
           "::test_decorated_halves_match_split_definition"),
    Mutant("type-table-row-off-by-one", "transforms.py",
           "(lam, *(weight(n, lam) for weight in _WEIGHTS))",
           "(lam, *(weight(n, lam) + (lam == (2, 1)) for weight in _WEIGHTS))",
           "tests/test_transforms.py::TestTypeWeights::test_type_table_rows"),
    Mutant("type-sums-read-a-tail-one-position-off", "transforms.py",
           "_gather(tuple([position[lam[1:]] for lam in types[1:]])))",
           "_gather(tuple([position[lam[1:]] - 1 for lam in types[1:]])))",
           "tests/test_transforms.py::TestTypeWeights"
           "::test_type_sum_is_the_lattice_sum"),
    Mutant("series-drops-the-term-of-the-constant-term", "transforms.py",
           "total = below[d] + f[d]",
           "total = below[d]",
           "tests/test_transforms.py::TestFree::test_free_moment_table"),
    Mutant("bell-drops-the-term-of-b0", "transforms.py",
           "total = b[n] * values[0] + values[n]",
           "total = b[n] * values[0]",
           "tests/test_transforms.py::TestClassical"
           "::test_bell_polynomial_table"),
    Mutant("sequences-keep-integral-fractions", "transforms.py",
           "out.append(exact(v))",
           "out.append(v)",
           "tests/test_value_types.py"
           "::test_integral_values_are_stored_as_ints"),
    Mutant("m2k-reads-cumulants-as-moments", "transforms.py",
           '    _expect(m, MomentSequence)\n    check_enumeration_size("nc"',
           '    check_enumeration_size("nc"',
           "tests/test_transforms.py::TestSequenceTypes"
           "::test_the_wrong_sequence_type_raises_before_any_work"),
    Mutant("unchecked-values-drop-their-last-slot", "partitions.py",
           "for name, value in slots.items():",
           "for name, value in list(slots.items())[:-1]:",
           "tests/test_partitions.py::TestUncheckedConstruction"
           "::test_generated_partitions_pass_the_constructor"),
    Mutant("split-walk-drops-trailing-component", "partitions.py",
           "return ((mask, q, closed + (run,) if run else closed)",
           "return ((mask, q, closed)",
           "tests/test_partitions.py::TestAdmissibleSplits"
           "::test_components_partition_the_complement"),
    Mutant("convolve-on-the-left-half", "functionals.py",
           'lambda b: _pair(f, g, delta_bar(b, "full")),',
           'lambda b: _pair(f, g, delta_bar(b, "left+")),',
           "tests/test_functionals.py::TestConvolution"
           "::test_convolution_unit"),
    Mutant("fixed-point-drops-later-atoms", "functionals.py",
           'delta_bar(b[:1], "left+"), b[1:])',
           'delta_bar(b[:1], "left+"))',
           "tests/test_functionals.py::TestFixedPoint"
           "::test_fixed_point_equation_holds"),
    Mutant("crossing-walk-keeps-singletons", "partitions.py",
           "        if x == block[-1]:\n            stack.pop()",
           "        if x == block[-1] and len(block) > 1:\n"
           "            stack.pop()",
           "tests/test_partitions.py::TestCrossingDetection"
           "::test_stack_walk_matches_pairwise_definition"),
    Mutant("tree-consistency-through-the-bare-map", "verify.py",
           "_transported(shape, gapped_hierarchy_tree) != tree_coproduct(",
           "_transported(shape, hierarchy_tree) != tree_coproduct(",
           "tests/test_acceptance.py::test_criterion_13_tree_consistency"),
    Mutant("character-check-misses-a-product-too-high", "verify.py",
           "if phi_fix(a + b) != phi_fix(a) * phi_fix(b):",
           "if phi_fix(a + b) < phi_fix(a) * phi_fix(b):",
           "tests/test_verify.py"
           "::test_character_bijection_fails_off_a_character"),
    Mutant("tree-reader-does-not-count", "trees.py",
           '            check_enumeration_size("nc", count)\n',
           "",
           "tests/test_trees.py::TestSizeGuard"
           "::test_readers_stop_past_the_cap"),
    Mutant("cap-check-off-by-one", "partitions.py",
           "if not (1 <= n <= cap):",
           "if not (1 <= n <= cap + 1):",
           "tests/test_trees.py::TestSizeGuard"
           "::test_a_lowered_cap_stops_the_reader_at_its_first_vertex"
           "_past_it"),
    Mutant("record-equality-ignores-the-class", "partitions.py",
           "        if type(other) is not type(self):\n",
           "        if not isinstance(other, Record):\n",
           "tests/test_value_types.py"
           "::test_set_and_noncrossing_partitions_stay_unequal"),
    Mutant("fixed-point-takes-any-functional", "functionals.py",
           "if not isinstance(kappa, InfinitesimalCharacter):",
           "if False:",
           "tests/test_functionals.py::TestFixedPoint"
           "::test_only_an_infinitesimal_character_is_taken"),
    Mutant("splits-swap-the-q-part-and-the-components", "partitions.py",
           "return tuple([(part(q), tuple(map(part, components)))",
           "return tuple([(tuple(map(part, components)), part(q))",
           "tests/test_partitions.py::TestAdmissibleSplits"
           "::test_matches_definition_and_nesting_forest"),
    Mutant("split-listing-drops-the-empty-q-mark", "cli.py",
           'q.text() if q.blocks else "{}"',
           "q.text()",
           "tests/test_cli.py::TestSplitAndTree::test_split_listing"),
)
