"""Command-line front end.

Grammar: ``nc-hopf <command> <subject> [flags]``.  All numeric output is
exact (rationals as ``p/q``, polynomials in canonical monomial order), and
identical invocations produce byte-identical output so the results can be
kept as golden files.

Exit status: 0 on success, 1 on a domain error (bad partition, failed
verification, ...), 2 on a usage error, 3 on an internal fault (one of
``errors.INTERNAL_FAULTS``: two computation routes disagreed, say).
"""

from __future__ import annotations

import argparse
import sys

# The layer modules are registered lazily by the package and run on first
# use, so each command runs only the layers it calls; ``errors`` is read by
# the handlers in ``main`` whatever the command.
from . import (coefficients, partitions, tensor, transforms, trees,
               verify)
from .errors import (INTERNAL_FAULTS, InconsistencyError, NcHopfError,
                     ParseError)

# order of a symbolic transform without --n
_SYMBOLIC_ORDER = 8

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nc-hopf",
        description="Exact combinatorics of non-crossing partitions, "
                    "unshuffle bialgebras, and moment-cumulant transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list or count partitions")
    p.add_argument("lattice", choices=["nc", "set"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("coproduct", help="coproduct of one generator")
    p.add_argument("kind", choices=["nc", "word", "tree"])
    p.add_argument("subject", help='e.g. "{1,4}{2,3}", "a.b.c", "(()())"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("moebius", help="Möbius function of an interval")
    p.add_argument("lattice", choices=["nc", "set"])
    p.add_argument("lo")
    p.add_argument("hi")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("transform", help="moment/cumulant transforms")
    p.add_argument("flavor", choices=["classical", "free"])
    p.add_argument("--direction", required=True,
                   choices=["c2m", "m2c", "k2m", "m2k", "multi-m2k"])
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--n", type=int, default=None,
                   help=f"order of a --symbolic transform (default "
                        f"{_SYMBOLIC_ORDER})")
    p.add_argument("--in", dest="infile", default=None,
                   help="JSON sequence or moment-table file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("split", help="admissible splits of a partition")
    p.add_argument("subject")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tree", help="hierarchy tree of a partition")
    p.add_argument("subject")
    p.add_argument("--coproduct", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--json", action="store_true")
    return parser


def _read_json(path: str):
    """The JSON value in the UTF-8 file at ``path``.  Malformed JSON,
    nesting too deep for the reader included, and bytes that are not UTF-8
    are bad input.  ``json`` is imported here and in ``_dumps`` only, so a
    command that neither reads nor writes JSON never loads it."""
    import json
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                             f"{exc.start}") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None


def _dumps(value) -> str:
    """``json.dumps(value)``."""
    import json
    return json.dumps(value)


def _parse_shape(text: str) -> partitions.NonCrossingPartition:
    """A partition subject, held to the non-crossing cap: its coproduct,
    splits and tree cuts run over up to 2^k subsets of its k blocks."""
    shape = partitions.parse_partition(text)
    partitions.check_enumeration_size("nc", shape.size)
    return shape


def _parse_word(text: str) -> tuple[str, ...]:
    """A word subject, held to the non-crossing cap: its coproduct runs over
    the 2^n subsets of its n letters."""
    word = tensor.parse_word(text)
    partitions.check_enumeration_size("nc", len(word))
    return word


def _cmd_enumerate(args, out) -> int:
    if args.count:
        partitions.check_enumeration_size(args.lattice, args.n)
        count = (partitions.catalan_number(args.n) if args.lattice == "nc"
                 else partitions.bell_number(args.n))
        print(_dumps({"count": count}) if args.json else count, file=out)
        return 0
    # each partition is written as it is made; the cap is checked first
    parts = partitions.iter_partitions(args.lattice, args.n)
    if args.json:  # the bytes of json.dumps on the whole list
        out.write("[")
        for i, p in enumerate(parts):
            out.write((", " if i else "") + _dumps(p.to_json()))
        print("]", file=out)
    else:
        for p in parts:
            print(p.text(), file=out)
    return 0


def _coproduct_rows(terms, legs, order=str) -> list[dict]:
    """JSON rows of a coproduct value: the coefficient, then the fields that
    ``legs`` makes of each key, sorted by the text ``order`` gives a key."""
    return [{"coefficient": coefficients.coeff_str(c), **legs(key)}
            for key, c in sorted(terms.items(), key=lambda kv: order(kv[0]))]


def _barword_order(key) -> str:
    """``str(key)`` with each atom written as the value class it once was,
    a word ``Word(letters=(...))`` and a decorated atom
    ``DecoratedNC(shape=NonCrossingPartition(blocks=...), word=...)``: the
    text the rows of ``coproduct word|nc --json`` have always been sorted
    by."""
    if key and tensor._is_atom(key):
        if type(key[0]) is str:
            return f"Word(letters={key!r})"
        blocks, word = key
        return (f"DecoratedNC(shape=NonCrossingPartition(blocks={blocks!r}), "
                f"word={word!r})")
    inner = ", ".join(map(_barword_order, key))
    return f"({inner},)" if len(key) == 1 else f"({inner})"


def _tree_legs(key) -> dict:
    rooted, pruned = key
    return {"rooted": trees.tree_text(rooted),
            "pruned": [trees.tree_text(t) for t in pruned]}


def _barword_legs(key) -> dict:
    left, right = key
    return {"left": tensor.barword_text(left),
            "right": tensor.barword_text(right)}


def _cmd_coproduct(args, out) -> int:
    if args.kind == "tree":
        terms = trees.tree_coproduct(trees.parse_tree(args.subject))
        if args.json:
            print(_dumps(_coproduct_rows(terms, _tree_legs)), file=out)
        else:
            print(trees.tree_tensor_text(terms), file=out)
        return 0
    if args.kind == "nc":
        terms = tensor.delta_nc(
            tensor.DecoratedNC(_parse_shape(args.subject)))
    else:
        terms = tensor.delta_word(_parse_word(args.subject))
    if args.json:
        print(_dumps(_coproduct_rows(terms, _barword_legs, _barword_order)),
              file=out)
    else:
        print(tensor.tensor_text(terms), file=out)
    return 0


def _cmd_moebius(args, out) -> int:
    noncrossing = args.lattice == "nc"
    lo = partitions.parse_partition(args.lo, noncrossing=noncrossing)
    hi = partitions.parse_partition(args.hi, noncrossing=noncrossing)
    value = partitions.moebius(args.lattice, lo, hi)
    print(_dumps({"moebius": value}) if args.json else value, file=out)
    return 0


def _sequence_lines(prefix: str, values, out, as_json: bool):
    if as_json:
        print(_dumps({"kind": prefix, "values": [
            coefficients.coeff_str(v) for v in values]}), file=out)
        return
    for i, v in enumerate(values, start=1):
        print(f"{prefix}_{i} = {coefficients.coeff_str(v)}", file=out)


def _cmd_transform(args, out) -> int:
    direction = args.direction
    flavor = (transforms.CLASSICAL if args.flavor == "classical"
              else transforms.FREE)
    flavor_dirs = {"classical": {"c2m", "m2c"},
                   "free": {"k2m", "m2k", "multi-m2k"}}
    if direction not in flavor_dirs[args.flavor]:
        raise NcHopfError(
            f"direction {direction!r} does not apply to {args.flavor}")

    if direction == "multi-m2k":
        if args.symbolic or args.n is not None:
            raise NcHopfError("multi-m2k reads its order from the --in "
                              "table; --symbolic and --n do not apply")
        if not args.infile:
            raise NcHopfError("multi-m2k requires --in with a moment table")
        phi = transforms.multi_moment_map_from_json(_read_json(args.infile))
        r = transforms.generalized_free_cumulants(phi)
        items = sorted(r.table.items(), key=lambda kv: (len(kv[0]), kv[0]))
        if args.json:
            print(_dumps({"alphabet": list(r.alphabet), "values": {
                ".".join(k): coefficients.coeff_str(v) for k, v in items}}),
                file=out)
        else:
            for letters, v in items:
                print(f"R[{'.'.join(letters)}] = "
                      f"{coefficients.coeff_str(v)}", file=out)
        return 0

    if args.symbolic:
        if args.infile:
            raise NcHopfError("--symbolic and --in exclude each other")
        order = args.n if args.n is not None else _SYMBOLIC_ORDER
        if direction in ("c2m", "k2m"):
            seq = transforms.symbolic_cumulants(order, flavor)
        else:
            seq = transforms.symbolic_moments(order, flavor)
    else:
        if not args.infile:
            raise NcHopfError("numeric transforms require --in (or --symbolic)")
        if args.n is not None:
            raise NcHopfError("--n applies only to --symbolic; a numeric "
                              "transform takes its order from the --in file")
        data = _read_json(args.infile)
        if direction in ("c2m", "k2m"):
            seq = transforms.cumulant_sequence_from_json(data, flavor)
        else:
            seq = transforms.moment_sequence_from_json(data)

    # moment results start at m_0 = 1, which is not printed
    route, prefix, first = {
        "c2m": (transforms.classical_moments_from_cumulants, "m", 1),
        "k2m": (transforms.free_moments_from_cumulants, "m", 1),
        "m2c": (transforms.classical_cumulants_from_moments, "c", 0),
        "m2k": (transforms.free_cumulants_from_moments, "k", 0)}[direction]
    _sequence_lines(prefix, route(seq).values[first:], out, args.json)
    return 0


def _cmd_split(args, out) -> int:
    rows = [(q.text() if q.blocks else "{}",
             [c.text() for c in components if c.blocks])
            for q, components in partitions.admissible_splits(
                _parse_shape(args.subject))]
    if args.json:
        print(_dumps([{"selected": q, "components": comps}
                      for q, comps in rows]), file=out)
    else:
        for q, comps in rows:
            print(f"{q} | {' '.join(comps) if comps else '{}'}", file=out)
    return 0


def _cmd_tree(args, out) -> int:
    t = trees.gapped_hierarchy_tree(_parse_shape(args.subject))
    if args.coproduct:
        terms = trees.tree_coproduct(t)
        if args.json:
            data = {"tree": trees.tree_to_json(t),
                    "coproduct": _coproduct_rows(terms, _tree_legs)}
            print(_dumps(data), file=out)
        else:
            print(trees.tree_tensor_text(terms), file=out)
        return 0
    if args.json:
        print(_dumps({"tree": trees.tree_to_json(t),
                      "text": trees.tree_text(t)}), file=out)
    else:
        print(trees.tree_text(t), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    reports = verify.run_suite(args.suite, args.max_degree)
    if args.json:
        print(_dumps([{
            "suite": r.name,
            "passed": r.passed,
            "checks": [{"label": c.label, "ok": c.ok, "detail": c.detail}
                       for c in r.checks]} for r in reports]), file=out)
    else:
        for r in reports:
            print(r.summary(), file=out)
    # under "all", a suite that raised is reported, not propagated
    if any(r.raised for r in reports):
        return 3
    return 0 if all(r.passed for r in reports) else 1


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "coproduct": _cmd_coproduct,
    "moebius": _cmd_moebius,
    "transform": _cmd_transform,
    "split": _cmd_split,
    "tree": _cmd_tree,
    "verify": _cmd_verify,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, out)
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INTERNAL_FAULTS as exc:
        print(f"error: internal fault: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except (NcHopfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
