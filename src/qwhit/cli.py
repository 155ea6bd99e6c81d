"""Command line front end.

Every subcommand runs exact computations, validates the invariants it
advertises, and emits one JSON report on stdout (or to ``--out``).  Reports
carry ``"schema": "1"`` and are byte-identical for identical flags and seed;
wall-clock time goes to stderr so it never perturbs the payload.

Exit codes: 0 when every check in the report passed, 1 when a check or an
internal invariant failed (diagnostic on stderr), 2 for unknown commands,
malformed flag values, an unwritable ``--out`` path or a malformed
``QWHIT_STEP_BUDGET``.

The environment variable ``QWHIT_STEP_BUDGET`` caps rewriting steps in the
algebra engine; :mod:`qwhit.pbw` reads it each time it builds a PBW
algebra, which a ``toda`` call never does.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from math import lcm

# The other commands' handlers are in commands, imported by the first call
# that runs one, and they import acceptance, crosssec and pbw where they
# use them, so a fresh process compiles only the modules its command needs.
from . import rootsys, toda, uqalg
# commands calls charpoly as cli.charpoly, where the benchmark times it
from .ratmat import _canon, charpoly, rat_text

F = Fraction


# -- flag parsing and serialization helpers -----------------------------------

# An int flag entry has one spelling: ASCII digits, no sign, space or 0 first.
_PLAIN_INT = re.compile(r"0|[1-9][0-9]*")


def _parse_ints(text):
    items = text.split(",")
    try:  # int() refuses an entry of more digits than it converts
        if all(map(_PLAIN_INT.fullmatch, items)):
            return tuple(map(int, items))
    except ValueError:
        pass
    raise ValueError(f"expected a comma list of integers, got {text!r}")


# A decimal exponent makes Fraction build a power of ten: "1e-100000000"
# alone would allocate a 10^100000000 integer, so larger ones are refused.
MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def _parse_rational(text):
    """One rational flag value; raises ValueError or ZeroDivisionError."""
    m = _DECIMAL_EXPONENT.search(text)
    if m and abs(int(m.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent above {MAX_DECIMAL_EXPONENT}")
    return F(text)


def _parse_rationals(text):
    try:
        return tuple(_parse_rational(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"expected a comma list of rationals, got {text!r}: {exc}")


# One decoder for every matrix flag: a JSON number keeps its text, so an
# entry is never read through a binary float.
_MATRIX_JSON = json.JSONDecoder(parse_float=str, parse_int=str)
# An entry of this form is read as ints; any other goes through
# _parse_rational, which accepts and refuses exactly what it did alone.
_INT_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")


def _parse_matrix(text):
    """A matrix given as JSON rows of rationals; a JSON number is read from
    its text, like a string entry, and never through a binary float."""
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        rows = _MATRIX_JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise ValueError("matrix JSON must be a list of rows")
    try:
        rows = [[_parse_entry(x) for x in row] for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"matrix entries must be rational strings: {exc}")
    d = lcm(*(den for row in rows for _, den in row))
    return _canon(tuple(tuple(x * (d // den) for x, den in row)
                        for row in rows), d)


def _parse_entry(x):
    """(numerator, denominator > 0) of one decoded matrix entry."""
    if isinstance(x, str) and _INT_RATIONAL.fullmatch(x):
        num, _, den = x.partition("/")
        return int(num), int(den) if den else 1
    r = _parse_rational(str(x))
    return r.numerator, r.denominator


def _ser_mat(m):
    den = m.den
    return [[rat_text(x, den) for x in row] for row in m.rows]


def _ser_vec(v):
    return [str(x) for x in v]


def _ser_pbw(x):
    out = []
    for (fw, lam, ew), coeff in x.sorted_terms():
        out.append({
            "f": list(fw),
            "lambda": rootsys.weight_text(lam),
            "e": list(ew),
            "coeff": str(coeff),
        })
    return out


def _ser_diffop(op):
    out = []
    for lam, zpart in sorted(op.terms.items()):
        for zexp, coeff in sorted(zpart.items()):
            out.append({
                "shift": rootsys.weight_text(lam),
                "z": list(zexp),
                "coeff": str(coeff),
            })
    return out


_quote = json.encoder.encode_basestring_ascii


def _json_text(tree):
    """The text json.dumps(tree, indent=2) gives for a report tree of dicts
    with str keys, lists, tuples, strs, ints, bools and None; TypeError on
    anything else, a float included.  Strings go through the json module's
    C escaper."""
    out = []
    _write_json(tree, "\n", out.append)
    return "".join(out)


def _write_json(x, nl, put):
    """Put the pieces of x's text, nl being the line break and indent that
    x starts after."""
    if isinstance(x, str):
        put(_quote(x))
    elif isinstance(x, (dict, list, tuple)):
        if not x:
            put("{}" if isinstance(x, dict) else "[]")
            return
        inner = nl + "  "
        sep, comma = inner, "," + inner
        if isinstance(x, dict):
            put("{")
            for k, v in x.items():
                put(sep)
                put(_quote(k))  # TypeError unless k is a str
                put(": ")
                if isinstance(v, str):  # a leaf, most of a report
                    put(_quote(v))
                else:
                    _write_json(v, inner, put)
                sep = comma
            put(nl + "}")
        else:
            put("[")
            for v in x:
                put(sep)
                if isinstance(v, str):
                    put(_quote(v))
                else:
                    _write_json(v, inner, put)
                sep = comma
            put(nl + "]")
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    else:
        raise TypeError(f"a report holds no {type(x).__name__}")


def _root_system(args):
    return rootsys.build_root_system(args.type, args.rank)


def _context(args):
    rs = _root_system(args)
    pi = _parse_ints(args.pi) if args.pi else None
    return rootsys.coxeter_context(rs, pi)


def _character_values(text, rank):
    if text is None:
        return (F(1),) * rank
    vals = _parse_rationals(text)
    if len(vals) != rank:
        raise ValueError(f"expected {rank} character values, got {len(vals)}")
    return vals


# -- the toda command ---------------------------------------------------------

def cmd_toda(args):
    ctx = _context(args)
    rank = ctx.rs.rank
    chi_vals = _character_values(args.chi, rank)
    chibar_vals = _character_values(args.chibar, rank)
    alg = uqalg.Algebra(ctx)
    system = toda.build_toda_system(alg, chi_vals, chibar_vals)
    match = toda.closed_form_holds(system)
    outputs = {
        "chi": _ser_vec(chi_vals),
        "chibar": _ser_vec(chibar_vals),
        "hamiltonians": [_ser_diffop(h) for h in system.hamiltonians],
        "closed_form_match": match,
    }
    checks = {"closed_form_match": match}
    if args.check_commute:
        zero = toda.commutes(*system.hamiltonians)
        outputs["commutators_zero"] = zero
        checks["commutators_zero"] = zero
    return outputs, checks


# -- the parser and the handlers ----------------------------------------------

_TYPE_RANK = (("--type", {"required": True,
                          "help": "series letter, e.g. A, B, G"}),
              ("--rank", {"type": int, "required": True}))
_PI = (("--pi", {"help": "permutation as a comma list, e.g. 2,1"}),)
_CHI = ("--chi", {"help": "character values, comma rationals"})
_TRIALS = (("--trials", {"type": int, "default": 50}),
           ("--seed", {"type": int, "default": 7}))

# Each command's help line and flags besides --out, in the order of
# ``qwhit --help``.
_SUBCOMMANDS = {
    "root-system": ("Cartan datum and positive roots", _TYPE_RANK),
    "cayley": ("Coxeter element and Cayley transform", _TYPE_RANK + _PI),
    "orbits": ("root orbits of the Coxeter element", _TYPE_RANK + _PI),
    "qbinom-scan": ("vanishing set of the alternating Gauss sum", (
        ("--m", {"type": int, "help": "largest order to scan (default 6)"}),
        ("--n", {"type": int, "help": "alias for --m"}))),
    "serre-check": ("deformed Serre relator character sums", _TYPE_RANK + _PI),
    "casimir": ("central element of a representation",
                _TYPE_RANK + _PI + (("--rep", {"default": "V1"}),)),
    "whittaker": ("Whittaker projection of the central element",
                  _TYPE_RANK + _PI + (("--rep", {"default": "V1"}), _CHI)),
    "toda": ("deformed Toda difference operators", _TYPE_RANK + _PI + (
        _CHI, ("--chibar", {"help": "opposite character values"}),
        ("--check-commute", {"action": "store_true"}))),
    "cross-section": ("conjugate a cell element onto the slice", (
        ("--matrix", {"help": "JSON rows of rational strings"}),
        ("--s-rep", {"help": "alternative cell representative (JSON "
                             "matrix); reports the membership test only"}),
        ("--n", {"type": int, "help": "random-trial mode: matrix size"}),
    ) + _TRIALS),
    "kostant-section": ("sweep a traceless upper-triangular matrix onto the "
                        "companion slice", (
        ("--b", {"help": "JSON rows of rational strings"}),
        ("--n", {"type": int, "help": "random-trial mode: matrix size"}),
    ) + _TRIALS),
    "rmatrix-check": ("modified classical Yang-Baxter residual", (
        ("--n", {"type": int, "help": "matrix size (default 3)"}),
    ) + _TRIALS),
    "gstar": ("dressing-orbit point, q-map and characters", (
        ("--n", {"type": int, "help": "matrix size (checked against --x)"}),
        ("--x", {"help": "torus diagonal, comma rationals, product 1"}),
        ("--u-params", {"help": "subdiagonal coordinates, comma rationals"}),
        ("--matrix", {"help": "unipotent upper factor (JSON matrix)"}))),
    "acceptance": ("run the acceptance criteria", (
        ("--suite", {"default": "all",
                     "help": "'all' or a criterion number 1..13"}),
        ("--seed", {"type": int, "default": 7}))),
}


@functools.cache
def build_parser(command):
    """The parser with the subparser of command only, or with every
    subparser when command is None (--help, and a missing or unknown
    command).  With one subparser an explicit metavar keeps every command
    in the top-level usage, which argparse prints for an unrecognized
    argument; the full parser leaves it unset, since argparse would also
    name the command by it in its "invalid choice" and "required" errors."""
    parser = argparse.ArgumentParser(
        prog="qwhit",
        description="Exact checks for Coxeter realizations, Whittaker "
                    "reduction, q-Toda operators and cross-sections.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_SUBCOMMANDS))
    for name in _SUBCOMMANDS if command is None else (command,):
        text, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", help="write the JSON report to this file")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _other_command(args):
    """Run a command other than toda: its handler is in ``commands``,
    imported at the first such call, so a toda call compiles none of the
    other handlers."""
    from . import commands

    return commands.HANDLERS[args.command](args)


# A function per command, which the benchmark wraps one by one.
HANDLERS = dict.fromkeys(_SUBCOMMANDS, _other_command)
HANDLERS["toda"] = cmd_toda


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    handler = HANDLERS[args.command]
    started = time.monotonic()
    try:
        outputs, checks = handler(args)
    except ValueError as exc:
        print(f"qwhit {args.command}: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"qwhit {args.command}: invariant failure: {exc}",
              file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"qwhit {args.command}: {exc}", file=sys.stderr)
        return 1
    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "out") and v is not None
    }
    report = {
        "schema": "1",
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "checks": checks,
    }
    payload = _json_text(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"qwhit {args.command}: cannot write --out: {exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if all(checks.values()):
        return 0
    failed = sorted(k for k, v in checks.items() if not v)
    print(f"qwhit {args.command}: failed checks: {', '.join(failed)}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
