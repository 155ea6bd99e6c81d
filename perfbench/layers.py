"""Span-recording wrappers around qwhit's public functions.

``instrument(tracer)`` replaces, for the length of a ``with`` block, each
function below by a wrapper that runs the original inside a span named
after its per-layer metric.  The functions are patched where callers look
them up (module attributes, ``Algebra.__init__``, and the tables
``acceptance.CRITERIA`` and ``cli.HANDLERS``), so a traced call goes
through ``qwhit.cli.main`` and the program's own call sequence; nothing
of a subcommand is re-implemented here.  Time a function spends in a
nested wrapped call belongs to the nested span (see ``spans.self_times``).
"""

from __future__ import annotations

import contextlib
import functools

from qwhit import acceptance, cli, crosssec, rootsys, toda, uqalg

# The matrix sizes of the cross-section workloads.  ``charpoly``,
# ``bruhat_cell_test`` and ``cross_section`` get a span per size; calls at
# other sizes run unwrapped and count towards their caller's span.
SIZES = (4, 12)

# (module or class, attribute, span name).  A name ending in "." takes the
# size of the call's first argument, as in "ratmat.charpoly_s.n12".
WRAPPED = (
    (rootsys, "build_root_system", "rootsys.context_s"),
    (rootsys, "coxeter_context", "rootsys.context_s"),
    (uqalg, "rep_matrices", "uqalg.rep_build_s"),
    (uqalg, "casimir_CV", "uqalg.casimir_s"),
    (uqalg, "rho_chi", "uqalg.projection_s"),
    (toda, "lower_rep", "toda.lowering_s"),
    (toda, "phi_conjugate", "toda.lowering_s"),
    (toda, "closed_form_M1", "toda.closed_form_s"),
    (toda, "commutator", "toda.commutator_s"),
    (crosssec, "bruhat_cell_test", "crosssec.cell_test_s."),
    (crosssec, "cross_section", "crosssec.cross_section_s."),
    # charpoly as bound by each module that imported it by name
    (cli, "charpoly", "ratmat.charpoly_s."),
    (crosssec, "charpoly", "ratmat.charpoly_s."),
    (acceptance, "charpoly", "ratmat.charpoly_s."),
    # the command line's own flag parsing and report serialisation
    (cli, "_parse_ints", "cli.overhead_s"),
    (cli, "_parse_rationals", "cli.overhead_s"),
    (cli, "_parse_matrix", "cli.overhead_s"),
    (cli, "_ser_mat", "cli.overhead_s"),
    (cli, "_ser_vec", "cli.overhead_s"),
    (cli, "_ser_pbw", "cli.overhead_s"),
    (cli, "_ser_diffop", "cli.overhead_s"),
)


def _max(old, new):
    return max(old, new)


def _casimir_terms(tr, c):
    tr.count("uqalg.casimir_terms", len(c.terms))


# Counts read from a wrapped function's result, by span name.
COUNTERS = {"uqalg.casimir_s": _casimir_terms}


def _wrap(tr, fn, name):
    sized = name.endswith(".")
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name
        if sized:
            if len(args[0]) not in SIZES:
                return fn(*args, **kwargs)
            span = f"{name}n{len(args[0])}"
        with tr.span(span):
            result = fn(*args, **kwargs)
        if counter:
            counter(tr, result)
        return result

    return wrapper


def _algebra_init(tr, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        with tr.span("uqalg.algebra_build_s"):
            init(self, *args, **kwargs)
        # Rules summed over the algebras of one call; longest lead word.
        tr.count("uqalg.serre_rules", len(self.rules))
        tr.count("uqalg.serre_max_lead",
                 max((len(lead) for lead, _ in self.rules), default=0), _max)

    return wrapper


@contextlib.contextmanager
def instrument(tr):
    """Wrap every function of ``WRAPPED``, ``Algebra.__init__``, each
    acceptance criterion and each CLI handler in spans on ``tr``; restore
    the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    saved += [(uqalg.Algebra, "__init__", uqalg.Algebra.__init__),
              (acceptance, "CRITERIA", acceptance.CRITERIA),
              (cli, "HANDLERS", cli.HANDLERS)]
    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, _wrap(tr, getattr(owner, attr), name))
        uqalg.Algebra.__init__ = _algebra_init(tr, uqalg.Algebra.__init__)
        acceptance.CRITERIA = tuple(
            _wrap(tr, fn, f"acceptance.c{k:02d}_s")
            for k, fn in enumerate(acceptance.CRITERIA, 1))
        # A handler's own glue code is kept apart from cli.overhead_s.
        cli.HANDLERS = {cmd: _wrap(tr, fn, "cli.handler")
                        for cmd, fn in cli.HANDLERS.items()}
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def traced_main(tr, argv):
    """``cli.main(argv)`` with every layer wrapped, inside a root span whose
    self time is the command line's own work: argument parsing, building
    and writing the report."""
    with instrument(tr), tr.span("cli.overhead_s"):
        return cli.main(argv)
