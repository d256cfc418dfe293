"""Command-line front end.

Subcommands: `genus eval`, `universal coeffs`, `leveln relations`,
`qexpand`, `blowup verify`, and `verify all` (the full verification
suite with a pass/fail table).  All arithmetic is exact; rationals are
printed as "p/q" strings, polynomials in graded-lex order with A > B >
C > D.  Exit status: 0 on success, 1 on failed verification, 2 on
argument or input errors.  A bad command line prints one line on stderr;
-h or --help after any command prefix prints its usage on stdout.  The
parser reads the COMMANDS table; json is imported only where JSON is read
or written.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from .algebra_kernel import _max_str_digits, literal_digits, parse_rational
from .genus_engine import classical_genus, evaluate


def _lazy(name):
    """The submodule ``ellgenus.<name>``, executed on first attribute read.

    A command compiles and runs only the modules it reads: the cohomology
    models, the elliptic ODE, the universal genus and each algebra
    representation too.  The module is registered in ``sys.modules`` and
    bound on the package at once, as an import does, because
    bench/traced_cli.py finds the modules it traces there right after
    ``import ellgenus.cli``.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


blowup = _lazy("blowup")
jacobi_q = _lazy("jacobi_q")
level_n = _lazy("level_n")
criteria = _lazy("criteria")
cohomology_models = _lazy("cohomology_models")
elliptic_ode = _lazy("elliptic_ode")
universal_elliptic = _lazy("universal_elliptic")


def __getattr__(name):
    # The suite's names read as cli.criterion_N and cli.CRITERIA, as
    # bench/tracer.py reads them.  Only these: `from ellgenus.cli import main`
    # asks for __path__, and forwarding that would run the suite every time.
    if name == "CRITERIA" or name.startswith("criterion_"):
        return getattr(criteria, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


GENUS_NAMES = ("phi_ell", "todd", "signature", "a_hat", "euler", "chi_y",
               "a_tilde")


# ---------------------------------------------------------------------------
# exact formatting
# ---------------------------------------------------------------------------


def fr_str(fr):
    fr = Fraction(fr)
    try:
        return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 \
            else str(fr.numerator)
    except ValueError:  # Python converts at most _max_str_digits() digits
        raise InputError(f"the value has more than {_max_str_digits()} "
                         "digits to print") from None


def poly_pairs(p):
    """WeightedPoly -> ordered [monomial-text, coefficient] pairs."""
    out = []
    for e in sorted(p.terms, key=p._grlex_key, reverse=True):
        mon = "*".join(
            n if k == 1 else f"{n}^{k}"
            for n, k in zip(p.ring.names, e) if k
        ) or "1"
        out.append([mon, fr_str(p.terms[e])])
    return out


def laurent_pairs(v):
    """y-Laurent coefficient (element of the formal y-ring) -> ordered pairs."""
    lau = jacobi_q.as_y_laurent(v)
    return [[e, fr_str(c)] for e, c in sorted(lau.items())]


def laurent_str(v):
    out = ""
    for e, c in laurent_pairs(v):
        mon = "1" if e == 0 else ("y" if e == 1 else f"y^{e}")
        mag = fr_str(abs(Fraction(c)))
        body = mag if mon == "1" else (mon if mag == "1" else f"{mag}*{mon}")
        if not out:
            out = ("-" if c.startswith("-") else "") + body
        else:
            out += (" - " if c.startswith("-") else " + ") + body
    return out or "0"


def value_json(v):
    if isinstance(v, (int, Fraction)):
        return fr_str(v)
    if hasattr(v, "terms") and hasattr(v, "ring"):
        return poly_pairs(v)
    if isinstance(v, jacobi_q.RationalFunction):
        return laurent_pairs(v)
    if hasattr(v, "low"):  # a series: a TruncatedSeries or a QSeries
        return {str(n): value_json(v.coeff(n))
                for n in range(max(v.low, 0), v.order + 1)}
    return str(v)


def value_str(v):
    """A value of genus eval, a rational or a WeightedPoly, as text."""
    return fr_str(v) if isinstance(v, (int, Fraction)) else str(v)


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------


class InputError(ValueError):
    pass


def resolve_manifold(sel, max_dim):
    """catalog:NAME, inline JSON (a value starting with { or [), or a
    path to a JSON file, refused before it is built if its dimension is
    above max_dim, the command's limit (cohomology_models.check_size)."""
    if sel.startswith("catalog:"):
        return cohomology_models.catalog(sel[len("catalog:"):], max_dim)
    import json
    from .manifold_json import model_from_json
    inline = sel.lstrip().startswith(("{", "["))
    where = "inline manifold JSON" if inline else f"manifold JSON in {sel!r}"
    try:
        if inline:
            obj = json.loads(sel)
        else:
            with open(sel) as fh:
                obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read manifold file {sel!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {where}: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise InputError(f"bad {where}: nested too deeply") from None
    return model_from_json(obj, max_dim)


def resolve_genus(sel, order):
    """A genus name, or an explicit point 'A,B,C,D' of rationals, whose
    components have at most GENUS_POINT_MAX_WORK // order digits."""
    if "," in sel:
        parts = sel.split(",")
        if len(parts) != 4:
            raise InputError("genus point needs four components A,B,C,D")
        try:
            vals = [parse_rational(p.strip()) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad genus point {sel!r}: {exc}") from exc
        _at_most(f"--genus digits per component at order {order}",
                 max(literal_digits(p) for p in parts),
                 GENUS_POINT_MAX_WORK // order)
        # at the point first: the same exact value as specialising phi_ell
        ode = elliptic_ode
        h = ode.solve_h(ode.abcd_to_q(ode.ABCDPoint(*vals)), order)
        return ode.q_of_h(h, name=f"phi_ell|({sel})")
    name = sel.strip().lower()
    if name == "phi_ell":
        return universal_elliptic.phi_ell(order)
    if name in GENUS_NAMES:
        return classical_genus(name, order=order)
    raise InputError(
        f"unknown genus {sel!r}; use one of {', '.join(GENUS_NAMES)} "
        "or an explicit point A,B,C,D"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _manifold_label(m, sel):
    default = sel[len("catalog:"):] if sel.startswith("catalog:") else sel
    return getattr(m, "name", None) or default


def cmd_genus_eval(args, out):
    m = resolve_manifold(args.manifold, GENUS_MAX_DIM)
    # the value reads Q only through x^dim, so --order beyond it changes
    # nothing; a genus needs order >= 1 even on a point
    spec = resolve_genus(args.genus, max(m.dim, 1))
    v = evaluate(spec, m)
    if args.format == "json":
        _write_json({"genus": spec.name, "manifold": _manifold_label(m, args.manifold),
                     "dim": m.dim, "value": value_json(v)}, out)
    else:
        out.write(f"{spec.name}({_manifold_label(m, args.manifold)}) = {value_str(v)}\n")
    return 0


def cmd_universal_coeffs(args, out):
    order = _at_most("--order", args.order, UNIVERSAL_MAX_ORDER)
    spec = universal_elliptic.phi_ell(order)
    rows = [(k, spec.q.coeff(k)) for k in range(1, order + 1)]
    if args.format == "json":
        _write_json({"coefficients": {f"a{k}": value_json(c) for k, c in rows}},
                    out)
    else:
        for k, c in rows:
            out.write(f"a{k} = {c}\n")
    return 0


# Each limit with the cold runs it was set at, in raw seconds on a shared
# 2-CPU host; the time grows steeply above each one.
# - LEVELN_MAX_N: leveln relations --N 14 took 8.0 to 12.1 s and 15 took
#   22.5 s (BENCH_pr24.json).  The integer eliminants have since brought
#   14 to 0.87 to 0.98 s (BENCH_pr29.json); no larger N has been timed.
# - BLOWUP_MAX_N: every level up to 66 took at most about 10 s, the
#   slowest 61 at 6.4 to 9.6 s, and 67 took 12.7 to 15.0 s
#   (BENCH_pr25.json).
# - UNIVERSAL_MAX_ORDER: universal coeffs --order 92 took 8.1 to 9.9 s and
#   94 took 11.3 s (BENCH_pr25.json); 92 now takes 5.4 to 6.1 s
#   (BENCH_pr27.json).
# - GENUS_MAX_DIM, QEXPAND_MAX_DIM, QEXPAND_MAX_WORK (--qorder times the
#   dimension, at least 2) and BLOWUP_MAX_WORK ((--qorder + 1) phi(N)):
#   chi_y on catalog:CP40 took 7.5 s and on CP42 10.1 to 11.1 s; qexpand
#   of W32 at --qorder 15 took 9.9 s; blowup verify --N 61 --qorder 2 and
#   --N 66 --qorder 8 took 9.4 s each (BENCH_pr26.json).  QEXPAND_MAX_DIM
#   is also the largest dimension of a JSON SU class.
# - GENUS_POINT_MAX_WORK (the digits of a genus point's largest component
#   times the order, the dimension but at least 1): 100-digit components
#   took 1.0 to 1.3 s on catalog:CP40 and at most 3.8 s as fractions on
#   CP20 x CP20; on CP40 integer points print up to 106 digits, and 107
#   exceed Python's 4300-digit conversion of the value (BENCH_pr30.json).
# A manifold is checked against its command's limit before it is built
# (resolve_manifold).
LEVELN_MAX_N = 14
BLOWUP_MAX_N = 66
UNIVERSAL_MAX_ORDER = 92
GENUS_MAX_DIM = 40
QEXPAND_MAX_DIM = 32
QEXPAND_MAX_WORK = 480
GENUS_POINT_MAX_WORK = 4000
BLOWUP_MAX_WORK = 180


def _at_most(what, value, limit):
    """value, checked against its limit before any algebra."""
    if value > limit:
        raise InputError(f"{what} must be at most {limit}, got {value}")
    return value


def cmd_leveln_relations(args, out):
    N = _at_most("--N", args.N, LEVELN_MAX_N)
    data = level_n.compute_level_data(N)
    r_lower_q, r_upper_q = data.r_lower_q(), data.r_upper_q()
    res = level_n.eliminate(data)
    res_q = level_n.eliminant(r_lower_q, r_upper_q)
    pres = level_n.GradedIdealPresentation((1, 2, 3, 4), (N - 1, N + 1))
    h0 = level_n.degree_h0(pres)
    if args.format == "json":
        _write_json({
            "N": N,
            "relations_abcd": {f"R{N - 1}": poly_pairs(data.r_lower),
                               f"R{N + 1}": poly_pairs(data.r_upper)},
            "relations_q": {f"R{N - 1}": poly_pairs(r_lower_q),
                            f"R{N + 1}": poly_pairs(r_upper_q)},
            "eliminant_abcd": poly_pairs(res),
            "eliminant_q": poly_pairs(res_q),
            "h0": str(h0),
        }, out)
    else:
        out.write(f"level {N} relation ideal\n")
        out.write(f"  R_{N - 1} = {data.r_lower}\n")
        out.write(f"  R_{N + 1} = {data.r_upper}\n")
        out.write("  in quartic coordinates:\n")
        out.write(f"  R_{N - 1} = {r_lower_q}\n")
        out.write(f"  R_{N + 1} = {r_upper_q}\n")
        out.write(f"  eliminant (A removed): {res}\n")
        out.write(f"  eliminant (q-coords):  {res_q}\n")
        out.write(f"  h0 = {h0}\n")
    return 0


def cmd_qexpand(args, out):
    m = resolve_manifold(args.manifold, QEXPAND_MAX_DIM)
    _at_most(f"--qorder in dimension {m.dim}", args.qorder,
             QEXPAND_MAX_WORK // max(m.dim, 2))
    v = jacobi_q.chi_y_loop(m, args.qorder)
    if args.format == "json":
        _write_json({"manifold": _manifold_label(m, args.manifold), "qorder": args.qorder,
                     "chi_y_loop": value_json(v)}, out)
    else:
        out.write(f"chi_y(q, L {_manifold_label(m, args.manifold)}) =\n")
        for n in range(args.qorder + 1):
            out.write(f"  q^{n}: {laurent_str(v.coeff(n))}\n")
    return 0


def cmd_blowup_verify(args, out):
    N = _at_most("--N", args.N, BLOWUP_MAX_N)
    # phi(N), the degree of Q(zeta_N)
    phi = sum(gcd(k, N) == 1 for k in range(N))
    _at_most(f"--qorder at level {N}", args.qorder,
             BLOWUP_MAX_WORK // phi - 1)
    report = blowup.verify_blowup_invariance(N, qorder=args.qorder)
    ok = all(e["ok"] for e in report)
    if args.format == "json":
        _write_json({"N": N, "ok": ok, "cases": report}, out)
    else:
        for e in report:
            tag = "PASS" if e["ok"] else "FAIL"
            out.write(f"[{tag}] level {e['level']}: {e['case']} "
                      f"(defect {'= 0' if e['defect_zero'] else '!= 0'})\n")
    return 0 if ok else 1


def cmd_verify_all(args, out):
    results = []
    for num, title, fn in criteria.CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append({"criterion": num, "title": title, "ok": ok,
                        "detail": detail})
    ok_all = all(r["ok"] for r in results)
    if args.format == "json":
        _write_json({"ok": ok_all, "criteria": results}, out)
    else:
        for r in results:
            tag = "PASS" if r["ok"] else "FAIL"
            out.write(f"[{tag}] criterion {r['criterion']}: {r['title']}"
                      + (f" -- {r['detail']}" if not r["ok"] else "") + "\n")
        out.write("all criteria passed\n" if ok_all
                  else "some criteria FAILED\n")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

PROG = "ellgenus"


class Opt:
    """One option of a command, given as `--name VALUE`, `--name=VALUE`,
    a unique prefix of --name, or the alias (`-o VALUE`, `-oVALUE`)."""

    __slots__ = ("name", "help", "type", "choices", "default", "required",
                 "alias")

    def __init__(self, name, help, type=str, choices=None, default=None,
                 required=False, alias=None):
        self.name, self.help, self.type = name, help, type
        self.choices, self.default = choices, default
        self.required, self.alias = required, alias

    @property
    def dest(self):
        return self.name[2:]

    @property
    def metavar(self):
        if self.choices:
            return "{" + ",".join(self.choices) + "}"
        return self.dest.upper()


HELP = Opt("--help", "show this help message and exit", alias="-h")
FORMAT = Opt("--format", "output format", choices=("text", "json"),
             default="text")
MANIFOLD = Opt("--manifold", "catalog:NAME, a JSON file path, or inline JSON",
               required=True)

# One entry per command: (group, subcommand or None, handler, help,
# options).  The parser, the usage texts and the handlers' argument names
# (args.<option name>) all come from this table.
COMMANDS = (
    ("genus", "eval", cmd_genus_eval, "evaluate a genus on a manifold", (
        Opt("--genus", "name (phi_ell, todd, ...) or point A,B,C,D of "
            f"rationals, each of at most {GENUS_POINT_MAX_WORK}/dim digits",
            required=True),
        MANIFOLD,
        Opt("--order", "series order; read only up to the manifold's "
            f"dimension, which is at most {GENUS_MAX_DIM}", type=int,
            default=12, alias="-o"),
        FORMAT)),
    ("universal", "coeffs", cmd_universal_coeffs,
     "coefficients of Q(x) over Q[A,B,C,D]", (
        Opt("--order", f"print a1 .. a<ORDER>, ORDER at most "
            f"{UNIVERSAL_MAX_ORDER}", type=int, default=5, alias="-o"),
        FORMAT)),
    ("leveln", "relations", cmd_leveln_relations,
     "the relation ideal at level N", (
        Opt("--N", f"the level, at most {LEVELN_MAX_N}", type=int,
            required=True),
        FORMAT)),
    ("qexpand", None, cmd_qexpand, "q-expansion of chi_y(q, LX)", (
        MANIFOLD,
        Opt("--qorder", "print q^0 .. q^<QORDER>; the dimension is at most "
            f"{QEXPAND_MAX_DIM} and QORDER times it (at least 2) at most "
            f"{QEXPAND_MAX_WORK}", type=int, default=3),
        FORMAT)),
    ("blowup", "verify", cmd_blowup_verify,
     "level-N blow-up invariance report", (
        Opt("--N", f"the level, at most {BLOWUP_MAX_N}", type=int,
            required=True),
        Opt("--qorder", "q-order of the genus checked; QORDER + 1 times "
            f"phi(N) at most {BLOWUP_MAX_WORK}", type=int, default=2),
        FORMAT)),
    ("verify", "all", cmd_verify_all, "run all acceptance criteria",
     (FORMAT,)),
)


class UsageError(Exception):
    """A bad command line; the message is one line."""


class HelpRequested(Exception):
    """-h or --help; the message is the usage text."""


def _table(rows):
    width = max(len(left) for left, _ in rows) + 2
    return "".join(f"  {left.ljust(width)}{right}\n" for left, right in rows)


def _commands_help(entries):
    rows = [(" ".join(filter(None, e[:2])), e[3]) for e in entries]
    return (f"usage: {PROG} [-h] COMMAND [OPTIONS]\n\n"
            "exact computation of complex elliptic genera\n\n"
            f"commands:\n{_table(rows)}\n"
            "Each command takes -h for its options.\n")


def _command_help(command, about, opts):
    usage = " ".join(f"{o.name} {o.metavar}" if o.required
                     else f"[{o.name} {o.metavar}]" for o in opts)
    rows = [("-h, --help", HELP.help)] + [
        (", ".join(filter(None, (o.alias, o.name))) + f" {o.metavar}",
         o.help if o.default is None else f"{o.help} (default: {o.default})")
        for o in opts]
    return (f"usage: {PROG} {command} [-h] {usage}\n\n{about}\n\n"
            f"options:\n{_table(rows)}")


def parse_args(argv):
    """The command argv names: a namespace holding its handler as fn and
    every option's value (default if not given) under the option's name.

    Raises UsageError for a bad command line, HelpRequested for -h.
    """
    argv = list(argv)
    entries, path = COMMANDS, []
    for level in (0, 1):
        names = list(dict.fromkeys(e[level] for e in entries))
        if names == [None]:
            break
        where = " ".join(path) + ": " if path else ""
        token = argv.pop(0) if argv else None
        if token == "-h" or (token and len(token) > 2
                             and "--help".startswith(token)):
            raise HelpRequested(_commands_help(entries))
        if token not in names:
            what = "missing command" if token is None else (
                f"unknown command {token!r}")
            raise UsageError(f"{where}{what} (choose from "
                             f"{', '.join(names)})")
        path.append(token)
        entries = [e for e in entries if e[level] == token]
    _, _, fn, about, opts = entries[0]
    command = " ".join(path)
    return SimpleNamespace(fn=fn, **_parse_options(command, about, opts, argv))


def _parse_options(command, about, opts, argv):
    def fail(message):
        raise UsageError(f"{command}: {message}")

    known = (HELP, *opts)
    short = {o.alias: o for o in known if o.alias}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("--") and token != "--":
            name, eq, value = token.partition("=")
            matches = [o for o in known if o.name == name] or [
                o for o in known if o.name.startswith(name)]
            if not matches:
                fail(f"unrecognized option {name!r}")
            if len(matches) > 1:
                fail(f"ambiguous option {name!r} could match "
                     + ", ".join(o.name for o in matches))
            opt, given = matches[0], bool(eq)
        elif token[:2] in short:
            opt, value = short[token[:2]], token[2:].removeprefix("=")
            given = len(token) > 2
        else:
            fail(f"unexpected argument {token!r}")
        if opt is HELP:
            raise HelpRequested(_command_help(command, about, opts))
        if not given:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                fail(f"argument {opt.name}: expected a value")
        try:
            value = opt.type(value)
        except ValueError:
            fail(f"argument {opt.name}: invalid {opt.type.__name__} value "
                 f"{value!r}")
        if opt.choices and value not in opt.choices:
            fail(f"argument {opt.name}: invalid choice {value!r} (choose "
                 f"from {', '.join(opt.choices)})")
        values[opt.dest] = value  # a repeated option: the last one wins
    missing = [o.name for o in opts if o.required and o.dest not in values]
    if missing:
        fail(f"missing required option{'s' * (len(missing) > 1)} "
             + ", ".join(missing))
    return {o.dest: values.get(o.dest, o.default) for o in opts}


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        status = _run(argv, out)
        out.flush()
    except BrokenPipeError:
        # The reader went away (`| head`).  Point the descriptor at devnull,
        # so that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        sys.stderr.write("error: output closed before the command finished\n")
        return 2
    return status


def _run(argv, out):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except HelpRequested as exc:
        out.write(str(exc))
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for name in ("order", "qorder", "N"):
        if getattr(args, name, 1) < 1:
            _emit_error(args, out, f"--{name} must be positive")
            return 2
    try:
        return args.fn(args, out)
    except cohomology_models.UnknownName as exc:
        _emit_error(args, out, f"unknown catalog manifold {exc.args[0]!r}")
        return 2
    except (InputError, KeyError, ValueError) as exc:
        _emit_error(args, out, str(exc))
        return 2


def _write_json(obj, out, indent=2):
    import json
    json.dump(obj, out, indent=indent)
    out.write("\n")


def _emit_error(args, out, message):
    if args.format == "json":
        _write_json({"error": message}, out, indent=None)
    else:
        out.write(f"error: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
