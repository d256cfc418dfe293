"""Command-line front end.

Subcommands: `genus eval`, `universal coeffs`, `leveln relations`,
`qexpand`, `blowup verify`, and `verify all` (the full verification
suite with a pass/fail table).  All arithmetic is exact; rationals are
printed as "p/q" strings, polynomials in graded-lex order with A > B >
C > D.  Exit status: 0 on success, 1 on failed verification, 2 on
argument or input errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from fractions import Fraction

from .algebra_kernel import RationalFunction, TruncatedSeries
from .cohomology_models import UnknownName, catalog, model_from_json
from .genus_engine import classical_genus, evaluate
from .universal_elliptic import ABCDPoint, abcd_to_q, phi_ell, q_of_h, solve_h


def _lazy(name):
    """The submodule ``ellgenus.<name>``, executed on first attribute read.

    A command runs only the modules it reads.  The module is registered in
    ``sys.modules`` and bound on the package at once, as an import does,
    because bench/traced_cli.py finds the modules it traces there right
    after ``import ellgenus.cli``.
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
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(
        fr.numerator)


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
    if isinstance(v, RationalFunction):
        return laurent_pairs(v)
    if isinstance(v, TruncatedSeries):
        return {str(n): value_json(v.coeff(n))
                for n in range(max(v.low, 0), v.order + 1)}
    return str(v)


def value_str(v):
    if isinstance(v, (int, Fraction)):
        return fr_str(v)
    if isinstance(v, RationalFunction):
        return laurent_str(v)
    if isinstance(v, TruncatedSeries):
        rows = [f"q^{n}: {value_str(v.coeff(n))}"
                for n in range(max(v.low, 0), v.order + 1)]
        return "\n".join(rows)
    return str(v)


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------


class InputError(ValueError):
    pass


def resolve_manifold(sel):
    """catalog:NAME, inline JSON (a value starting with { or [), or a
    path to a JSON file."""
    if sel.startswith("catalog:"):
        return catalog(sel[len("catalog:"):])
    if sel.lstrip().startswith(("{", "[")):
        try:
            obj = json.loads(sel)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad inline manifold JSON: {exc}") from exc
        return model_from_json(obj)
    try:
        with open(sel) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read manifold file {sel!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"bad manifold JSON in {sel!r}: {exc}") from exc
    return model_from_json(obj)


def resolve_genus(sel, order):
    """A genus name, or an explicit point 'A,B,C,D' of rationals."""
    if "," in sel:
        parts = sel.split(",")
        if len(parts) != 4:
            raise InputError("genus point needs four components A,B,C,D")
        try:
            vals = [Fraction(p.strip()) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad genus point {sel!r}: {exc}") from exc
        # at the point first: the same exact value as specialising phi_ell
        h = solve_h(abcd_to_q(ABCDPoint(*vals)), order)
        return q_of_h(h, name=f"phi_ell|({sel})")
    name = sel.strip().lower()
    if name == "phi_ell":
        return phi_ell(order)
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
    m = resolve_manifold(args.manifold)
    dim = m.dim
    order = max(args.order, dim)
    spec = resolve_genus(args.genus, order)
    v = evaluate(spec, m)
    if args.format == "json":
        json.dump({"genus": spec.name, "manifold": _manifold_label(m, args.manifold),
                   "dim": dim, "value": value_json(v)}, out, indent=2)
        out.write("\n")
    else:
        out.write(f"{spec.name}({_manifold_label(m, args.manifold)}) = {value_str(v)}\n")
    return 0


def cmd_universal_coeffs(args, out):
    spec = phi_ell(args.order)
    rows = [(k, spec.q.coeff(k)) for k in range(1, args.order + 1)]
    if args.format == "json":
        json.dump({"coefficients": {f"a{k}": value_json(c) for k, c in rows}},
                  out, indent=2)
        out.write("\n")
    else:
        for k, c in rows:
            out.write(f"a{k} = {c}\n")
    return 0


def cmd_leveln_relations(args, out):
    N = args.N
    data = level_n.compute_level_data(N)
    r_lower_q, r_upper_q = data.r_lower_q(), data.r_upper_q()
    res = level_n.eliminate(data)
    res_q = level_n.eliminant(r_lower_q, r_upper_q)
    pres = level_n.GradedIdealPresentation((1, 2, 3, 4), (N - 1, N + 1))
    h0 = level_n.degree_h0(pres)
    if args.format == "json":
        json.dump({
            "N": N,
            "relations_abcd": {f"R{N - 1}": poly_pairs(data.r_lower),
                               f"R{N + 1}": poly_pairs(data.r_upper)},
            "relations_q": {f"R{N - 1}": poly_pairs(r_lower_q),
                            f"R{N + 1}": poly_pairs(r_upper_q)},
            "eliminant_abcd": poly_pairs(res),
            "eliminant_q": poly_pairs(res_q),
            "h0": str(h0),
        }, out, indent=2)
        out.write("\n")
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
    m = resolve_manifold(args.manifold)
    v = jacobi_q.chi_y_loop(m, args.qorder)
    if args.format == "json":
        json.dump({"manifold": _manifold_label(m, args.manifold), "qorder": args.qorder,
                   "chi_y_loop": value_json(v)}, out, indent=2)
        out.write("\n")
    else:
        out.write(f"chi_y(q, L {_manifold_label(m, args.manifold)}) =\n")
        for n in range(args.qorder + 1):
            out.write(f"  q^{n}: {laurent_str(v.coeff(n))}\n")
    return 0


def cmd_blowup_verify(args, out):
    report = blowup.verify_blowup_invariance(args.N, qorder=args.qorder)
    ok = all(e["ok"] for e in report)
    if args.format == "json":
        json.dump({"N": args.N, "ok": ok, "cases": report}, out, indent=2)
        out.write("\n")
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
        json.dump({"ok": ok_all, "criteria": results}, out, indent=2)
        out.write("\n")
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


def build_parser():
    p = argparse.ArgumentParser(
        prog="ellgenus",
        description="exact computation of complex elliptic genera",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    g = sub.add_parser("genus", help="genus evaluation")
    gsub = g.add_subparsers(dest="sub", required=True)
    ge = gsub.add_parser("eval", help="evaluate a genus on a manifold")
    ge.add_argument("--genus", required=True,
                    help="name (phi_ell, todd, ...) or point A,B,C,D")
    ge.add_argument("--manifold", required=True,
                    help="catalog:NAME, a JSON file path, or inline JSON")
    ge.add_argument("--order", "-o", type=int, default=12)
    common(ge)
    ge.set_defaults(fn=cmd_genus_eval)

    u = sub.add_parser("universal", help="the universal elliptic genus")
    usub = u.add_subparsers(dest="sub", required=True)
    uc = usub.add_parser("coeffs", help="coefficients of Q(x) over Q[A,B,C,D]")
    uc.add_argument("--order", "-o", type=int, default=5)
    common(uc)
    uc.set_defaults(fn=cmd_universal_coeffs)

    ln = sub.add_parser("leveln", help="level-N structure")
    lsub = ln.add_subparsers(dest="sub", required=True)
    lr = lsub.add_parser("relations", help="the relation ideal at level N")
    lr.add_argument("--N", type=int, required=True)
    common(lr)
    lr.set_defaults(fn=cmd_leveln_relations)

    qe = sub.add_parser("qexpand", help="q-expansion of chi_y(q, LX)")
    qe.add_argument("--manifold", required=True)
    qe.add_argument("--qorder", type=int, default=3)
    common(qe)
    qe.set_defaults(fn=cmd_qexpand)

    b = sub.add_parser("blowup", help="blow-up invariance")
    bsub = b.add_subparsers(dest="sub", required=True)
    bv = bsub.add_parser("verify", help="level-N blow-up invariance report")
    bv.add_argument("--N", type=int, required=True)
    bv.add_argument("--qorder", type=int, default=2)
    common(bv)
    bv.set_defaults(fn=cmd_blowup_verify)

    v = sub.add_parser("verify", help="verification suites")
    vsub = v.add_subparsers(dest="sub", required=True)
    va = vsub.add_parser("all", help="run all acceptance criteria")
    common(va)
    va.set_defaults(fn=cmd_verify_all)

    return p


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    for name in ("order", "qorder", "N"):
        if getattr(args, name, 1) is not None and getattr(args, name, 1) < 1:
            _emit_error(args, out, f"--{name} must be positive")
            return 2
    try:
        return args.fn(args, out)
    except UnknownName as exc:
        _emit_error(args, out, f"unknown catalog manifold {exc.args[0]!r}")
        return 2
    except (InputError, KeyError, ValueError) as exc:
        _emit_error(args, out, str(exc))
        return 2


def _emit_error(args, out, message):
    if getattr(args, "format", "text") == "json":
        json.dump({"error": message}, out)
        out.write("\n")
    else:
        out.write(f"error: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
