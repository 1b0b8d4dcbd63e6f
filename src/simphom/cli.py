"""Line-oriented script interface to the whole package.

A script is a sequence of bindings and commands, one per line, with ``#``
comments.  Bindings build finite simplicial sets::

    set NAME = delta N | boundary N | horn N K
             | product NAME NAME | sum NAME NAME
             | quotient NAME by CELLS | sub NAME by CELLS
             | union NAME NAME | nerve { a<b b<c ... }

``CELLS`` is a ';'-separated list; each item is either a vertex list such
as ``0 1 2`` (for sets whose cells are named by vertex lists) or a single
raw cell name (as shown by ``dump``).  The ``nerve`` relation is closed
transitively before validation; bare tokens inside the braces add isolated
elements.

Commands run the checkers and computations::

    check regular NAME | check strongly-regular NAME | check P R NAME [cap C]
    homdim NAME target NAME [cap C] | homcount N P target NAME
    dump NAME | example tight N Q | example lurie Q A P

``homdim`` is one :func:`simphom.hom.dim_hom_general` call, which answers
each connected piece of the source by one of two routes, read off its
cells, and adds the answers: ordered vertices (over a regular target, a
piece with no directed cycle of 1-cells answers |A_0| * dim X at once: a
standard simplex however written, ``delta 3``, ``sub A by 0 1 2 3`` or a
chain's nerve, and any other nerve) or scan (any other piece, down from
the cap or from |A_0| * dim X).

Each command prints one JSON object per line: ``command``, ``inputs``,
then ``verdict``/``value`` with optional ``witness`` or ``counts``, and
``elapsed_ms``.  A false verdict is a successful run.  A script that
cannot be read (a missing file, or one that is not valid UTF-8) or parsed
exits with status 2 before any command runs; a binding or command that
fails, for any reason, becomes an object with an ``error`` field in place
of its results, the remaining lines still run, and the exit status is 1.
Every line, a failed one included, carries ``command`` and ``inputs``, as
parsed; the ``cap`` of ``inputs`` is the cap the command ran with, which
is ``--max-degree`` on a line that names none.  A negative
``--max-degree`` is such a failure of each command that receives it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from .exhibits import lurie_family, tight_simplex
from .hom import dim_hom_general, enumerate_hom_simplices, is_degenerate_hom
from .paths import all_paths
from .regularity import is_regular, is_strongly_regular, satisfies_pr
from .simpset import (
    CellId,
    FormalSimplex,
    boundary_delta,
    delta,
    disjoint_sum,
    horn,
    nerve_poset,
    product,
    quotient,
    subcomplex,
    to_json_dict,
    transitive_closure,
    union,
)


class ScriptError(Exception):
    """A script problem, locatable by line and column (both 1-based)."""

    def __init__(self, message, line, column):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column
        self.reason = message


@dataclass(frozen=True)
class Statement:
    """One parsed line: its kind, the ``inputs`` its output line prints, in
    their printed order, and for a binding the expression that builds it."""

    kind: str
    inputs: dict
    line: int
    expr: tuple = None


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def error(self, message, at):
        raise ScriptError(message, self.lineno, at)

    def next(self, what):
        if self.pos >= len(self.tokens):  # a parsed line has a token
            last, col = self.tokens[-1]
            self.error("expected %s" % (what,), at=col + len(last))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal):
        tok, col = self.next("'%s'" % (literal,))
        if tok != literal:
            self.error("expected '%s', got '%s'" % (literal, tok), at=col)
        return col

    def integer(self, what):
        tok, col = self.next(what)
        if not re.fullmatch(r"\d+", tok):
            self.error("expected %s (a number), got '%s'" % (what, tok), at=col)
        return int(tok)

    def cap(self):
        """The optional trailing ``cap C`` (None without one)."""
        if self.pos < len(self.tokens):
            self.expect("cap")
            return self.integer("a cap")
        return None

    def done(self):
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            self.error("unexpected trailing input '%s'" % (tok,), at=col)


def _parse_cells(raw, lineno, col):
    items = []
    for piece in raw.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split()
        if all(re.fullmatch(r"\d+", p) for p in parts):
            items.append(",".join(parts))
        elif len(parts) == 1:
            items.append(parts[0])
        else:
            raise ScriptError(
                "cell %r is neither a vertex list nor a single cell name"
                % (piece,),
                lineno,
                col,
            )
    if not items:
        raise ScriptError("empty cell list", lineno, col)
    return tuple(items)


def _parse_binding(cur, line):
    """The kind, inputs and expression of a binding, read after ``set``."""
    name, name_col = cur.next("a set name")
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_\-]*", name):
        cur.error("invalid set name %r" % (name,), at=name_col)
    cur.expect("=")
    head, head_col = cur.next("a constructor")
    if head in ("delta", "boundary"):
        expr = (head, cur.integer("a dimension"))
    elif head == "horn":
        expr = (head, cur.integer("a dimension"), cur.integer("a horn index"))
    elif head in ("product", "sum", "union"):
        expr = (head, cur.next("a set name")[0], cur.next("a set name")[0])
    elif head in ("quotient", "sub"):
        base, _ = cur.next("a set name")
        by_col = cur.expect("by")
        expr = (head, base, _parse_cells(line[by_col + 1:], cur.lineno, by_col + 3))
        cur.pos = len(cur.tokens)  # the remainder was consumed as raw text
    elif head == "nerve":
        rest = line[head_col + len(head) - 1:].strip()
        m = re.fullmatch(r"\{(.*)\}", rest)
        if m is None:
            cur.error("nerve needs a braced relation block", at=head_col)
        pairs = []
        singles = []
        for tok in m.group(1).split():
            if "<" in tok:
                parts = tok.split("<")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    cur.error("malformed relation %r" % (tok,), at=head_col)
                pairs.append((parts[0], parts[1]))
            else:
                singles.append(tok)
        expr = (head, tuple(pairs), tuple(singles))
        cur.pos = len(cur.tokens)
    else:
        cur.error("unknown constructor %r" % (head,), at=head_col)
    return "set", {"name": name}, expr


def _parse_command(cur, line):
    """The kind and inputs of a line, and a binding's expression; the
    inputs are read in the order the line names them."""
    head, head_col = cur.next("a command")
    if head == "set":
        return _parse_binding(cur, line)
    if head == "check":
        what, what_col = cur.next("a property")
        if what in ("regular", "strongly-regular"):
            return "check-" + what, {"set": cur.next("a set name")[0]}
        if what == "P":
            r = cur.integer("a width r")
            return "check-P", {"r": r, "set": cur.next("a set name")[0], "cap": cur.cap()}
        cur.error("unknown property %r" % (what,), at=what_col)
    if head == "homdim":
        source, _ = cur.next("a source set name")
        cur.expect("target")
        target, _ = cur.next("a target set name")
        return "homdim", {"source": source, "target": target, "cap": cur.cap()}
    if head == "homcount":
        n = cur.integer("a source dimension n")
        p = cur.integer("a degree p")
        cur.expect("target")
        return "homcount", {"n": n, "p": p, "target": cur.next("a target set name")[0]}
    if head == "dump":
        return "dump", {"set": cur.next("a set name")[0]}
    if head == "example":
        which, which_col = cur.next("an example name")
        if which == "tight":
            return "example-tight", {"n": cur.integer("n"), "q": cur.integer("q")}
        if which == "lurie":
            return "example-lurie", {
                "q": cur.integer("q"), "a": cur.integer("a"), "p": cur.integer("p")
            }
        cur.error("unknown example %r" % (which,), at=which_col)
    cur.error("unknown command %r" % (head,), at=head_col)


def parse_script(text):
    """Parse a script into a tuple of :class:`Statement`; raises
    :class:`ScriptError` with line and column."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            cur = _Cursor(_tokens(line), lineno)
            kind, inputs, *expr = _parse_command(cur, line)
            cur.done()
            statements.append(Statement(kind, inputs, lineno, *expr))
    return tuple(statements)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def _build(expr, env, stmt):
    head, *rest = expr
    # looked up at call time, so that a patched constructor is the one used
    literal = {"delta": delta, "boundary": boundary_delta, "horn": horn}
    if head in literal:
        return literal[head](*rest)
    if head in ("product", "sum", "union"):
        maker = {"product": product, "sum": disjoint_sum, "union": union}[head]
        return maker(*(_lookup(name, env, stmt) for name in rest))
    if head in ("quotient", "sub"):
        base = _lookup(rest[0], env, stmt)
        maker = quotient if head == "quotient" else subcomplex
        return maker(base, _resolve_cells(base, rest[1], stmt))
    pairs, singles = rest
    carrier = sorted({x for pair in pairs for x in pair} | set(singles))
    return nerve_poset(carrier, sorted(transitive_closure(pairs)))


def _lookup(name, env, stmt):
    if name not in env:
        raise ScriptError("unknown set name %r" % (name,), stmt.line, 1)
    return env[name]


def _resolve_cells(space, names, stmt):
    out = []
    for nm in names:
        if not space.has_cell(nm):
            raise ScriptError("no cell named %r in this set" % (nm,), stmt.line, 1)
        out.append(nm)
    return out


def _json_value(value):
    if isinstance(value, FormalSimplex):
        return value.token()
    if isinstance(value, CellId):
        return value.name
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return value


def _report(report):
    out = {"verdict": report.verdict}
    if report.witness is not None:
        out["witness"] = _json_value(report.witness)
    return out


def _dimension_value(result):
    return result.value if result.exact else "≥ %d" % (result.value,)


def _run_command(stmt, inputs, env, dump_hom):
    """The result fields of a command's line; a binding binds and returns None."""
    kind = stmt.kind
    if kind == "set":
        name = inputs["name"]
        if name in env:
            raise ScriptError("name %r is already bound" % (name,), stmt.line, 1)
        env[name] = _build(stmt.expr, env, stmt)
        return None
    if kind in ("check-regular", "check-strongly-regular"):
        check = is_regular if kind == "check-regular" else is_strongly_regular
        return _report(check(_lookup(inputs["set"], env, stmt)))
    if kind == "check-P":
        space = _lookup(inputs["set"], env, stmt)
        return _report(satisfies_pr(space, inputs["r"], degree_cap=inputs["cap"]))
    if kind == "homdim":
        source = _lookup(inputs["source"], env, stmt)
        target = _lookup(inputs["target"], env, stmt)
        result = dim_hom_general(source, target, degree_cap=inputs["cap"])
        return {"value": _dimension_value(result)}
    if kind == "homcount":
        n, p = inputs["n"], inputs["p"]
        simplices = enumerate_hom_simplices(_lookup(inputs["target"], env, stmt), n, p)
        nondegenerate = sum(1 for f in simplices if not is_degenerate_hom(f))
        out = {"counts": {"total": len(simplices), "nondegenerate": nondegenerate}}
        if dump_hom:
            words = [path.word for path in all_paths(p, n)]
            out["assignments"] = [
                {w: f.values[i].token() for i, w in enumerate(words)}
                for f in simplices
            ]
        return out
    if kind == "dump":
        return {"value": to_json_dict(_lookup(inputs["set"], env, stmt))}
    if kind == "example-tight":
        fn = tight_simplex(inputs["n"], inputs["q"])
        sums = [sum(col) for col in fn.table]
        return {
            "verdict": not fn.degenerate_columns(),
            "value": {
                "width": fn.width,
                "columns": [list(col) for col in fn.table],
                "column_sums": sums,
            },
        }
    if kind == "example-lurie":
        space, f = lurie_family(inputs["p"], inputs["q"], anchor=inputs["a"])
        return {
            "verdict": not is_degenerate_hom(f),
            "value": {
                "target_cells": len(space.cells),
                "components": [f.values[i].token() for i in range(len(f.values))],
            },
        }
    raise AssertionError("unreachable command %r" % (kind,))


def _error_text(exc):
    """The ``error`` text of a failed line; unexpected failures name their type."""
    if isinstance(exc, (ScriptError, ValueError, KeyError)):
        return str(exc)
    return "%s: %s" % (type(exc).__name__, exc)


def run(statements, max_degree=None, dump_hom=False):
    """Execute the statements of a parsed script; returns (results, ok).

    ``results`` is one dict per command, and one per binding that failed,
    in order, each with the ``command`` and ``inputs`` of its statement; a
    ``cap`` the line does not name is ``max_degree``.  Failures, of any
    exception type, become objects with an ``error`` field and make ``ok``
    false (a false verdict does not).
    """
    env = {}
    results = []
    ok = True
    for stmt in statements:
        started = time.monotonic()
        inputs = dict(stmt.inputs)
        if "cap" in inputs and inputs["cap"] is None:
            inputs["cap"] = max_degree
        out = {"command": stmt.kind.replace("-", " "), "inputs": inputs}
        try:
            body = _run_command(stmt, inputs, env, dump_hom)
        except Exception as exc:
            ok = False
            out["error"] = _error_text(exc)
        else:
            if body is None:
                continue
            out.update(body)
        out["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        results.append(out)
    return results, ok


def _render_pretty(results, stream):
    for res in results:
        head = res.get("command", "?")
        inputs = res.get("inputs", {})
        arg_text = " ".join("%s=%s" % (k, v) for k, v in inputs.items())
        stream.write("== %s %s (%d ms)\n" % (head, arg_text, res.get("elapsed_ms", 0)))
        if "error" in res:
            stream.write("   error: %s\n" % (res["error"],))
            continue
        for key in ("verdict", "value", "witness", "counts"):
            if key in res:
                stream.write("   %s: %s\n" % (key, json.dumps(res[key], ensure_ascii=False)))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="simphom",
        description="Run a simplicial-set script (see the package docs for "
        "the line grammar).",
    )
    parser.add_argument(
        "script",
        nargs="?",
        default="-",
        help="script file, or '-' (default) for standard input",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="human-readable output instead of JSON"
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="global degree-cap override for capped checks",
    )
    parser.add_argument(
        "--dump-hom",
        action="store_true",
        help="include full path assignments in homcount output",
    )
    args = parser.parse_args(argv)
    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("cannot read script: %s" % (exc,), file=sys.stderr)
        return 2
    try:
        script = parse_script(text)
    except ScriptError as exc:
        print("parse error: %s" % (exc,), file=sys.stderr)
        return 2
    results, ok = run(script, max_degree=args.max_degree, dump_hom=args.dump_hom)
    if args.pretty:
        _render_pretty(results, sys.stdout)
    else:
        for res in results:
            sys.stdout.write(json.dumps(res, ensure_ascii=False) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
