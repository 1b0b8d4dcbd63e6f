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

``homdim`` is one :func:`simphom.hom.dim_hom_general` call, which picks its
route from the cells of the source: pieces (a disconnected source answers
as the sum of its connected pieces), simplex (a standard simplex, however
written: ``delta 3``, ``sub A by 0 1 2 3``, a chain's nerve), staircase
(the simplex route over a regular target, (n + 1) * dim X at once) or
scan (any other source, down from the cap or from |U_0| * dim X).

Each command prints one JSON object per line: ``command``, ``inputs``,
then ``verdict``/``value`` with optional ``witness`` or ``counts``, and
``elapsed_ms``.  A false verdict is a successful run.  A script that
cannot be read or parsed exits with status 2 before any command runs; a
binding or command that fails, for any reason, becomes an object with an
``error`` field, the remaining lines still run, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from .delta import MonotoneMap
from .exhibits import lurie_family, tight_simplex
from .hom import dim_hom_general, enumerate_hom_simplices, is_degenerate_hom
from .paths import all_paths
from .regularity import is_regular, is_strongly_regular, satisfies_pr
from .simpset import (
    CellId,
    FormalSimplex,
    SimplicialSet,
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
    """One parsed line: a binding or a command with its argument tuple."""

    kind: str
    args: tuple
    line: int
    text: str


@dataclass(frozen=True)
class Script:
    statements: tuple


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def error(self, message, at=None):
        if at is None:
            if self.pos < len(self.tokens):
                at = self.tokens[self.pos][1]
            elif self.tokens:
                at = self.tokens[-1][1] + len(self.tokens[-1][0])
            else:
                at = 1
        raise ScriptError(message, self.lineno, at)

    def next(self, what):
        if self.pos >= len(self.tokens):
            self.error("expected %s" % (what,))
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

    def name(self, what="a name"):
        tok, col = self.next(what)
        return tok, col

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
    name, name_col = cur.name("a set name")
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_\-]*", name):
        cur.error("invalid set name %r" % (name,), at=name_col)
    cur.expect("=")
    head, head_col = cur.name("a constructor")
    if head == "delta":
        n = cur.integer("a dimension")
        cur.done()
        return ("delta", n)
    if head == "boundary":
        n = cur.integer("a dimension")
        cur.done()
        return ("boundary", n)
    if head == "horn":
        n = cur.integer("a dimension")
        k = cur.integer("a horn index")
        cur.done()
        return ("horn", n, k)
    if head in ("product", "sum", "union"):
        a, _ = cur.name("a set name")
        b, _ = cur.name("a set name")
        cur.done()
        return (head, a, b)
    if head in ("quotient", "sub"):
        base, _ = cur.name("a set name")
        by_col = cur.expect("by")
        rest = line[by_col + 1:].strip()
        cells = _parse_cells(rest, cur.lineno, by_col + 3)
        cur.pos = len(cur.tokens)  # the remainder was consumed as raw text
        return (head, base, cells)
    if head == "nerve":
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
        cur.pos = len(cur.tokens)
        return ("nerve", tuple(pairs), tuple(singles))
    cur.error("unknown constructor %r" % (head,), at=head_col)


def _parse_command(cur):
    head, head_col = cur.name("a command")
    if head == "check":
        what, what_col = cur.name("a property")
        if what == "regular":
            name, _ = cur.name("a set name")
            cur.done()
            return ("check-regular", (name,))
        if what == "strongly-regular":
            name, _ = cur.name("a set name")
            cur.done()
            return ("check-strongly-regular", (name,))
        if what == "P":
            r = cur.integer("a width r")
            name, _ = cur.name("a set name")
            cap = None
            if cur.pos < len(cur.tokens):
                cur.expect("cap")
                cap = cur.integer("a cap")
            cur.done()
            return ("check-P", (r, name, cap))
        cur.error("unknown property %r" % (what,), at=what_col)
    if head == "homdim":
        source, _ = cur.name("a source set name")
        cur.expect("target")
        target, _ = cur.name("a target set name")
        cap = None
        if cur.pos < len(cur.tokens):
            cur.expect("cap")
            cap = cur.integer("a cap")
        cur.done()
        return ("homdim", (source, target, cap))
    if head == "homcount":
        n = cur.integer("a source dimension n")
        p = cur.integer("a degree p")
        cur.expect("target")
        target, _ = cur.name("a target set name")
        cur.done()
        return ("homcount", (n, p, target))
    if head == "dump":
        name, _ = cur.name("a set name")
        cur.done()
        return ("dump", (name,))
    if head == "example":
        which, which_col = cur.name("an example name")
        if which == "tight":
            n = cur.integer("n")
            q = cur.integer("q")
            cur.done()
            return ("example-tight", (n, q))
        if which == "lurie":
            q = cur.integer("q")
            a = cur.integer("a")
            p = cur.integer("p")
            cur.done()
            return ("example-lurie", (q, a, p))
        cur.error("unknown example %r" % (which,), at=which_col)
    cur.error("unknown command %r" % (head,), at=head_col)


def parse_script(text):
    """Parse a script; raises :class:`ScriptError` with line and column."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokens(line)
        cur = _Cursor(tokens, lineno)
        if tokens[0][0] == "set":
            cur.pos = 1
            name, name_col = tokens[1] if len(tokens) > 1 else (None, 1)
            expr = _parse_binding(cur, line)
            statements.append(Statement("set", (name, expr), lineno, line))
        else:
            kind, args = _parse_command(cur)
            statements.append(Statement(kind, args, lineno, line))
    return Script(tuple(statements))


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def _build(expr, env, stmt):
    head = expr[0]
    if head == "delta":
        return delta(expr[1])
    if head == "boundary":
        return boundary_delta(expr[1])
    if head == "horn":
        return horn(expr[1], expr[2])
    if head in ("product", "sum", "union"):
        a = _lookup(expr[1], env, stmt)
        b = _lookup(expr[2], env, stmt)
        maker = {"product": product, "sum": disjoint_sum, "union": union}[head]
        return maker(a, b)
    if head == "quotient":
        base = _lookup(expr[1], env, stmt)
        return quotient(base, _resolve_cells(base, expr[2], stmt))
    if head == "sub":
        base = _lookup(expr[1], env, stmt)
        return subcomplex(base, _resolve_cells(base, expr[2], stmt))
    if head == "nerve":
        pairs, singles = expr[1], expr[2]
        carrier = sorted({x for pair in pairs for x in pair} | set(singles))
        closed = transitive_closure(pairs)
        return nerve_poset(carrier, sorted(closed))
    raise AssertionError("unreachable constructor %r" % (head,))


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
    if isinstance(value, MonotoneMap):
        return list(value.values)
    if isinstance(value, SimplicialSet):
        return repr(value)
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


def _run_command(stmt, env, options):
    kind, args = stmt.kind, stmt.args
    max_degree = options.get("max_degree")
    if kind == "check-regular":
        space = _lookup(args[0], env, stmt)
        return {"inputs": {"set": args[0]}, **_report(is_regular(space))}
    if kind == "check-strongly-regular":
        space = _lookup(args[0], env, stmt)
        return {"inputs": {"set": args[0]}, **_report(is_strongly_regular(space))}
    if kind == "check-P":
        r, name, cap = args
        space = _lookup(name, env, stmt)
        if cap is None:
            cap = max_degree
        return {
            "inputs": {"r": r, "set": name, "cap": cap},
            **_report(satisfies_pr(space, r, degree_cap=cap)),
        }
    if kind == "homdim":
        source_name, target_name, cap = args
        source = _lookup(source_name, env, stmt)
        target = _lookup(target_name, env, stmt)
        if cap is None:
            cap = max_degree
        result = dim_hom_general(source, target, degree_cap=cap)
        return {
            "inputs": {"source": source_name, "target": target_name, "cap": cap},
            "value": _dimension_value(result),
        }
    if kind == "homcount":
        n, p, target_name = args
        target = _lookup(target_name, env, stmt)
        simplices = enumerate_hom_simplices(target, n, p)
        nondegenerate = sum(1 for f in simplices if not is_degenerate_hom(f))
        out = {
            "inputs": {"n": n, "p": p, "target": target_name},
            "counts": {"total": len(simplices), "nondegenerate": nondegenerate},
        }
        if options.get("dump_hom"):
            words = [path.word for path in all_paths(p, n)]
            out["assignments"] = [
                {w: f.values[i].token() for i, w in enumerate(words)}
                for f in simplices
            ]
        return out
    if kind == "dump":
        space = _lookup(args[0], env, stmt)
        return {"inputs": {"set": args[0]}, "value": to_json_dict(space)}
    if kind == "example-tight":
        n, q = args
        fn = tight_simplex(n, q)
        sums = [sum(col) for col in fn.table]
        return {
            "inputs": {"n": n, "q": q},
            "verdict": not fn.degenerate_columns(),
            "value": {
                "width": fn.width,
                "columns": [list(col) for col in fn.table],
                "column_sums": sums,
            },
        }
    if kind == "example-lurie":
        q, a, p = args
        space, f = lurie_family(p, q, anchor=a)
        return {
            "inputs": {"q": q, "a": a, "p": p},
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


def run(script, max_degree=None, dump_hom=False):
    """Execute a parsed script; returns (results, ok).

    ``results`` is one dict per command in order; command failures, of
    any exception type, become objects with an ``error`` field and make
    ``ok`` false (a false verdict does not).
    """
    env = {}
    results = []
    ok = True
    options = {"max_degree": max_degree, "dump_hom": dump_hom}
    for stmt in script.statements:
        if stmt.kind == "set":
            name, expr = stmt.args
            started = time.monotonic()
            try:
                if name in env:
                    raise ScriptError(
                        "name %r is already bound" % (name,), stmt.line, 1
                    )
                env[name] = _build(expr, env, stmt)
            except Exception as exc:
                ok = False
                results.append(
                    {
                        "command": "set",
                        "inputs": {"name": name},
                        "error": _error_text(exc),
                        "elapsed_ms": int((time.monotonic() - started) * 1000),
                    }
                )
            continue
        started = time.monotonic()
        base = {"command": stmt.kind.replace("-", " ")}
        try:
            body = _run_command(stmt, env, options)
            base.update(body)
        except Exception as exc:
            ok = False
            base["error"] = _error_text(exc)
        base["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        results.append(base)
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
    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
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
