"""Check that the Tier-1 tests kill a fixed list of mutants of ``src/``.

Each mutant is a small text patch: one exact snippet of one module of
``src/simphom`` replaced by a broken variant.  For each, the script copies
``src/``, ``tests/``, ``demos/`` and ``pyproject.toml`` into a temporary
directory, applies the patch there (the checkout is never touched), runs
the Tier-1 tests in the copy and reports the tests that fail.  A mutant
that no test fails has survived.  A mutant can also make a search
explode: when the Tier-1 run outlasts the time limit (``--timeout``
seconds, 300 by default), it is run again stopping at the first failure
(``pytest -x``), and that failure is reported; a second run that also
outlasts the limit counts the mutant as killed, with no test named.  A
patch whose snippet is not found exactly once is reported as stale: the
code it targets has changed.

Run from anywhere with ``python tools/mutants.py``, or name mutants to run
only those (``--list`` prints the names).  The exit status is 0 when every
mutant run is killed, 1 otherwise.  Standard library only; the tests run
under ``python -m pytest``, as Tier-1 does.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")

# name -> (module, snippet, replacement, what the mutant breaks)
MUTANTS = {
    "doom-rebuilds-pairs": (
        "hom.py",
        "dead = [q for q in dead if masks[q[1]] & bit]",
        "dead = [(x, z) for x, z in dead if masks[z] & bit]",
        "the seat-doom filter rebuilds its pairs, so its identity set removes nothing",
    ),
    "extra-checks-dropped": (
        "hom.py",
        "slots[s] = (slots[s], first, listed[1:], triggers.get(s, ()))",
        "slots[s] = (slots[s], first, [], triggers.get(s, ()))",
        "a slot keeps only its first check",
    ),
    "chunks-forward": (
        "simpset.py",
        "for i in reversed(range(0, len(grown), _CHUNK))",
        "for i in range(0, len(grown), _CHUNK)",
        "the chunks of a grown list are pushed first first, so they pop last first",
    ),
    "layout-shared-sides-dropped": (
        "hom.py",
        "if (k, here) != (kk, there):",
        "if (k, here) != (kk, there) and sum(\n"
        "                    u in _face_closure(source, [v]) for v in maximal\n"
        "                ) < 2:",
        "the family layout drops the sides of every cell that two maximal cells' closures hold",
    ),
    "later-checks-dropped": (
        "hom.py",
        "for a, r, mine in more:",
        "for a, r, mine in more[:0]:",
        "the search reads only the first two checks of each slot",
    ),
    "hom-at-shape-swapped": (
        "hom.py",
        "map(_hom_at, repeat(space), repeat(p), repeat(n), _search(space, p, (n,)))",
        "map(_hom_at, repeat(space), repeat(n), repeat(p), _search(space, p, (n,)))",
        "enumeration builds its simplices with width and height swapped",
    ),
    "witness-step-shifted": (
        "hom.py",
        "if not repeats[z] >> steps[k] & 1:",
        "if not repeats[z] >> steps[k] + 1 & 1:",
        "the witness of a degenerate column reads each path's repeat one step late",
    ),
    "complex-collapse-dropped": (
        "hom.py",
        "entry = entries[face] = FormalSimplex(eps, cell_of[eps.target][core.positions])",
        "entry = entries[face] = FormalSimplex(\n"
        "                        identity_map(p - 1), cell_of[eps.target][core.positions]\n"
        "                    )",
        "hom_complex writes every face entry with an identity collapse",
    ),
    "shape-plan-left-repeat-only": (
        "simpset.py",
        "if (i and v[i - 1] == j) or (i < degree and v[i + 1] == j):",
        "if i and v[i - 1] == j:",
        "the face plan keeps a face on its cell only when v[i] repeats on the left",
    ),
    "offsets-wrong-width": (
        "simpset.py",
        "k += comb(degree, c.dim)",
        "k += comb(degree, c.dim + 1)",
        "each cell's offset counts the collapses onto one dimension more",
    ),
    "cli-cap-fallback-dropped": (
        "cli.py",
        'inputs["cap"] = max_degree',
        "pass",
        "a command whose line names no cap runs without the --max-degree cap",
    ),
    "edge-mask-reads-next-value": (
        "simpset.py",
        "bad >> v[s] & 1",
        "bad >> v[s + 1] & 1",
        "a step's edge mask reads the elementary edge after the one it climbs",
    ),
    "shape-size-unbounded": (
        "simpset.py",
        "comb(degree, dim) <= _SHAPE_SIZE",
        "True",
        "the shape tables keep a shape of any size",
    ),
    "oracle-pullback-key-drops-cell": (
        "oracle.py",
        "key = (z.generator.name, tuple([v[t] for t in phi.values]))",
        "key = tuple([v[t] for t in phi.values])",
        "the oracle's pullback memo keys on values alone, so two cells' pullbacks collide",
    ),
}


def _apply(module, snippet, replacement):
    """Patch the module in place; False when the snippet is not there once."""
    text = module.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        return False
    module.write_text(text.replace(snippet, replacement), encoding="utf-8")
    return True


def run_mutant(name, timeout):
    """(status, failing tests) for one mutant: status is 'killed',
    'survived' or 'stale'."""
    module, snippet, replacement, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="simphom-mutant-") as tmp:
        tmp = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tmp / part)
        if not _apply(tmp / "src" / "simphom" / module, snippet, replacement):
            return "stale", []
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"]
        try:
            proc = subprocess.run(
                command, cwd=tmp, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            try:
                proc = subprocess.run(
                    command + ["-x"], cwd=tmp, env=env, capture_output=True, text=True,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return "killed", ["(Tier-1 outlasted %g s)" % (timeout,)]
    failing = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if proc.returncode == 0:
        return "survived", []
    return "killed", failing or ["(pytest exit status %d)" % (proc.returncode,)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    parser.add_argument(
        "--timeout", type=float, default=300, help="seconds one Tier-1 run may take (default 300)"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, (module, _, _, what) in MUTANTS.items():
            print("%s (%s): %s" % (name, module, what))
        return 0
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        parser.error("unknown mutant(s): %s" % ", ".join(unknown))
    ok = True
    for name in args.names or MUTANTS:
        status, failing = run_mutant(name, args.timeout)
        ok = ok and status == "killed"
        print("%s: %s" % (name, status))
        for test in failing:
            print("    " + test)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
