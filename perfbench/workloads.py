"""The four benchmark workloads: seeded inputs, the query, and its checks.

A workload turns a seed into a list of queries made of plain data (JSON
presentations of target sets, script text, integers), so the library only
ever sees the generated inputs.  ``run`` executes one query and returns a
summary that is compared with the committed reference and hashed into the
run digest; ``check`` verifies a summary by routes that need no reference.
"""

import functools
import hashlib
import json
import math
import random

# Library names are looked up on the package at call time, so a traced run
# sees the wrappers its tracer installs there.
import simphom as sh
from simphom import cli


def fingerprint(data):
    """A short stable hash of JSON-able data, used as a reference key."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeded_pool(seed, extra=40):
    """Seeded corpus entries (landmarks excluded) regular by construction.

    Regular targets keep every workload exact without degree caps, and
    their mapping spaces grow polynomially with the degree, so a size rule
    read off the target bounds the cost of a query.
    """
    landmarks = len(sh.corpus())
    return [
        (e.name, e.space)
        for e in sh.corpus(seed, count=landmarks + extra)[landmarks:]
        if e.regular is True and e.space.dim >= 1
    ]


def _landmarks(*names):
    by_name = {e.name: e.space for e in sh.corpus()}
    return [(name, by_name[name]) for name in names]


def _mix(seed, grid, seeded, share):
    """The grid queries plus ``share`` seeded ones, in seeded order.

    The grid is the same for every seed.  The seeded queries draw seeded
    corpus entries and are kept small, below the grid's median cost, so
    they always sit on the same side of the median: the medians and the
    tail then hardly depend on the seed, while every seed still feeds the
    library targets no other seed does.
    """
    rng = random.Random(seed)
    out = list(grid) + [seeded(rng) for _ in range(share)]
    rng.shuffle(out)
    return out


def _standard_dim(data):
    """q when a JSON presentation is exactly the standard q-simplex, else None.

    Read off the presentation rather than a name, so that a seeded entry
    equal to a landmark gets the same checks and the same reference.
    """
    for q, standard in enumerate(_standard_presentations()):
        if data == standard:
            return q
    return None


@functools.lru_cache(maxsize=None)
def _standard_presentations():
    return tuple(sh.to_json_dict(sh.delta(q)) for q in range(4))


def _query(label, space, **params):
    data = sh.to_json_dict(space)
    return {"label": label, "std": _standard_dim(data), "target": data, **params}


def _largest_degree(space, n, budget, cap):
    """The largest p <= cap whose candidate pool times path count fits."""
    p = 1
    while p < cap and len(space.simplices(p + 1 + n)) * math.comb(p + 1 + n, n) <= budget:
        p += 1
    return p


def _tokens(f):
    return [v.token() for v in f.values]


# ---------------------------------------------------------------------------
# the long-path probe
# ---------------------------------------------------------------------------

LONG_PATH_CAP = 64


def long_path_limit():
    """(largest p <= LONG_PATH_CAP that enumerate_hom_simplices(delta(0), 2, p) answers, problems).

    Hom(D^2, D^0)_p has one simplex, reached through C(p+2, 2) lattice
    paths.  The search core recursed once per path when the benchmark was
    added, so it raised RecursionError from p = 44 on (1035 paths).  The
    limit is found by bisection, assuming that a p which raises makes every
    larger p raise too.  Each answer is checked against the lattice DP; any
    other exception than RecursionError is a problem.
    """
    problems = []

    def answers(p):
        try:
            count = len(sh.enumerate_hom_simplices(sh.delta(0), 2, p))
        except RecursionError:
            return False
        except Exception as exc:
            problems.append("p=%d raised %s: %s" % (p, type(exc).__name__, str(exc)[:120]))
            return False
        expected = sh.count_monotone_lattice_maps(p, 2, 0)
        if count != expected:
            problems.append("p=%d: %d simplices, lattice count %d" % (p, count, expected))
        return True

    lo, hi = 0, LONG_PATH_CAP + 1  # p = 0 has a single path
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if answers(mid):
            lo = mid
        else:
            hi = mid
    return lo, problems


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


class Enumerate:
    """``enumerate_hom_simplices`` on a freshly built target per query."""

    name = "enumerate"
    unit = "hom simplices returned"

    # Scales of the size budget: the query costs spread evenly instead of
    # clustering one value per target.
    scales = (0.5, 0.7, 1.0, 1.4, 2.0)
    wide = ("delta2", "delta3", "nerve-chain", "square", "prism", "nerve-diamond",
            "boundary3", "horn31", "two-triangles")
    thin = ("delta1", "boundary2", "horn21", "nerve-vee", "nerve-fence")

    def _sized(self, name, space, scale):
        # wide candidate pools with few paths, or thin targets with long paths
        n, budget = (1, 800) if space.dim >= 2 else (2, 600)
        return _query(name, space, n=n, p=_largest_degree(space, n, budget * scale, 16))

    def queries(self, seed):
        grid = [
            self._sized(name, space, scale)
            for name, space in _landmarks(*self.wide, *self.thin)
            for scale in self.scales
        ]
        pool = [e for e in _seeded_pool(seed) if len(e[1].cells) <= 20] or _landmarks(*self.thin)

        def seeded(rng):
            name, space = rng.choice(pool)
            return self._sized(name, space, 0.25)

        return _mix(seed, grid, seeded, 10)

    def warmup(self):
        return _query("delta1", sh.delta(1), n=1, p=3)

    def key(self, q):
        return "%s:n%d:p%d" % (fingerprint(q["target"]), q["n"], q["p"])

    def run(self, q):
        space = sh.from_json_dict(q["target"])
        found = sh.enumerate_hom_simplices(space, q["n"], q["p"])
        return {
            "count": len(found),
            "first": _tokens(found[0]) if found else None,
            "last": _tokens(found[-1]) if found else None,
        }

    def items(self, summary):
        return summary["count"]

    def check(self, q, summary):
        problems = []
        space = sh.from_json_dict(q["target"])
        vertices = len(sh.enumerate_hom_simplices(space, q["n"], 0))
        if vertices != len(space.simplices(q["n"])):
            problems.append("|Hom_0| != |X_n|")
        if q["std"] is not None:
            expected = sh.count_monotone_lattice_maps(q["p"], q["n"], q["std"])
            if summary["count"] != expected:
                problems.append("lattice count %d != %d" % (expected, summary["count"]))
        return problems


# ---------------------------------------------------------------------------
# degeneracy_sweep
# ---------------------------------------------------------------------------


class DegeneracySweep:
    """Every degree of Hom(D^n, X) classified two ways, then assembled."""

    name = "degeneracy_sweep"
    unit = "simplices classified"

    def queries(self, seed):
        small = _landmarks("delta1", "boundary2", "horn21", "nerve-vee", "nerve-fence")
        flat = _landmarks("delta2", "nerve-chain", "square", "nerve-diamond", "two-triangles",
                          "horn31", "boundary3")
        grid = [_query(name, space, n=n) for name, space in small for n in (1, 2)]
        grid += [_query(name, space, n=1) for name, space in flat]
        # (n + 1) * dim X = 4 with long paths: the heaviest sweeps, listed once
        longest = [_query(name, space, n=3) for name, space in _landmarks("delta1", "horn21", "nerve-vee")]
        pool = [e for e in _seeded_pool(seed) if e[1].dim == 1] or small

        def seeded(rng):
            name, space = rng.choice(pool)
            return _query(name, space, n=1)

        return _mix(seed, grid * 2 + longest, seeded, 10)

    def warmup(self):
        return _query("delta1", sh.delta(1), n=1)

    def key(self, q):
        return "%s:n%d" % (fingerprint(q["target"]), q["n"])

    def run(self, q):
        space = sh.from_json_dict(q["target"])
        n = q["n"]
        by_degree = []
        disagree = 0
        for p in range(n * space.dim + space.dim + 1):
            found = sh.enumerate_hom_simplices(space, n, p)
            nondegenerate = 0
            for f in found:
                if p == 0:
                    nondegenerate += 1
                    continue
                retraction = sh.is_degenerate_hom(f)
                column = any(sh.almost_degenerate_at(f, k) for k in range(p))
                disagree += retraction != column
                nondegenerate += not retraction
            by_degree.append([len(found), nondegenerate])
        _, legend = sh.hom_complex(space, n)
        return {
            "by_degree": by_degree,
            "disagree": disagree,
            "legend": len(legend),
        }

    def items(self, summary):
        return sum(total for total, _ in summary["by_degree"])

    def check(self, q, summary):
        problems = []
        if summary["disagree"]:
            problems.append("column and retraction tests disagree %d times" % summary["disagree"])
        nondegenerate = sum(nd for _, nd in summary["by_degree"])
        if summary["legend"] != nondegenerate:
            problems.append("legend %d != nondegenerate %d" % (summary["legend"], nondegenerate))
        space = sh.from_json_dict(q["target"])
        if summary["by_degree"][0][0] != len(space.simplices(q["n"])):
            problems.append("|Hom_0| != |X_n|")
        if q["std"] is not None:
            for p, (total, _) in enumerate(summary["by_degree"]):
                if total != sh.count_monotone_lattice_maps(p, q["n"], q["std"]):
                    problems.append("lattice count differs in degree %d" % p)
        return problems


# ---------------------------------------------------------------------------
# cli_script
# ---------------------------------------------------------------------------


_REGULAR_BINDINGS = [
    "delta 1",
    "delta 2",
    "boundary 2",
    "boundary 3",
    "horn 2 1",
    "horn 2 0",
    "horn 3 1",
]
_IRREGULAR_BINDINGS = [
    "quotient T by 0,2",
    "quotient T by 0,1",
    "quotient T by 0,1;1,2",
]


def _random_nerve(rng):
    names = "abcd"[: rng.randrange(3, 5)]
    pairs = [
        "%s<%s" % (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if rng.random() < 0.4
    ]
    singles = [x for x in names if not any(x in pair for pair in pairs)]
    return "nerve { %s }" % " ".join(pairs + singles)


class CliScript:
    """One seeded script per query, run in-process through the CLI."""

    name = "cli_script"
    unit = "commands completed"

    def queries(self, seed):
        # the grid scripts come from a fixed generator, the same for every seed
        fixed = random.Random("cli_script grid")
        grid = [{"script": self._script(fixed)} for _ in range(30)]

        def seeded(rng):
            lines = [
                "set N = %s" % _random_nerve(rng),
                "check regular N",
                "check strongly-regular N",
                "homcount 1 1 target N",
            ]
            return {"script": "\n".join(lines) + "\n"}

        return _mix(seed, grid, seeded, 10)

    def _script(self, rng):
        lines = ["set D1 = delta 1", "set T = delta 2"]
        lines.append("set R = %s" % rng.choice(_REGULAR_BINDINGS))
        lines.append("set N = %s" % _random_nerve(rng))
        lines.append("set Q = %s" % rng.choice(_IRREGULAR_BINDINGS))
        lines.append("set P = delta 0")
        # a general source's family search grows fast with the target, so
        # only the two-point source meets targets larger than the interval
        source = rng.choice(["boundary 1", "horn 2 1", "sum P D1"])
        lines.append("set S = %s" % source)
        lines.append("check regular %s" % rng.choice("RNQ"))
        lines.append("check strongly-regular %s" % rng.choice("RNQ"))
        lines.append("check P %d %s cap 4" % (rng.randrange(1, 3), rng.choice("RNQ")))
        lines.append("homdim D1 target %s" % rng.choice("RN"))
        lines.append("homdim D1 target Q cap %d" % rng.randrange(2, 4))
        lines.append("homdim S target %s" % (rng.choice("NT") if source == "boundary 1" else "D1"))
        lines.append("homcount %d %d target %s" % (rng.randrange(1, 3), rng.randrange(1, 3), rng.choice("RNT")))
        if rng.random() < 0.5:
            lines.append("example tight %d %d" % (rng.randrange(1, 3), rng.randrange(1, 3)))
        else:
            lines.append("example lurie 3 1 %d" % rng.randrange(4, 6))
        return "\n".join(lines) + "\n"

    def warmup(self):
        return {"script": "set A = delta 1\ncheck regular A\nhomcount 1 1 target A\n"}

    def key(self, q):
        return fingerprint(q["script"])

    def run(self, q):
        results, ok = cli.run(cli.parse_script(q["script"]))
        for res in results:
            res.pop("elapsed_ms", None)
        return {"ok": ok, "results": results}

    def items(self, summary):
        return sum(1 for res in summary["results"] if "error" not in res)

    def check(self, q, summary):
        problems = []
        if not summary["ok"]:
            problems.append("script reported an error")
        bound = {}
        for line in q["script"].splitlines():
            parts = line.split()
            if parts[0] == "set" and parts[3] == "delta":
                bound[parts[1]] = int(parts[4])
        for res in summary["results"]:
            inputs = res.get("inputs", {})
            if res.get("command") == "homcount" and inputs.get("target") in bound:
                q_dim = bound[inputs["target"]]
                expected = sh.count_monotone_lattice_maps(inputs["p"], inputs["n"], q_dim)
                if res["counts"]["total"] != expected:
                    problems.append("homcount total != lattice count")
            if (
                res.get("command") == "homdim"
                and inputs.get("source") == "D1"
                and inputs.get("target") in bound
                and res["value"] != 2 * bound[inputs["target"]]
            ):
                problems.append("dim Hom(D1, Dq) != 2q")
        return problems


# ---------------------------------------------------------------------------
# oracle_check
# ---------------------------------------------------------------------------


class OracleCheck:
    """|Hom(D^n, X)_p| counted by the engine and by the independent oracles."""

    name = "oracle_check"
    unit = "maps counted by the oracle"

    def _sized(self, name, space, n):
        # the product D^p x D^n the oracle walks grows like C(p+n, n)
        p = 1
        while p < 3 and len(space.simplices(p + 1 + n)) * math.comb(p + 1 + n, n) <= 40:
            p += 1
        return _query(name, space, n=n, p=p)

    def queries(self, seed):
        small = _landmarks("delta1", "delta2", "delta3", "boundary2", "horn21", "nerve-vee",
                           "nerve-fence")
        larger = _landmarks("square", "nerve-chain", "two-triangles")
        grid = [self._sized(name, space, n) for name, space in small for n in (1, 2)]
        grid += [self._sized(name, space, 1) for name, space in larger]
        pool = [e for e in _seeded_pool(seed) if len(e[1].cells) <= 11] or small

        def seeded(rng):
            name, space = rng.choice(pool)
            return _query(name, space, n=1, p=1)

        return _mix(seed, grid * 2, seeded, 10)

    def warmup(self):
        return _query("delta1", sh.delta(1), n=1, p=1)

    def key(self, q):
        return "%s:n%d:p%d" % (fingerprint(q["target"]), q["n"], q["p"])

    def run(self, q):
        space = sh.from_json_dict(q["target"])
        n, p = q["n"], q["p"]
        out = {
            "engine": len(sh.enumerate_hom_simplices(space, n, p)),
            "brute_force": sh.brute_force_hom_count(sh.delta(n), space, p),
        }
        if q["std"] is not None:
            out["lattice"] = sh.count_monotone_lattice_maps(p, n, q["std"])
        return out

    def items(self, summary):
        return summary["brute_force"]

    def check(self, q, summary):
        if len(set(summary.values())) != 1:
            return ["counts disagree: %r" % (summary,)]
        return []


WORKLOADS = {w.name: w for w in (Enumerate(), DegeneracySweep(), CliScript(), OracleCheck())}
