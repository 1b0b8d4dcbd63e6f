"""Per-layer span tracer for simphom, installed from outside the package.

Every traced name is a public function or method of a ``simphom`` module.
Installing the tracer replaces that name, in every ``simphom`` module that
holds it (modules import each other's functions by name, so ``cli`` has its
own ``dim_hom`` and ``hom`` its own ``is_regular``), with a wrapper that
records a span.  A span's self time is its duration minus the time covered
by its child spans.  A name that no longer exists is listed in ``missing``
and the metrics that depend only on missing names are reported as missing.

Nothing is recorded while ``enabled`` is false, so the benchmark's own
input generation and exactness checks stay out of the trace.
"""

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter
from types import GeneratorType

# layer -> (module, attribute path) pairs.  A layer's metrics cover exactly
# the names listed here; time spent elsewhere is the caller's self time.
LAYERS = {
    "delta": [
        ("delta", name)
        for name in (
            "compose_monotone",
            "identity_map",
            "face_map",
            "degeneracy_map",
            "edge_map",
            "collapse_map",
            "epi_mono_factor",
            "surjection_to_word",
            "word_to_surjection",
            "surjection_from_repeats",
            "MonotoneMap.__post_init__",
        )
    ],
    "simpset.apply_map": [("simpset", "SimplicialSet.apply_map")],
    "simpset.face": [("simpset", "SimplicialSet.face")],
    "simpset.simplices": [("simpset", "SimplicialSet.simplices")],
    "simpset.build": [
        ("simpset", name)
        for name in (
            "SimplicialSet.__init__",
            "delta",
            "subcomplex",
            "boundary_delta",
            "horn",
            "union",
            "disjoint_sum",
            "quotient",
            "product",
            "nerve_poset",
            "to_json_dict",
            "from_json_dict",
            "is_isomorphic",
        )
    ],
    "paths": [
        ("paths", name)
        for name in (
            "all_paths",
            "path_index",
            "flip_constraints",
            "split_path_at_column",
            "merged_split",
        )
    ],
    "regularity": [
        ("regularity", name)
        for name in (
            "is_strongly_regular",
            "is_regular",
            "satisfies_pr",
            "count_efficient_edges",
            "edge_detects_degeneracy",
        )
    ],
    "hom.search": [
        ("hom", name)
        for name in (
            "hom_simplex",
            "validate_hom_simplex",
            "iter_hom_simplices",
            "enumerate_hom_simplices",
        )
    ],
    "hom.reindex": [
        ("hom", name)
        for name in (
            "hom_bireindex",
            "hom_reindex",
            "hom_face",
            "hom_degeneracy",
            "hom_source_reindex",
        )
    ],
    "hom.retraction": [
        ("hom", name)
        for name in (
            "is_degenerate_hom",
            "normalize_hom",
            "lemma4_witness",
            "is_degenerate_family",
        )
    ],
    "hom.column": [("hom", "edge_restriction"), ("hom", "almost_degenerate_at")],
    "hom.drivers": [
        ("hom", name)
        for name in (
            "dim_hom",
            "dim_hom_general",
            "hom_complex",
            "iter_hom_families",
            "hom_general",
            "theorem1bis_bound",
        )
    ],
    "oracle": [
        ("oracle", name)
        for name in (
            "count_simplicial_maps",
            "brute_force_hom_count",
            "count_monotone_lattice_maps",
        )
    ],
    "exhibits": [
        ("exhibits", name)
        for name in (
            "clamp",
            "tight_simplex",
            "lattice_to_hom",
            "hom_to_lattice",
            "lurie_family",
            "interval_component",
            "hom1_degeneracy_test",
            "corpus",
        )
    ],
    "cli.parse": [("cli", "parse_script")],
    "cli.run": [("cli", "run")],
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    name = parts[-1]
    # Read the class dict so a method is fetched as the plain function.
    source = vars(owner) if inspect.isclass(owner) else None
    target = source.get(name) if source is not None else getattr(owner, name, None)
    return owner, name, target


class Tracer:
    """Span and counter state for one traced process."""

    def __init__(self):
        self.enabled = False
        self.stack = []  # [layer, start, time covered by children]
        self.depth = Counter()  # open spans per layer
        self.self_s = Counter()
        self.entries = Counter()  # calls into a layer from outside it
        self.counts = Counter()
        self.missing = []
        self.installed = {}  # layer -> number of names wrapped

    # -- spans -----------------------------------------------------------

    def _enter(self, layer, entry=True):
        stack = self.stack
        if entry and (not stack or stack[-1][0] != layer):
            self.entries[layer] += 1
        depth = self.depth
        if layer == "simpset.face" and depth["hom.search"]:
            self.counts["face_calls_in_search"] += 1
        elif layer == "simpset.apply_map" and depth["oracle"]:
            self.counts["apply_calls_in_oracle"] += 1
        depth[layer] += 1
        stack.append([layer, perf_counter(), 0.0])

    def _exit(self):
        layer, start, children = self.stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - children
        self.depth[layer] -= 1
        if self.stack:
            self.stack[-1][2] += duration

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        tracer = self
        on_result = _RESULT_HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if type(result) is GeneratorType:
                return tracer._resume(layer, result, on_result)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced

    def _resume(self, layer, gen, on_result):
        # Each resumption of a traced generator is a span of its own, so
        # the search work done between two results is charged where it runs.
        while True:
            if not self.enabled:
                yield from gen
                return
            self._enter(layer, entry=False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            if on_result is not None:
                on_result(self.counts, item)
            yield item

    def install(self):
        """Wrap every listed name; returns self."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if (key == "simphom" or key.startswith("simphom.")) and m is not None
        ]
        for layer, names in LAYERS.items():
            wrapped = 0
            for module_name, path in names:
                module = sys.modules.get("simphom." + module_name)
                owner, name, target = (
                    _resolve(module, path) if module is not None else (None, None, None)
                )
                if target is None or not callable(target):
                    self.missing.append("%s.%s" % (module_name, path))
                    continue
                wrapper = self._wrap(layer, "%s.%s" % (module_name, path), target)
                if inspect.isclass(owner):
                    setattr(owner, name, wrapper)
                else:
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is target:
                                setattr(m, attr, wrapper)
                wrapped += 1
            self.installed[layer] = wrapped
        return self


def _count_maps_built(counts, _result):
    counts["maps_built"] += 1


def _count_search_result(counts, _item):
    counts["search_results"] += 1


def _count_maps_counted(counts, result):
    counts["maps_counted"] += result


def _count_classified(counts, _result):
    counts["retraction_classified"] += 1


_RESULT_HOOKS = {
    "delta.MonotoneMap.__post_init__": _count_maps_built,
    "hom.iter_hom_simplices": _count_search_result,
    "oracle.count_simplicial_maps": _count_maps_counted,
    "hom.is_degenerate_hom": _count_classified,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall_s):
    """The per-layer metrics, as ``name -> (value or None, unit)``.

    ``None`` marks a metric whose layer has no traced name left.
    """
    t = tracer
    out = {}

    def put(name, layer, value, unit):
        present = layer is None or t.installed.get(layer, 0) > 0
        out[name] = (value if present else None, unit)

    put("delta.maps_built", "delta", t.counts["maps_built"], "count")
    put("delta.calls", "delta", t.entries["delta"], "count")
    put("delta.self_s", "delta", t.self_s["delta"], "s")
    put("simpset.apply_map.calls", "simpset.apply_map", t.entries["simpset.apply_map"], "count")
    put("simpset.apply_map.self_s", "simpset.apply_map", t.self_s["simpset.apply_map"], "s")
    put("simpset.face.calls", "simpset.face", t.entries["simpset.face"], "count")
    put("simpset.face.self_s", "simpset.face", t.self_s["simpset.face"], "s")
    put("simpset.simplices.self_s", "simpset.simplices", t.self_s["simpset.simplices"], "s")
    put("simpset.build.self_s", "simpset.build", t.self_s["simpset.build"], "s")
    put("paths.calls", "paths", t.entries["paths"], "count")
    put("paths.self_s", "paths", t.self_s["paths"], "s")
    results = t.counts["search_results"]
    put("hom.search.self_s", "hom.search", t.self_s["hom.search"], "s")
    put("hom.search.results", "hom.search", results, "count")
    put(
        "hom.search.face_calls_per_result",
        "hom.search",
        _ratio(t.counts["face_calls_in_search"], results),
        "ratio",
    )
    put("hom.reindex.calls", "hom.reindex", t.entries["hom.reindex"], "count")
    put("hom.reindex.self_s", "hom.reindex", t.self_s["hom.reindex"], "s")
    put(
        "hom.reindex.calls_per_classified",
        "hom.reindex",
        _ratio(t.entries["hom.reindex"], t.counts["retraction_classified"]),
        "ratio",
    )
    put("hom.retraction.calls", "hom.retraction", t.entries["hom.retraction"], "count")
    put("hom.retraction.self_s", "hom.retraction", t.self_s["hom.retraction"], "s")
    put("hom.column.self_s", "hom.column", t.self_s["hom.column"], "s")
    put("hom.drivers.calls", "hom.drivers", t.entries["hom.drivers"], "count")
    put("hom.drivers.self_s", "hom.drivers", t.self_s["hom.drivers"], "s")
    put("regularity.calls", "regularity", t.entries["regularity"], "count")
    put("regularity.self_s", "regularity", t.self_s["regularity"], "s")
    maps = t.counts["maps_counted"]
    put("oracle.calls", "oracle", t.entries["oracle"], "count")
    put("oracle.self_s", "oracle", t.self_s["oracle"], "s")
    put("oracle.maps_counted", "oracle", maps, "count")
    put(
        "oracle.apply_calls_per_map",
        "oracle",
        _ratio(t.counts["apply_calls_in_oracle"], maps),
        "ratio",
    )
    put("exhibits.self_s", "exhibits", t.self_s["exhibits"], "s")
    put("cli.parse.self_s", "cli.parse", t.self_s["cli.parse"], "s")
    put("cli.run.self_s", "cli.run", t.self_s["cli.run"], "s")
    put("unattributed.self_s", None, traced_wall_s - sum(t.self_s.values()), "s")
    return out
