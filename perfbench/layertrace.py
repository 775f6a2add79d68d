"""Spans around calls into each lietorsion layer, recorded from outside.

Instrumentation replaces each traced function wherever a caller looks it up:
in the module that defines it, and in every lietorsion module (the package
namespace included) that bound the same object with ``from .x import f``.
Methods are replaced on their class.  Spans stay in memory as tuples
(name, start, end, parent) and are summarised or written when the round ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# layer -> module-level functions traced in that layer's module
FUNCTIONS = {
    "words": ["lyndon_words", "lyndon_words_of_length", "lyndon_words_with_content"],
    "elements": ["lie_from_tensor", "to_tensor", "leftnormed_tensor", "lyndon_monomial",
                 "left_normalize", "normal_form", "bracket"],
    "maps": ["nu", "rho", "mu", "kappa", "lam", "eta", "theta", "theta_presum", "derive",
             "metabelian_of_word", "metabelian_normal_coords", "normal_words",
             "mixed_basis", "sym_basis", "check_exactness", "random_homogeneous",
             "random_metabelian", "random_action"],
    "zlinalg": ["smith_normal_form", "cokernel_structure", "hermite_normal_form",
                "integer_kernel", "solve_left", "order_in_cokernel", "saturation"],
    "torsion": ["action_matrix", "graded_cokernel", "theorem_element", "verify_theorem_degree",
                "torsion_report", "metabelian_torsion_check", "bp_kernel_basis",
                "bp_freeness_check", "lie_power_basis"],
    "charp": ["rref_mod", "rank_mod", "in_span_mod", "right_kernel_mod", "sigma_vector",
              "alpha_vector", "beta_vector", "bp_space", "check_summand", "pbw_basis"],
    "cli": ["main", "run", "identity_suite", "run_lyndon", "run_verify", "run_torsion",
            "run_theorem", "run_summand", "run_report", "emit_report"],
}

# layer -> class -> methods traced on the class
METHODS = {
    "zlinalg": {"IntLattice": ["__init__", "add", "__contains__", "contains_lattice"]},
    "torsion": {"TorsionEngine": ["__init__", "lie_basis", "normal_basis", "derived_coords",
                                  "action_matrix", "graded_cokernel", "theorem_element",
                                  "theorem_vector", "verify_theorem_degree", "torsion_report",
                                  "metabelian_matrix", "metabelian_torsion_check",
                                  "eta_matrix", "bp_kernel_basis", "bp_freeness_check"]},
    "charp": {"PBWBasis": ["__init__", "filtration_vectors", "class_vectors"]},
}

LAYERS = tuple(FUNCTIONS)

# per-layer metric -> unit, in print order; ``trace.overhead_frac`` compares
# traced with untraced rounds, so run.py computes it
UNITS = {
    "trace.wall_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
    "zlinalg.self_frac": "frac",
    "zlinalg.snf_calls": "count",
    "zlinalg.snf_frac": "frac",
    "zlinalg.snf_cells": "count",
    "zlinalg.snf_nnz": "count",
    "zlinalg.snf_max_cells": "count",
    "zlinalg.snf_distinct_frac": "frac",
    "zlinalg.lattice_queries": "count",
    "zlinalg.lattice_frac": "frac",
    "zlinalg.hnf_calls": "count",
    "zlinalg.hnf_frac": "frac",
    "words.calls": "count",
    "words.self_frac": "frac",
    "words.words_out": "count",
    "maps.self_frac": "frac",
    "maps.theta_calls": "count",
    "maps.theta_frac": "frac",
    "maps.derive_calls": "count",
    "maps.derive_frac": "frac",
    "elements.self_frac": "frac",
    "elements.tensor_terms": "count",
    "torsion.self_frac": "frac",
    "torsion.action_matrix_calls": "count",
    "torsion.action_matrix_distinct_frac": "frac",
    "torsion.theorem_element_calls": "count",
    "torsion.theorem_element_frac": "frac",
    "torsion.degree_max_s": "s",
    "charp.self_frac": "frac",
    "charp.rref_calls": "count",
    "charp.rref_frac": "frac",
    "charp.rref_cells": "count",
    "cli.self_frac": "frac",
}


def _matrix_key(rows):
    return hash(tuple(map(tuple, rows)))


def _nnz(rows):
    return sum(len(r) - r.count(0) for r in rows)


class Tracer:
    """Records spans and the per-call counts the layer metrics need."""

    def __init__(self):
        self.names = []          # span name by id
        self.spans = []          # (name id, start, end, parent span index or -1)
        self.stack = []
        self.snf = []            # (cells, nnz, matrix key) per SNF call
        self.action_keys = []    # matrix key per action-matrix build
        self.tensor_terms = 0
        self.words_out = 0
        self.lattice_queries = 0
        self.rref_cells = 0

    def wrap(self, fn, name):
        """fn recording a span named name, plus the counts its probes take."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        probe = PROBES.get(name)
        result_probe = RESULT_PROBES.get(name)

        def traced(*args, **kwargs):
            if probe is not None:
                probe(self, args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name_id, 0.0, 0.0, parent))   # open until the call returns
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if result_probe is not None:
                result_probe(self, result, stack)
            return result

        return traced

    # -- summary -------------------------------------------------------------

    def summary(self, work_s):
        """Per-layer metrics of one traced round whose work phase took work_s."""
        spans = self.spans
        n = len(spans)
        child_s = [0.0] * n
        for _, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        layer_of = [name.split(".", 1)[0] for name in self.names]
        short = [name.split(".")[-1] for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        roots_s = 0.0
        for i, (nid, start, end, parent) in enumerate(spans):
            self_s[layer_of[nid]] += (end - start) - child_s[i]
            if parent < 0:
                roots_s += end - start

        def outer(test):
            """Calls and total time of spans matching test with no matching ancestor."""
            match = [test(name) for name in self.names]
            calls, total = 0, 0.0
            for nid, start, end, parent in spans:
                if not match[nid]:
                    continue
                while parent >= 0 and not match[spans[parent][0]]:
                    parent = spans[parent][3]
                if parent < 0:
                    calls += 1
                    total += end - start
            return calls, total

        snf_calls, snf_s = outer(lambda s: s == "zlinalg.smith_normal_form")
        hnf_calls, hnf_s = outer(lambda s: s == "zlinalg.hermite_normal_form")
        _, lattice_s = outer(lambda s: s.startswith("zlinalg.IntLattice."))
        theta_calls, theta_s = outer(lambda s: s == "maps.theta")
        derive_calls, derive_s = outer(lambda s: s == "maps.derive")
        rref_calls, rref_s = outer(lambda s: s == "charp.rref_mod")
        thm_calls, thm_s = outer(lambda s: s.endswith("theorem_element"))
        degree_s = [end - start for nid, start, end, _ in spans
                    if short[nid] == "verify_theorem_degree"]
        words_calls = sum(1 for nid, *_ in spans if layer_of[nid] == "words")

        def frac(x):
            return x / work_s if work_s > 0 else 0.0

        def distinct(keys):
            return len(set(keys)) / len(keys) if keys else 0.0

        metrics = {
            "trace.wall_s": work_s,
            "trace.coverage": roots_s / work_s if work_s > 0 else 0.0,
            "zlinalg.self_frac": frac(self_s["zlinalg"]),
            "zlinalg.snf_calls": snf_calls,
            "zlinalg.snf_frac": frac(snf_s),
            "zlinalg.snf_cells": sum(c for c, _, _ in self.snf),
            "zlinalg.snf_nnz": sum(z for _, z, _ in self.snf),
            "zlinalg.snf_max_cells": max((c for c, _, _ in self.snf), default=0),
            "zlinalg.snf_distinct_frac": distinct([k for _, _, k in self.snf]),
            "zlinalg.lattice_queries": self.lattice_queries,
            "zlinalg.lattice_frac": frac(lattice_s),
            "zlinalg.hnf_calls": hnf_calls,
            "zlinalg.hnf_frac": frac(hnf_s),
            "words.calls": words_calls,
            "words.self_frac": frac(self_s["words"]),
            "words.words_out": self.words_out,
            "maps.self_frac": frac(self_s["maps"]),
            "maps.theta_calls": theta_calls,
            "maps.theta_frac": frac(theta_s),
            "maps.derive_calls": derive_calls,
            "maps.derive_frac": frac(derive_s),
            "elements.self_frac": frac(self_s["elements"]),
            "elements.tensor_terms": self.tensor_terms,
            "torsion.self_frac": frac(self_s["torsion"]),
            "torsion.action_matrix_calls": len(self.action_keys),
            "torsion.action_matrix_distinct_frac": distinct(self.action_keys),
            "torsion.theorem_element_calls": thm_calls,
            "torsion.theorem_element_frac": frac(thm_s),
            "torsion.degree_max_s": max(degree_s, default=0.0),
            "charp.self_frac": frac(self_s["charp"]),
            "charp.rref_calls": rref_calls,
            "charp.rref_frac": frac(rref_s),
            "charp.rref_cells": self.rref_cells,
            "cli.self_frac": frac(self_s["cli"]),
        }
        seconds = {f"{layer}.self_s": s for layer, s in self_s.items()}
        seconds.update({"zlinalg.snf_s": snf_s, "zlinalg.hnf_s": hnf_s,
                        "zlinalg.lattice_s": lattice_s, "maps.theta_s": theta_s,
                        "maps.derive_s": derive_s, "charp.rref_s": rref_s,
                        "torsion.theorem_element_s": thm_s})
        return metrics, seconds

    def dump(self, path):
        """Write the spans as JSON: names plus [name id, start, end, parent] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


# -- per-call probes: counts measured where the work happens -------------------

def _probe_snf(tracer, args, kwargs):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows else 0
    tracer.snf.append((cells, _nnz(rows), _matrix_key(rows)))


def _probe_lie_from_tensor(tracer, args, kwargs):
    tracer.tensor_terms += len(args[0].terms)


def _probe_contains(tracer, args, kwargs):
    tracer.lattice_queries += 1


def _probe_rref(tracer, args, kwargs):
    tracer.rref_cells += len(args[0]) * args[1]


PROBES = {
    "zlinalg.smith_normal_form": _probe_snf,
    "elements.lie_from_tensor": _probe_lie_from_tensor,
    "zlinalg.IntLattice.__contains__": _probe_contains,
    "charp.rref_mod": _probe_rref,
}


def _result_words(tracer, result, stack):
    # count words once, at the outermost words call
    if not any(tracer.names[tracer.spans[i][0]].startswith("words.") for i in stack):
        tracer.words_out += len(result)


def _result_action_matrix(tracer, result, stack):
    tracer.action_keys.append(_matrix_key(result))


RESULT_PROBES = {
    "words.lyndon_words": _result_words,
    "words.lyndon_words_of_length": _result_words,
    "words.lyndon_words_with_content": _result_words,
    "torsion.TorsionEngine.action_matrix": _result_action_matrix,
}


def instrument(tracer):
    """Replace every traced function and method of the imported lietorsion."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "lietorsion" or name.startswith("lietorsion."))]
    for layer, names in FUNCTIONS.items():
        home = sys.modules[f"lietorsion.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.wrap(original, f"{layer}.{fname}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                    elif type(value) is dict:
                        # dispatch tables such as the CLI's RUNNERS
                        for key, entry in value.items():
                            if entry is original:
                                value[key] = wrapped
    for layer, classes in METHODS.items():
        home = sys.modules[f"lietorsion.{layer}"]
        for cname, methods in classes.items():
            cls = getattr(home, cname)
            for mname in methods:
                setattr(cls, mname, tracer.wrap(cls.__dict__[mname], f"{layer}.{cname}.{mname}"))
