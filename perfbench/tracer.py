"""Timing wrappers around cyclokit's layer entry points, for the traced run.

Nothing under src/ changes. ``Tracer.install`` rebinds each traced function
in every loaded cyclokit module that holds it (so internal calls such as
torus.theta -> torus.recombine go through the wrapper too) and replaces the
traced element operators on their classes. A wrapper keeps a call count
and a self time per name instead of one span per call; the self time is
the call's duration minus the time of traced calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPAWN_ENV = "PERFBENCH_SPAWN_T"  # parent's perf_counter when it started a traced command
MARK = "PERFBENCH_TRACE "  # prefix of a traced command's report line on stderr

# metric prefix -> (module, attribute) of a traced function
FUNCTIONS = {
    "intpoly.xgcd_rational": ("cyclokit.intpoly", "xgcd_rational"),
    "intpoly.resultant": ("cyclokit.intpoly", "resultant"),
    "intpoly.divrem_exact": ("cyclokit.intpoly", "divrem_exact"),
    "cyclotomic.cyclotomic": ("cyclokit.cyclotomic", "cyclotomic"),
    "cyclotomic.resultant_apostol": ("cyclokit.cyclotomic", "resultant_apostol"),
    "inverses.verify_closed_forms": ("cyclokit.inverses", "verify_closed_forms"),
    "inverses.inverse_mod": ("cyclokit.inverses", "inverse_mod"),
    "finitefield.make_ext_field": ("cyclokit.finitefield", "make_ext_field"),
    "finitefield.torus_membership": ("cyclokit.finitefield", "torus_membership"),
    "torus.derive_params": ("cyclokit.torus", "derive_params"),
    "torus.decompose": ("cyclokit.torus", "decompose"),
    "torus.recombine": ("cyclokit.torus", "recombine"),
    "torus.theta": ("cyclokit.torus", "theta"),
    "torus.theta_reverse": ("cyclokit.torus", "theta_reverse"),
    "torus.subfield_embed": ("cyclokit.torus", "subfield_embed"),
    "torus.subfield_extract": ("cyclokit.torus", "subfield_extract"),
    "torus.embedding": ("cyclokit.torus", "_embedding"),
    "torus.kernel_annihilator": ("cyclokit.torus", "kernel_annihilator"),
    "cli.main": ("cyclokit.cli", "main"),
}

# metric prefix -> (module, class, methods) of a traced operator
METHODS = {
    "intpoly.IntPoly.mul": ("cyclokit.intpoly", "IntPoly", ("__mul__", "__rmul__")),
    "finitefield.mul": ("cyclokit.finitefield", "ExtFieldElement", ("__mul__",)),
    "finitefield.pow": ("cyclokit.finitefield", "ExtFieldElement", ("__pow__",)),
    "finitefield.inv": ("cyclokit.finitefield", "ExtFieldElement", ("inv",)),
}

# counts that must repeat exactly for the same op list
EXACT_COUNTS = (
    "finitefield.mul.calls",
    "finitefield.inv.calls",
    "finitefield.pow.calls",
    "intpoly.xgcd_rational.calls",
    "inverses.inverse_mod.calls",
    "finitefield.make_ext_field.candidates",
    "cyclotomic.cyclotomic.misses",
)


# counters the wrappers derive from arguments, results and cache statistics
EXTRAS = (
    "inverses.cases_checked",
    "inverses.cases_failed",
    "finitefield.make_ext_field.misses",
    "finitefield.make_ext_field.candidates",
    "cyclotomic.cyclotomic.misses",
    "torus.embedding_build_s",
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.extra = dict.fromkeys(EXTRAS, 0)
        self._stack = [[0.0]]  # child time of each open span; the root never closes

    def _wrap(self, name, fn, after=None):
        st = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                st[0] += 1
                st[1] += elapsed - frame[0]
            if after is not None:
                after(args, result, elapsed)
            return result

        return traced

    def _after_hooks(self, originals):
        extra = self.extra

        def cases(args, reports, elapsed):
            extra["inverses.cases_checked"] += len(reports)
            extra["inverses.cases_failed"] += sum(not r.bound_satisfied for r in reports)

        def missed(name):
            cache = originals[name]
            seen = [cache.cache_info().misses]

            def check():
                now = cache.cache_info().misses
                new, seen[0] = now - seen[0], now
                return new

            return check

        cyclo_missed = missed("cyclotomic.cyclotomic")
        field_missed = missed("finitefield.make_ext_field")
        embed_missed = missed("torus.embedding")

        def cyclotomic(args, result, elapsed):
            extra["cyclotomic.cyclotomic.misses"] += cyclo_missed()

        def make_ext_field(args, field, elapsed):
            if field_missed():
                extra["finitefield.make_ext_field.misses"] += 1
                extra["finitefield.make_ext_field.candidates"] += _candidates_tested(field)

        def embedding(args, result, elapsed):
            if embed_missed():
                extra["torus.embedding_build_s"] += elapsed

        return {
            "inverses.verify_closed_forms": cases,
            "cyclotomic.cyclotomic": cyclotomic,
            "finitefield.make_ext_field": make_ext_field,
            "torus.embedding": embedding,
        }

    def install(self) -> None:
        originals = {
            name: getattr(importlib.import_module(mod), attr)
            for name, (mod, attr) in FUNCTIONS.items()
        }
        hooks = self._after_hooks(originals)
        loaded = [m for k, m in sys.modules.items() if k == "cyclokit" or k.startswith("cyclokit.")]
        for name, fn in originals.items():
            wrapper = self._wrap(name, fn, hooks.get(name))
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
        for name, (mod, cls_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(mod), cls_name)
            for meth in methods:
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))

    def counters(self) -> dict:
        """Flat name -> value view: <name>.calls, <name>.self_s and the extras."""
        out = dict(self.extra)
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        return out


def _candidates_tested(field) -> int:
    # make_ext_field scans k = q^(n-1) .. q^n - 1, whose base-q digits read
    # from the top are (c_0, ..., c_{n-1}); the returned modulus names k.
    q, n = field.q, field.n
    if n == 1:
        return 0
    k = 0
    for c in field.modulus.coeffs[:-1]:
        k = k * q + c
    return k - q ** (n - 1) + 1


def add_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def exact_counts(counters: dict) -> dict:
    return {k: counters.get(k, 0) for k in EXACT_COUNTS}


def pass_recorder(read):
    """(per_pass, after_pass): after_pass() appends the exact counts made since its last call.

    ``read()`` returns the current counters.
    """
    per_pass, last = [], [exact_counts(read())]

    def after_pass():
        now = exact_counts(read())
        per_pass.append({k: now[k] - last[0][k] for k in now})
        last[0] = now

    return per_pass, after_pass
