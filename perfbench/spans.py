"""Span recorder that wraps public symcorr functions from outside the package.

Each target is wrapped under every name it is bound to in the loaded symcorr
modules, because the modules import one another's functions by name
(`genuine` calls `partial_trace` through its own module globals, not through
`symcorr.qstate`).  `DensityMatrix` construction is wrapped through its
`__post_init__`, which every construction runs whatever name it is called by.
Spans stay in memory until `write_jsonl`; nothing under `src/` changes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every wrapped public function; the span name is
# "<module>.<attribute>".
TARGETS = (
    ("qstate", "is_invariant_under"),
    ("qstate", "von_neumann_entropy"),
    ("qstate", "conditional_state"),
    ("qstate", "partial_trace"),
    ("states", "thermo_state"),
    ("states", "ghz_ad_closed"),
    ("states", "ghz_pd_closed"),
    ("states", "symmetric_basis"),
    ("channels", "apply_local_channel"),
    ("genuine", "genuine_correlations"),
    ("genuine", "koashi_winter_discord"),
    ("global_discord", "global_discord"),
    ("optim", "grid_golden_min"),
    ("optim", "golden_section_min"),
    ("nonlocality", "max_violation"),
    ("nonlocality", "svetlichny_value"),
    ("oracle", "oracle_bipartite_discord"),
    ("oracle", "oracle_global_discord_full"),
    ("cli", "run_sweep"),
)
_OPTIM = ("optim.grid_golden_min", "optim.golden_section_min")


class Tracer:
    """Records (id, parent, item, name, start, end) spans for one run.

    `item` is the index of the benchmark item being run, shared by all its
    spans; `enabled` is cleared while the benchmark checks an output.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = -1
        self.enabled = True
        self._stack = []
        self._undo = []

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.item, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _exit(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self):
        return self.spans[self._stack[-1]][3] if self._stack else None

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name in _OPTIM and tracer._parent_name() not in _OPTIM:
                # count objective evaluations once per solve, at the outermost minimizer
                inner = args[0]

                def counted(x):
                    tracer.counts["optim.objective_evals"] += 1
                    return inner(x)

                args = (counted,) + args[1:]
                tracer.counts["optim.solves"] += 1
            sid = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if name == "qstate.conditional_state" and result[1] is None:
                tracer.counts["qstate.conditional_state.null"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "symcorr" or key.startswith("symcorr.")]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[f"symcorr.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

        oracle = sys.modules["symcorr.oracle"]
        minimize = oracle.minimize

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            if self.enabled:
                self.counts["oracle.powell_nfev"] += int(result.nfev)
            return result

        oracle.minimize = counted_minimize
        self._undo.append((oracle, "minimize", minimize))

        dm = sys.modules["symcorr.qstate"].DensityMatrix
        post_init = dm.__post_init__
        traced = self._wrap("qstate.DensityMatrix", post_init)

        def post_init_counted(obj):
            if self.enabled:
                self.counts["qstate.DensityMatrix.bytes_computed"] += 16 * 4**obj.n_qubits
            traced(obj)

        dm.__post_init__ = post_init_counted
        self._undo.append((dm, "__post_init__", post_init))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, item, name, start, end in self.spans:
                rec = {"id": sid, "parent": parent, "item": item, "name": name,
                       "start": start, "end": end}
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self):
        """calls, busy_s and self_s per span name, plus the derived counters."""
        calls = Counter()
        busy = defaultdict(float)
        child_time = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            calls[name] += 1
            dur = end - start
            if not self._has_ancestor(parent, name):
                busy[name] += dur
            if parent >= 0:
                child_time[parent] += dur
        self_s = defaultdict(float)
        refine = 0.0
        closed_form = 0
        children = defaultdict(set)
        for sid, parent, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child_time[sid]
            if parent >= 0:
                children[parent].add(name)
            if name == "optim.golden_section_min" and self._has_ancestor(parent, "global_discord.global_discord"):
                refine += end - start
        for sid, _, _, name, _, _ in self.spans:
            if name == "nonlocality.max_violation" and "optim.grid_golden_min" not in children[sid]:
                closed_form += 1
        return calls, busy, self_s, refine, closed_form

    def _has_ancestor(self, sid, name):
        while sid >= 0:
            if self.spans[sid][3] == name:
                return True
            sid = self.spans[sid][1]
        return False
