"""In-memory span tracer that wraps the library's public functions from
outside the library.

A function is traced by rebinding every name that refers to it: the
attribute of the module that defines it and every `sparsebump.*` module
that imported it by name (`search` imports `testing_constant`, so
`sparsebump.search.testing_constant` is rebound too).  Methods are
rebound on their class.  `uninstall` restores the originals, so the
untraced phase runs the library exactly as shipped.

A span is (name, start_ns, end_ns, parent span, operation id).  Spans
live in flat integer arrays while the run lasts and are written out by
`write_csv` when it ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# layer -> (module, attribute path) of every traced function
LAYERS = {
    "cli": [("cli", "main")],
    "search": [("search", "anneal"), ("search", "evaluate")],
    "dyadic": [("dyadic", "instance_from_dict"), ("dyadic", "WeightPair.__init__"),
               ("dyadic", "generate_sparse"), ("dyadic", "stopping_time_family"),
               ("dyadic", "packing_constant")],
    "testing": [("testing", "testing_constant"), ("testing", "local_sum"),
                ("testing", "operator_norm_p2"), ("testing", "prop32_check"),
                ("testing", "prop33_check"), ("testing", "sawyer_sum_bound"),
                ("testing", "cov_sides"), ("testing", "eset_split_check"),
                # called straight from cli.main; untraced they would count
                # as CLI self time
                ("testing", "realized_levels"), ("testing", "prop31_bound"),
                ("testing", "theorem_main_ratio")],
    "bumps": [("bumps", "ensure_admissible"), ("bumps", "ConjugateTable.__init__"),
              ("bumps", "BumpSpec.psi"), ("bumps", "ap_constant"),
              ("bumps", "nu_constant"), ("bumps", "maximal_bound_constant"),
              ("bumps", "entropy_constant"), ("bumps", "entropy_lambda"),
              ("bumps", "orlicz_li_constant"), ("bumps", "orlicz_lacey_constant"),
              ("bumps", "luxemburg_norms_level")],
}

TRACED = [f"{module}.{attr}" for targets in LAYERS.values() for module, attr in targets]
LAYER_OF = {f"{module}.{attr}": layer
            for layer, targets in LAYERS.items() for module, attr in targets}

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = 0
        self._stack = []
        self._restore = []  # (owner, attribute, original) to undo install

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name_id: int):
        name, start, end, parent, op, stack = (self.name, self.start, self.end,
                                               self.parent, self.op, self._stack)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else NO_PARENT)
            op.append(tracer.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
        return traced

    def install(self):
        """Rebind every traced function in every sparsebump module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sparsebump" or key.startswith("sparsebump."))]
        for name_id, qualname in enumerate(TRACED):
            module_name, _, attr_path = qualname.partition(".")
            home = sys.modules[f"sparsebump.{module_name}"]
            if "." in attr_path:  # a method: rebind on its class only
                cls_name, meth = attr_path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(original, name_id))
                continue
            original = getattr(home, attr_path)
            wrapper = self._wrap(original, name_id)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- results ---------------------------------------------------------

    def summary(self, ops):
        """Per traced function: (calls, self_ns) summed over the spans whose
        operation id is in `ops`.  Self time is a span's duration minus the
        durations of its direct children, which nest inside it."""
        import numpy as np
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=np.int64, count=n)
               - np.frombuffer(self.start, dtype=np.int64, count=n))
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        op = np.frombuffer(self.op, dtype=np.int64, count=n)
        has_parent = parent != NO_PARENT
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child_ns
        keep = np.isin(op, list(ops))
        calls = np.bincount(name[keep], minlength=len(TRACED))
        self_total = np.bincount(name[keep], weights=self_ns[keep], minlength=len(TRACED))
        return {qualname: (int(calls[i]), float(self_total[i]))
                for i, qualname in enumerate(TRACED)}

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,op,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.op[i]},{self.parent[i]},{TRACED[self.name[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")
