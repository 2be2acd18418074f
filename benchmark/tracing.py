"""Per-layer spans for the traced benchmark run.

Timing wrappers are installed only by the traced run, from this file, on
the module attributes that sdckit (and scipy) look up at call time.  The
program itself carries no tracing code; the untraced run never calls
`Tracer.install`.  Spans are kept in memory and written when the run
ends.  A span records its name, start, end, the index of its parent span
and the operation it belongs to, so layer self time is a span minus its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name).  A function imported by name into a
# consumer module is wrapped in that consumer, since that is where the
# call looks it up; sdc_check carries its caller so the asdc retries
# can be counted apart.  scipy.linalg.schur is reached through
# _pencil.invariant_subspace, the sorted-Schur step of the SDC oracle
# and of the Jordan-chain code.
HOOKS = (
    ("scipy.optimize", "linprog", "lp"),
    ("scipy.linalg", "schur", "schur"),
    ("sdckit.qcqp", "generate_instance", "qcqp.generate"),
    ("sdckit.qcqp", "_polytope_box", "qcqp.box"),
    ("sdckit.qcqp", "verify_reformulation", "qcqp.verify"),
    ("sdckit.qcqp", "reformulate", "qcqp.reformulate"),
    ("sdckit.qcqp", "rsdc1_construct", "rsdc.rsdc1"),
    ("sdckit.qcqp", "rsdc2_construct", "rsdc.rsdc2"),
    ("sdckit.qcqp", "sdc_check", "sdc.sdc_check/qcqp"),
    ("sdckit.rsdc", "rsdc1_construct", "rsdc.rsdc1"),
    ("sdckit.rsdc", "rsdc2_construct", "rsdc.rsdc2"),
    ("sdckit.rsdc", "solve_border_system", "rsdc.border_solve"),
    ("sdckit.rsdc", "solve_border_system2", "rsdc.border_solve"),
    ("sdckit.rsdc", "pencil_canonical", "canonical.pencil_canonical"),
    ("sdckit.rsdc", "sdc_check", "sdc.sdc_check/rsdc"),
    ("sdckit.sdc", "simdiag_commuting", "sdc.simdiag"),
    ("sdckit.asdc", "asdc_pair_check", "asdc.pair_check"),
    ("sdckit.asdc", "perturb_pair", "asdc.perturb_pair"),
    ("sdckit.asdc", "perturb_blocks", "asdc.perturb_blocks"),
    ("sdckit.asdc", "pencil_canonical", "canonical.pencil_canonical"),
    ("sdckit.asdc", "canonicalize_real_pencil", "chains.canonicalize"),
    ("sdckit.asdc", "sdc_check", "sdc.sdc_check/asdc"),
    ("sdckit.triples", "perturb_triple_blocks", "triples.perturb_triple"),
    ("sdckit.triples", "canonicalize_real_pencil", "chains.canonicalize"),
    ("sdckit.triples", "canonicalize_nilpotent_pair", "chains.canonicalize"),
    ("sdckit.triples", "sdc_check", "sdc.sdc_check/triples"),
    ("sdckit.obstruct", "not_asdc_certificate", "obstruct.certificate"),
    ("sdckit.obstruct", "commutator_obstruction", "obstruct.certificate"),
)

# reformulate's span name carries the method, its second argument
_SPLIT_BY_ARG = {"qcqp.reformulate": 1}

# (metric, unit, kind, span names).  "calls" is calls per operation over
# whole rounds, so it repeats exactly between runs of one seed; "ms" is
# the time inside the outermost spans of those names and "self_ms" the
# time inside them minus their direct children, each the median over the
# operations that reach the layer (0 when none does).  A name ending in
# "/" matches every span that starts with it.
LAYER_METRICS = (
    ("qcqp.lp_calls", "calls/op", "calls", ("lp",)),
    ("qcqp.lp_ms", "ms", "ms", ("lp",)),
    ("qcqp.generate_ms", "ms", "ms", ("qcqp.generate",)),
    ("qcqp.box_ms", "ms", "ms", ("qcqp.box",)),
    ("qcqp.verify_self_ms", "ms", "self_ms", ("qcqp.verify",)),
    ("qcqp.reformulate_ms.rsdc1", "ms", "ms", ("qcqp.reformulate.rsdc1",)),
    ("qcqp.reformulate_ms.rsdc2", "ms", "ms", ("qcqp.reformulate.rsdc2",)),
    ("qcqp.reformulate_ms.eig", "ms", "ms", ("qcqp.reformulate.eig",)),
    ("rsdc.rsdc1_ms", "ms", "ms", ("rsdc.rsdc1",)),
    ("rsdc.rsdc2_ms", "ms", "ms", ("rsdc.rsdc2",)),
    ("rsdc.self_ms", "ms", "self_ms", ("rsdc.rsdc1", "rsdc.rsdc2")),
    ("rsdc.border_solve_ms", "ms", "ms", ("rsdc.border_solve",)),
    ("canonical.pencil_canonical_ms", "ms", "ms", ("canonical.pencil_canonical",)),
    ("sdc.sdc_check_calls", "calls/op", "calls", ("sdc.sdc_check/",)),
    ("sdc.sdc_check_ms", "ms", "ms", ("sdc.sdc_check/",)),
    ("sdc.simdiag_ms", "ms", "ms", ("sdc.simdiag",)),
    ("sdc.schur_calls", "calls/op", "calls", ("schur",)),
    ("sdc.schur_ms", "ms", "ms", ("schur",)),
    ("asdc.pair_check_ms", "ms", "ms", ("asdc.pair_check",)),
    ("asdc.perturb_pair_ms", "ms", "ms", ("asdc.perturb_pair",)),
    ("asdc.perturb_blocks_ms", "ms", "ms", ("asdc.perturb_blocks",)),
    ("asdc.sdc_check_calls", "calls/op", "calls", ("sdc.sdc_check/asdc",)),
    ("chains.canonicalize_ms", "ms", "ms", ("chains.canonicalize",)),
    ("triples.perturb_triple_ms", "ms", "ms", ("triples.perturb_triple",)),
    ("obstruct.certificate_ms", "ms", "ms", ("obstruct.certificate",)),
)

NAME, START, END, PARENT, OP = range(5)


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith("/") else name == p for p in patterns)


class Tracer:
    """In-memory span recorder with installable timing wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = -1

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        arg = _SPLIT_BY_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if arg is None else f"{name}.{args[arg]}"
            idx = self._enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def install(self) -> None:
        for module, attr, name in HOOKS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def operation(self, index: int, fn, *args):
        """Run one operation under a root span tagged with its index."""
        self.op = index
        idx = self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit(idx)
            self.op = -1

    def layer_metrics(self, scale: dict) -> dict:
        """Every per-layer metric over the traced operations.

        `scale` maps each traced operation's index to the factor that
        brings its times to reference speed (see speed.py).
        """
        ops = list(scale)
        per_op = {i: [] for i in ops}
        for idx, span in enumerate(self.spans):
            if span[OP] in per_op and span[NAME] != "op":
                per_op[span[OP]].append(idx)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]

        out = {}
        for metric, unit, kind, patterns in LAYER_METRICS:
            values = []
            calls = 0
            for op, idxs in per_op.items():
                hits = [i for i in idxs if _matches(self.spans[i][NAME], patterns)]
                calls += len(hits)
                if kind == "ms":
                    # outermost only: a nested span of the same layer is
                    # already inside its ancestor's time
                    hits = [i for i in hits if not self._inside(i, patterns)]
                total = 0.0
                for i in hits:
                    span = self.spans[i]
                    total += span[END] - span[START]
                    if kind == "self_ms":
                        total -= child_time[i]
                if hits:
                    values.append(1000.0 * total * scale[op])
            if kind == "calls":
                value = calls / len(ops)
            else:
                value = statistics.median(values) if values else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def _inside(self, idx: int, patterns) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if _matches(self.spans[parent][NAME], patterns):
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path) -> None:
        """Spans as JSON rows [name, start_s, end_s, parent, op]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
