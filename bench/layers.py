"""Per-layer tracing of cellspaces from outside the program.

Two passes, both installed by replacing attributes of the imported package
and undone afterwards:

* the span pass wraps the public functions of each layer. Every call
  records (op id, parent span, name, start, end) in memory; a span's self
  time is its duration minus the time its child spans cover. A few results
  are also counted here (graph sizes, matched pairs, interior size), since
  reading them costs nothing per inner call.
* the counting pass counts the hot inner calls (group-element algebra, the
  semi-action, exact fibers and the window set properties). It runs
  separately so that its per-call cost does not inflate the span times.

Counts repeat exactly between runs when ``PYTHONHASHSEED`` is fixed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# span name -> (module, class or None, attribute). One span name may wrap
# several definitions of the same layer function.
SPANS = (
    ("groups.ball", "cellspaces.groups", "Group", "ball"),
    ("spaces.preimage", "cellspaces.spaces", "CellSpace", "preimage"),
    ("spaces.ball_window", "cellspaces.spaces", "GroupAsSpace", "ball_window"),
    ("spaces.ball_window", "cellspaces.spaces", "SemidirectCellSpace", "ball_window"),
    ("paradox.build_graph", "cellspaces.paradox", None, "build_graph"),
    ("matching.solve_harem", "cellspaces.matching", None, "solve_harem"),
    ("paradox.two_to_one_from_matching", "cellspaces.paradox", None, "two_to_one_from_matching"),
    ("paradox.decomposition_from_map", "cellspaces.paradox", None, "decomposition_from_map"),
    ("paradox.verify_decomposition", "cellspaces.paradox", None, "verify_decomposition"),
    ("paradox.certified_interior", "cellspaces.paradox", None, "certified_interior"),
    ("paradox.decomposition_to_json", "cellspaces.paradox", None, "decomposition_to_json"),
    ("folner.ratios", "cellspaces.folner", None, "ratios"),
    ("folner.folner_search", "cellspaces.folner", None, "folner_search"),
    ("folner.check_doubling", "cellspaces.folner", None, "check_doubling"),
    ("measures.uniform", "cellspaces.measures", "FAMeasure", "uniform"),
    ("measures.funcamact", "cellspaces.measures", None, "funcamact"),
    ("measures.tarski_contradiction", "cellspaces.paradox", None, "tarski_contradiction"),
    ("cli.main", "cellspaces.cli", None, "main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))

COUNTED = (
    ("groups.mul.calls", "cellspaces.groups", "GroupElement", "__mul__"),
    ("groups.inverse.calls", "cellspaces.groups", "GroupElement", "inverse"),
    ("groups.eq.calls", "cellspaces.groups", "GroupElement", "__eq__"),
    ("groups.hash.calls", "cellspaces.groups", "GroupElement", "__hash__"),
    ("spaces.semi_action.calls", "cellspaces.spaces", "CellSpace", "semi_action"),
    ("spaces.exact_preimage_point.calls", "cellspaces.spaces", "CellSpace", "exact_preimage_point"),
    ("spaces.exact_preimage_point.calls", "cellspaces.spaces", "GroupAsSpace", "exact_preimage_point"),
    ("spaces.exact_preimage_point.calls", "cellspaces.spaces", "SemidirectCellSpace",
     "exact_preimage_point"),
    ("spaces.window_set.builds", "cellspaces.spaces", "Window", "core_set"),
    ("spaces.window_set.builds", "cellspaces.spaces", "Window", "halo_set"),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def wrap(self, module: str, cls: str | None, attr: str, make) -> None:
        """Replace a class attribute (function, classmethod or property), or
        a module function under every name the package's modules bind it to."""
        if cls is not None:
            owner = getattr(sys.modules[module], cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self.set(owner, attr, classmethod(make(raw.__func__)))
            elif isinstance(raw, property):
                self.set(owner, attr, property(make(raw.fget)))
            else:
                self.set(owner, attr, make(raw))
            return
        fn = getattr(sys.modules[module], attr)
        wrapped = make(fn)
        for name, mod in list(sys.modules.items()):
            if name == "cellspaces" or name.startswith("cellspaces."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self.set(mod, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class SpanPass:
    """Spans around each layer's public functions, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # [op, parent index, name, start, end]
        self.counts: dict = defaultdict(Counter)  # op -> result counts
        self.op = None
        self._stack: list = []
        self._patches = Patches()

    def install(self) -> None:
        for name, module, cls, attr in SPANS:
            self._patches.wrap(module, cls, attr, lambda fn, name=name: self._span(name, fn))

    def restore(self) -> None:
        self._patches.restore()

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [self.op, stack[-1] if stack else None, name, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counts[self.op]
        c[name + ".calls"] += 1
        if name == "paradox.build_graph":
            c["paradox.graph.right"] += len(result.right)
            c["paradox.graph.edges"] += sum(len(row) for row in result.adj)
        elif name == "matching.solve_harem":
            if hasattr(result, "pairs"):
                c["matching.pairs"] += len(result.pairs)
            else:
                c["matching.witness_size"] += len(result.vertices)
        elif name == "paradox.certified_interior":
            scope = args[2] if len(args) > 2 else kwargs["scope"]
            c["interior"] += len(result)
            c["interior.core"] += len(scope.core)
        elif name == "folner.ratios":
            c["ratios.certified"] += int(result.certified)

    def times(self) -> tuple[dict, dict]:
        """(self, inclusive) seconds: op -> span name -> seconds summed over
        the op's spans of that name. Inclusive time counts a span nested in
        one of the same name once."""
        child = [0.0] * len(self.spans)
        for op, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: dict = defaultdict(Counter)
        total: dict = defaultdict(Counter)
        for i, (op, parent, name, start, end) in enumerate(self.spans):
            own[op][name] += end - start - child[i]
            if not self._inside(parent, name):
                total[op][name] += end - start
        return own, total

    def _inside(self, index, name: str) -> bool:
        while index is not None:
            if self.spans[index][2] == name:
                return True
            index = self.spans[index][1]
        return False

    def records(self) -> list:
        return [
            {"op": op, "parent": parent, "name": name, "start": start, "end": end}
            for op, parent, name, start, end in self.spans
        ]


class CountPass:
    """Call counters on the hot inner functions, and nothing else."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._patches = Patches()

    def install(self) -> None:
        for metric, module, cls, attr in COUNTED:
            self._patches.wrap(module, cls, attr, lambda fn, metric=metric: self._count(metric, fn))

    def restore(self) -> None:
        self._patches.restore()

    def _count(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper
