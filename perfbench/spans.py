"""In-memory tracer for the traced run.

The tracer replaces library functions where the calling modules bind them
(``cli.locate``, ``verify.col_seq``, ...), so the library itself is not
edited. Coarse calls (one per command, check, sweep or sequence) get a span
each; hot leaf calls (``locate``, ``entry``, ``syr`` and friends) only add
to a call count and a total time. A layer's self time is the time inside
its calls minus the part covered by the calls it makes into other wrapped
functions.
"""

import itertools
import time
from collections import defaultdict

# (module, attribute, layer, span name); a callable name is given the
# call's positional arguments. Sweep workers are forked processes, so the
# sweep is one span in the parent and its self time includes the workers.
COARSE = [
    ("cli", "main", "cli", lambda argv, *_: "cli." + argv[0]),
    ("cli", "col_seq", "sequences", "sequences.col_seq"),
    ("cli", "syr_seq_model", "sequences", "sequences.syr_seq_model"),
    ("cli", "build_tree", "tree", "tree.build_tree"),
    ("cli", "export", "tree", "tree.export"),
    ("sequences", "syr_seq_model", "sequences", "sequences.syr_seq_model"),
    ("sequences", "syr_seq_oracle", "sequences", "sequences.syr_seq_oracle"),
    ("sequences", "to_json", "sequences", "sequences.to_json"),
    ("sequences", "to_csv", "sequences", "sequences.to_csv"),
    ("tree", "path_to_root", "tree", "tree.path_to_root"),
    ("verify", "run_check", "verify", lambda check_id, *_: "verify." + check_id),
    ("verify", "sweep_convergence", "verify", "verify.sweep"),
    ("verify", "table_b_cells", "verify", "verify.table_b_cells"),
    ("verify", "col_seq", "sequences", "sequences.col_seq"),
]

LEAVES = [
    ("cli", "locate", "matrices", "matrices.locate"),
    ("cli", "residue6", "matrices", "matrices.residue6"),
    ("sequences", "locate", "matrices", "matrices.locate"),
    ("sequences", "_syr", "arith", "arith.syr"),
    ("tree", "entry", "matrices", "matrices.entry"),
    ("tree", "locate", "matrices", "matrices.locate"),
    ("verify", "entry", "matrices", "matrices.entry"),
    ("verify", "locate", "matrices", "matrices.locate"),
    ("verify", "child_column", "matrices", "matrices.child_column"),
    ("verify", "syr", "arith", "arith.syr"),
    ("verify", "syr_class", "arith", "arith.syr_class"),
    ("verify", "v2", "arith", "arith.v2"),
]

# generator functions: the time of each next() is the leaf's time
LEAF_ITERATORS = [
    ("verify", "iter_connections", "matrices", "matrices.iter_connections"),
]


class Tracer:
    """Spans, leaf counters and per-layer self time, all kept in memory."""

    def __init__(self):
        # one frame per open span: [span id, layer, ns covered by child calls]
        self.stack = [[None, "bench", 0]]
        self.spans = []  # (id, parent id, trace id, name, start ns, end ns)
        self.span_ns = defaultdict(int)  # span name -> total ns
        self.self_ns = defaultdict(int)  # layer -> self ns of its spans
        self.leaves = {}  # leaf name -> [calls, ns]
        self.leaf_layer = {}
        self.terms = 0  # terms of sequences handed out of the sequences layer
        self.trace_id = None
        self._ids = itertools.count(1)
        self._saved = []

    def reset(self):
        """Drop what was recorded so far; installed wrappers stay."""
        self.spans.clear()
        self.span_ns.clear()
        self.self_ns.clear()
        for stat in self.leaves.values():
            stat[0] = stat[1] = 0
        self.terms = 0

    def layer_self_ns(self):
        """Self ns per layer, leaf time included (leaves call nothing wrapped)."""
        out = defaultdict(int, self.self_ns)
        for name, (_calls, ns) in self.leaves.items():
            out[self.leaf_layer[name]] += ns
        return out

    def install(self, mods):
        """Wrap every binding listed above on the module namespace ``mods``."""
        made = {}
        for table, make in ((COARSE, self._span), (LEAVES, self._leaf),
                            (LEAF_ITERATORS, self._leaf_iter)):
            for modname, attr, layer, name in table:
                module = getattr(mods, modname)
                fn = getattr(module, attr)
                if id(fn) not in made:
                    made[id(fn)] = make(fn, layer, name)
                self._saved.append((module, attr, fn))
                setattr(module, attr, made[id(fn)])

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _span(self, fn, layer, name):
        clock = time.perf_counter_ns
        stack = self.stack
        count_terms = layer == "sequences"

        def wrapper(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            parent = stack[-1]
            frame = [next(self._ids), layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                self.self_ns[layer] += dur - frame[2]
                self.span_ns[span_name] += dur
                self.spans.append((frame[0], parent[0], self.trace_id, span_name, t0, t1))
            if count_terms and parent[1] != "sequences" and hasattr(result, "terms"):
                self.terms += len(result.terms)
            return result

        return wrapper

    def _leaf(self, fn, layer, name):
        stat = self.leaves.setdefault(name, [0, 0])
        self.leaf_layer[name] = layer
        clock = time.perf_counter_ns
        stack = self.stack

        def wrapper(*args, **kwargs):
            # no try/finally: it would double the cost of the hottest calls,
            # and a leaf that raises ends its operation anyway
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            stack[-1][2] += dt
            return result

        return wrapper

    def _leaf_iter(self, fn, layer, name):
        stat = self.leaves.setdefault(name, [0, 0])
        self.leaf_layer[name] = layer
        clock = time.perf_counter_ns
        stack = self.stack

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stat[1] += dt
                    stack[-1][2] += dt
                yield item

        return wrapper
