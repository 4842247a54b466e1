"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of relalg's modules with
timing wrappers while the traced pass runs, and puts the originals back
afterwards; nothing under ``src/`` changes.  Each wrapped call is a span with
a name, a start, an end and a parent.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum over
its spans.  Coarse spans (requests, commands, checks, file formats) are kept
in memory as records and written out at the end; the hot inner calls (linear
combinations, trees, grafting, operation dispatch) are only aggregated, since
a run makes millions of them.
"""

import fractions
from time import perf_counter

# Fraction methods counted by ``lincomb.fraction_ops``: arithmetic and
# comparisons, wherever in the program they happen.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__eq__", "__lt__",
    "__le__", "__gt__", "__ge__",
)


def _targets(m):
    """(owner, attribute, span name, kept as a record, counts nested calls).
    A span that does not count nested calls passes a call straight through
    when its direct parent span has the same name (recursion, or one loader
    calling another)."""
    lc, tr, fd, fc, ax, op, sg = (m["lincomb"], m["trees"], m["freedend"], m["freecheck"],
                                  m["axioms"], m["ops"], m["semigroups"])
    cons, js, rp, ex, cli = m["constructions"], m["jsonio"], m["reports"], m["exprs"], m["cli"]
    return [
        (cli, "main", "cli.main", True, True),
        (lc.LinComb, "__init__", "lincomb.build", False, True),
        *[(lc.LinComb, a, "lincomb.op", False, True)
          for a in ("__add__", "__sub__", "__neg__", "scale", "__eq__", "coeff", "render", "to_pairs")],
        *[(lc, a, "lincomb.fn", False, True)
          for a in ("lc_bilinear_extend", "lc_add", "lc_scale", "parse_scalar", "format_scalar")],
        (tr.DecoratedTree, "__init__", "trees.node", False, True),
        *[(tr.DecoratedTree, a, "trees.compare", False, True) for a in ("__eq__", "__lt__", "__le__")],
        (tr, "tree_print", "trees.print", False, False),
        (tr, "tree_parse", "trees.parse", False, False),
        (tr, "random_tree_from", "trees.random", False, False),
        (fd.FreeDendCarrier, "_basis_prec", "freedend.basis", False, True),
        (fd.FreeDendCarrier, "_basis_succ", "freedend.basis", False, True),
        (fd.FreeDendCarrier, "prec", "freedend.op", False, True),
        (fd.FreeDendCarrier, "succ", "freedend.op", False, True),
        *[(fd.FreeDendCarrier, a, "freedend.fn", False, True)
          for a in ("__init__", "index_of", "check_tree", "parse", "dimonoid_ops", "family_ops",
                    "matching_ops", "random_tree")],
        (fc, "free_check", "freecheck.free_check", True, False),
        (fc, "free_suite_carrier", "freecheck.fn", False, True),
        (fc, "free_pair_ops", "freecheck.fn", False, True),
        (ax, "check_axioms", "axioms.check_axioms", True, True),
        (ax, "check_rota_baxter", "axioms.check_rota_baxter", True, True),
        (ax, "check_morphism", "axioms.check_morphism", True, True),
        (ax, "eval_expr", "axioms.eval_expr", False, False),
        (ax, "eval_index", "axioms.eval_index", False, False),
        (ax, "finite_domain", "axioms.fn", False, True),
        (ax, "window_domain", "axioms.fn", False, True),
        (op.FiniteRelativeAlgebra, "apply", "ops.apply", False, True),
        (op, "apply_matrix", "ops.apply_matrix", False, True),
        (op.PairIndexedOp, "__call__", "ops.dispatch", False, True),
        (op.FamilyIndexedOp, "__call__", "ops.dispatch", False, True),
        (op.RotaBaxterFamily, "apply", "ops.fn", False, True),
        (op.MorphismFamily, "apply", "ops.fn", False, True),
        (op.FiniteRelativeAlgebra, "__init__", "ops.fn", False, True),
        (op.FiniteRelativeAlgebra, "op", "ops.fn", False, True),
        (op.FiniteRelativeAlgebra, "as_carrier", "ops.fn", False, True),
        (op.OpCarrier, "op", "ops.fn", False, True),
        (op, "materialize_pair_op", "ops.fn", True, True),
        *[(cls, a, "semigroups.prod", False, True)
          for cls, names in ((sg.SemigroupTable, ("mul", "prod")),
                             (sg.DimonoidTable, ("left_mul", "right_mul", "prod")),
                             (sg.VirtualSemigroup, ("mul", "prod")))
          for a in names],
        *[(sg, a, "semigroups.check", True, False)
          for a in ("check_semigroup", "check_dimonoid", "check_cocycle")],
        *[(sg, a, "semigroups.fn", False, True)
          for a in ("dimonoid_from_semigroup", "semigroup_from_dimonoid", "cyclic_monoid",
                    "matching_dimonoid", "trivial_monoid", "positive_integers_additive")],
        *[(cons, a, "constructions.fn", False, True)
          for a in ("family_to_pair", "assoc_from_dend", "prelie_from_dend",
                    "check_pair_symmetric", "check_family_symmetric",
                    "zinbiel_from_symmetric_dend", "dend_from_zinbiel", "comm_from_zinbiel",
                    "lie_from_prelie", "poisson_from_prepoisson", "cocycle_twist",
                    "dend_from_rb", "collapse")],
        *[(js, a, "jsonio.load", True, False)
          for a in ("load_file", "load_semigroup", "load_dimonoid", "load_cocycle",
                    "load_algebra", "load_rota_baxter", "load_morphism")],
        *[(js, a, "jsonio.dump", True, False)
          for a in ("dump_semigroup", "dump_dimonoid", "dump_cocycle", "dump_algebra")],
        (rp, "to_json", "reports.to_json", True, True),
        (ex, "eval_expression", "exprs.eval", True, False),
        (ex, "apply_op", "exprs.fn", False, True),
    ]


def _replace(modules, original, replacement, undo=None):
    """Point every module-level name bound to ``original`` at
    ``replacement``, including names other modules imported."""
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                if undo is not None:
                    undo.append((module, key, original))


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child time, record id]
        self.stats = {}  # span name -> [calls, total s, self s]
        self.records = []  # kept spans: [id, name, start, end, parent id, request]
        self.request = None
        self.fraction_ops = 0
        self.max_terms = 0
        self.cache_entries = 0
        self.instances = 0
        self.out_bytes = 0
        self.scan_s = 0.0
        self._scan_depth = 0
        self._undo = []
        self._hook = {
            "lincomb.build": self._count_terms,
            "axioms.check_axioms": self._count_instances,
            "axioms.check_rota_baxter": self._count_instances,
            "axioms.check_morphism": self._count_instances,
            "reports.to_json": self._count_bytes,
        }

    # -- spans

    def enter(self, name, keep):
        rid = None
        if keep:
            rid = len(self.records)
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.records.append([rid, name, 0.0, 0.0, parent, self.request])
        frame = [name, perf_counter(), 0.0, rid]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        name, start, child, rid = frame
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if rid is not None:
            self.records[rid][2:4] = (start, end)
        return duration

    def _wrap(self, fn, name, keep, nested):
        tracer = self
        hook = self._hook.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not nested and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.exit(frame)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters measured at the same boundaries as the spans

    def _count_terms(self, args, result):
        self.max_terms = max(self.max_terms, len(args[0]))

    def _count_instances(self, args, result):
        self.instances += result.instances

    def _count_bytes(self, args, result):
        self.out_bytes += len(result.encode())

    # -- install / uninstall

    def install(self, modules):
        """Wrap the layer boundaries of the given relalg modules (a dict from
        short module name to module).  The wrappers added on top of these
        in ``_install_counts`` go away with them in ``uninstall``."""
        for owner, attr, name, keep, nested in _targets(modules):
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, keep, nested)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                _replace(modules, original, wrapper, self._undo)
        self._install_counts(modules)

    def _install_counts(self, modules):
        tracer = self
        for attr in FRACTION_OPS:
            original = fractions.Fraction.__dict__[attr]

            def counted(*args, _fn=original):
                tracer.fraction_ops += 1
                return _fn(*args)

            setattr(fractions.Fraction, attr, counted)
            self._undo.append((fractions.Fraction, attr, original))

        # cache growth of the grafting recursion, read around each product
        carrier_cls = modules["freedend"].FreeDendCarrier
        for attr in ("prec", "succ"):
            traced = carrier_cls.__dict__[attr]

            def counted_op(carrier, *args, _fn=traced):
                before = len(getattr(carrier, "_cache", ()))
                try:
                    return _fn(carrier, *args)
                finally:
                    tracer.cache_entries += len(getattr(carrier, "_cache", ())) - before

            setattr(carrier_cls, attr, counted_op)

        # the sampled-tree stream is a generator: time each step it takes
        domain_cls = modules["freedend"].SampledTreeDomain
        original_elements = domain_cls.__dict__["elements"]

        def elements(domain, k):
            stream = original_elements(domain, k)
            while True:
                frame = tracer.enter("freecheck.sample", False)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                yield item

        domain_cls.elements = elements
        self._undo.append((domain_cls, "elements", original_elements))

        # outermost scans only, so a precondition inside a check is not
        # counted twice
        axioms = modules["axioms"]
        for attr in ("check_axioms", "check_rota_baxter", "check_morphism"):
            traced = vars(axioms)[attr]

            def scan(*args, _fn=traced, **kwargs):
                tracer._scan_depth += 1
                start = perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    tracer._scan_depth -= 1
                    if tracer._scan_depth == 0:
                        tracer.scan_s += perf_counter() - start

            _replace(modules, traced, scan)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results

    def layer(self, prefix, column):
        return sum(st[column] for name, st in self.stats.items() if name.startswith(prefix + "."))

    def stat(self, name, column):
        return self.stats.get(name, (0, 0.0, 0.0))[column]

    def metrics(self, wall_s, overhead_ratio):
        calls, total, self_s = 0, 1, 2
        basis_calls = self.stat("freedend.basis", calls)
        axioms_self = self.layer("axioms", self_s)
        return {
            "lincomb.builds": (self.stat("lincomb.build", calls), "count"),
            "lincomb.self_s": (self.layer("lincomb", self_s), "s"),
            "lincomb.max_terms": (self.max_terms, "count"),
            "lincomb.fraction_ops": (self.fraction_ops, "count"),
            "trees.nodes_built": (self.stat("trees.node", calls), "count"),
            "trees.self_s": (self.layer("trees", self_s), "s"),
            "trees.print_calls": (self.stat("trees.print", calls), "count"),
            "trees.print_s": (self.stat("trees.print", total), "s"),
            "freedend.op_calls": (self.stat("freedend.op", calls), "count"),
            "freedend.basis_calls": (basis_calls, "count"),
            "freedend.self_s": (self.layer("freedend", self_s), "s"),
            "freedend.cache_hit_ratio": (
                1 - self.cache_entries / basis_calls if basis_calls else 0.0, "1"),
            "freedend.cache_entries": (self.cache_entries, "count"),
            "freecheck.sample_s": (self.stat("freecheck.sample", total), "s"),
            "freecheck.check_s": (self.stat("freecheck.free_check", total), "s"),
            "axioms.instances": (self.instances, "count"),
            "axioms.scan_s": (self.scan_s, "s"),
            "axioms.self_s": (axioms_self, "s"),
            "axioms.self_share": (axioms_self / wall_s if wall_s else 0.0, "1"),
            "ops.apply_calls": (self.stat("ops.apply", calls), "count"),
            "ops.apply_s": (self.stat("ops.apply", total), "s"),
            "ops.matrix_calls": (self.stat("ops.apply_matrix", calls), "count"),
            "ops.dispatch_self_s": (self.stat("ops.dispatch", self_s), "s"),
            "semigroups.prod_calls": (self.stat("semigroups.prod", calls), "count"),
            "semigroups.check_s": (self.stat("semigroups.check", total), "s"),
            "constructions.self_s": (self.layer("constructions", self_s), "s"),
            "jsonio.load_s": (self.stat("jsonio.load", total), "s"),
            "jsonio.dump_s": (self.stat("jsonio.dump", total), "s"),
            "reports.to_json_s": (self.stat("reports.to_json", total), "s"),
            "reports.out_bytes": (self.out_bytes, "bytes"),
            "exprs.eval_s": (self.stat("exprs.eval", total), "s"),
            "cli.self_s": (self.layer("cli", self_s), "s"),
            "trace.overhead_ratio": (overhead_ratio, "1"),
        }
