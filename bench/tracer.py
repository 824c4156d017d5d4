"""Layer tracing from outside the package.

Every traced function is replaced, for the duration of a ``with`` block, by
a wrapper that records calls, inclusive time, self time (inclusive minus
the time covered by traced callees) and calls that ended in an exception.
Modules bind helpers with ``from ... import``, so a plain function is
rebound in *every* loaded ``delayedpa`` module namespace that holds it;
methods and constructors are patched on their class, which every caller
shares.  Nothing inside ``src/delayedpa`` is edited, and leaving the block
restores every original object.

Only functions at a layer boundary are traced.  Per-signal helpers inside
``protocols`` (``decode_key_bit``, ``ChannelModel.transmit``,
``EveModel.tap``, ``BitVector.__getitem__``) are deliberately left alone:
wrapping them would measure the wrapper, not the layer.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field


def _matvec_bit_ops(args, kwargs) -> int:
    matrix = args[0] if args else kwargs["a"]
    return matrix.rows * matrix.cols


def _toeplitz_bytes(args, kwargs) -> int:
    bound = dict(zip(("seed", "n_pa", "n"), args), **kwargs)
    return bound["n_pa"] * math.ceil(bound["n"] / 8)


@dataclass(frozen=True)
class Target:
    """One traced callable: ``delayedpa.<module>.<qualname>``.

    A qualname naming a class traces its constructor.  ``count`` computes a
    work count from the call's arguments (labelled as computed, never read
    from a program counter); ``keep_durations`` keeps every call's time.
    """

    module: str
    qualname: str
    count: object = None
    count_name: str = ""
    keep_durations: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


# Layers are the package modules, outermost first.
LAYERS = ("cli", "reports", "suites", "protocols", "pa", "security", "quantum", "gf2")

TARGETS = (
    Target("cli", "main"),
    Target("cli", "build_parser"),
    Target("reports", "transcript_report"),
    Target("reports", "verify_report"),
    Target("reports", "key_digest"),
    Target("reports", "dumps"),
    Target("suites", "suite_delayed_pa"),
    Target("suites", "suite_protocol_2c2d"),
    Target("suites", "suite_preimage_uniformity"),
    Target("suites", "suite_table1"),
    Target("protocols", "run_bb84"),
    Target("protocols", "run_dqkd"),
    Target("protocols", "run_integrated"),
    Target("protocols", "estimate_errors"),
    Target("protocols", "key_length"),
    Target("pa", "AdditivePaFunction"),
    Target("pa", "pa_apply"),
    Target("pa", "expand_message"),
    Target("pa", "DelayedPaSession.create"),
    Target("pa", "DelayedPaSession.to_json"),
    Target("pa", "DelayedPaSession.from_json"),
    Target("security", "sweep_delayed_pa"),
    Target("security", "enumerate_pa_matrices"),
    Target("security", "delayed_pa_epsilons", keep_durations=True),
    Target("security", "delayed_pa_epsilons_quantum"),
    Target("security", "classical_epsilon"),
    Target("security", "cq_epsilon"),
    Target("security", "load_eve_bank"),
    Target("quantum", "verify_2c_2d"),
    Target("quantum", "build_2d_state"),
    Target("quantum", "build_2c_state"),
    Target("quantum", "random_pure_state"),
    Target("gf2", "matvec", count=_matvec_bit_ops, count_name="bit_ops"),
    Target("gf2", "toeplitz_from_seed", count=_toeplitz_bytes, count_name="bytes"),
    Target("gf2", "row_reduce"),
    Target("gf2", "sample_preimage"),
    Target("gf2", "BitVector.from_bits"),
    Target("gf2", "BitVector.random"),
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    computed: int = 0
    durations: list = field(default_factory=list)


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    Entering again reinstalls them; the counts keep adding up.
    """

    def __init__(self):
        self.targets = TARGETS
        self.stats = {t.name: Stat() for t in TARGETS}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _call(self, target: Target, stat: Stat, fn, args, kwargs):
        if target.count is not None:
            try:
                stat.computed += target.count(args, kwargs)
            except (AttributeError, KeyError, TypeError, IndexError):
                pass  # a changed signature loses the count, never the call
        child = [0.0]
        self._stack.append(child)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stat.calls += 1
            stat.self_s += elapsed - child[0]
            if target.keep_durations:
                stat.durations.append(elapsed)
            if self._stack:
                self._stack[-1][0] += elapsed

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.name]
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens in next(), so each step is a span
            def step(it):
                return next(it, _DONE)

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while (item := self._call(target, stat, step, (it,), {})) is not _DONE:
                    yield item
        else:
            def wrapper(*args, **kwargs):
                return self._call(target, stat, fn, args, kwargs)
        return wrapper

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _DONE)))
        setattr(owner, attr, new)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(f"delayedpa.{target.module}")
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = module
        if owner_name:
            owner = getattr(module, owner_name, None)
        obj = getattr(owner, attr, None) if owner is not None else None
        if obj is None:
            return  # removed by a later version: reports zero calls
        if inspect.isclass(obj):
            self._patch(obj, "__init__", self._wrap(target, obj.__init__))
        elif owner is not module:
            raw = owner.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(target, raw.__func__)))
            elif raw is not None:
                self._patch(owner, attr, self._wrap(target, raw))
        else:
            wrapped = self._wrap(target, obj)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "delayedpa" or mod_name.startswith("delayedpa.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is obj:
                        self._patch(mod, name, wrapped)

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _DONE:
                delattr(owner, attr)  # the patch shadowed an inherited attribute
            else:
                setattr(owner, attr, original)


_DONE = object()  # end of a generator, or an attribute the owner did not define


# ------------------------------------------------------------------ report

def per_layer_metrics(tracer: Tracer, ops, traced_s: float, plain_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced op list, keyed by BENCHMARK.json name.

    ``traced_s`` and ``plain_s`` are the summed op times of the traced and
    the untraced pass; span times are multiplied by ``scale``, the
    host-speed correction of the traced pass.
    """
    metrics = {}
    for layer in LAYERS:
        stats = [s for name, s in tracer.stats.items() if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = sum(s.calls for s in stats)
        metrics[f"{layer}.self_s"] = sum(s.self_s for s in stats) * scale
        metrics[f"{layer}.errors"] = sum(s.errors for s in stats)
    for target in tracer.targets:
        stat = tracer.stats[target.name]
        metrics[f"{target.name}.calls"] = stat.calls
        metrics[f"{target.name}.self_s"] = stat.self_s * scale
        metrics[f"{target.name}.errors"] = stat.errors
        if target.count_name:
            metrics[f"{target.name}.{target.count_name}"] = stat.computed
    # delayed-pa ops carry their certified-pair count as work
    certified = sum(op.work for op in ops if op.label.startswith("verify --suite delayed-pa"))
    cases = tracer.stats["security.delayed_pa_epsilons"]
    metrics["security.certified_pairs"] = certified
    metrics["security.cases_per_certified"] = cases.calls / certified if certified else 0.0
    metrics["security.case_s.p50"] = statistics.median(cases.durations) * scale if cases.durations else 0.0
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = plain_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics


def print_layers(tracer: Tracer, metrics: dict) -> None:
    """Per-layer table with each layer's share of the traced wall time."""
    wall = metrics["trace.traced_wall_s"]
    print(f"{'layer / function':44} {'calls':>9} {'self_s':>10} {'share':>7} {'errors':>6}")
    for layer in LAYERS:
        print(f"{layer:44} {metrics[f'{layer}.calls']:>9} {metrics[f'{layer}.self_s']:>10.4f} "
              f"{metrics[f'{layer}.self_s'] / wall:>7.1%} {metrics[f'{layer}.errors']:>6}")
        for t in tracer.targets:
            if t.module == layer:
                self_s = metrics[f"{t.name}.self_s"]
                print(f"  {t.name:42} {metrics[f'{t.name}.calls']:>9} {self_s:>10.4f} "
                      f"{self_s / wall:>7.1%} {metrics[f'{t.name}.errors']:>6}")
    outside = wall - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print(f"{'(benchmark loop, outside every layer)':44} {'':>9} {outside:>10.4f} {outside / wall:>7.1%}")
    print("computed from call arguments, not read from the program:")
    print(f"  gf2.matvec.bit_ops (sum rows*cols)                   {metrics['gf2.matvec.bit_ops']}")
    print(f"  gf2.toeplitz_from_seed.bytes (sum rows*ceil(cols/8)) {metrics['gf2.toeplitz_from_seed.bytes']}")
    print(f"  security.certified_pairs (from n, n_pa and bank)     {metrics['security.certified_pairs']}")
    print(f"security.cases_per_certified {metrics['security.cases_per_certified']:.6g}, "
          f"security.case_s.p50 {metrics['security.case_s.p50']:.6g} s")
    plain = metrics["trace.untraced_wall_s"]
    print(f"tracing overhead: traced {wall:.3f} s - untraced {plain:.3f} s "
          f"= {wall - plain:.3f} s ({(wall - plain) / plain:+.1%})")
