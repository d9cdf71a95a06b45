"""Per-layer spans recorded from outside the program, for the traced run.

Each layer's public function is wrapped at every name its callers look up:
a wrapper replaces each binding of the original function object in the
``v2vsim`` package and its submodules (``v2vsim.planner.capacity_matrix``,
``v2vsim.simulate.ms_ssim``, ...), and methods are wrapped on their class.
Nothing under ``src/`` changes.  A wrapper records the call's duration and
its self time (duration minus that of wrapped callees) on an in-memory
stack, plus the counts the per-layer metrics need.  ``install`` and
``uninstall`` are called around each traced op, so checks and untraced ops
run the program's own functions.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import env  # noqa: F401  (finds src/)

errors = importlib.import_module("v2vsim.errors")

# layer name -> (module, attribute); "Class.method" names a method.
TARGETS = {
    "channel.capacity_matrix": ("v2vsim.channel", "capacity_matrix"),
    "channel.distance_matrix": ("v2vsim.channel", "Scenario.distance_matrix"),
    "planner.optimize": ("v2vsim.planner", "optimize"),
    "planner._candidates": ("v2vsim.planner", "_candidates"),
    "planner.validate_plan": ("v2vsim.planner", "validate_plan"),
    "planner.exhaustive_optimum": ("v2vsim.planner", "exhaustive_optimum"),
    "codec.rate_control": ("v2vsim.codec", "rate_control"),
    "codec.encode": ("v2vsim.codec", "encode"),
    "codec.decode": ("v2vsim.codec", "decode"),
    "codec.serialize_frame": ("v2vsim.codec", "serialize_frame"),
    "codec.deserialize_frame": ("v2vsim.codec", "deserialize_frame"),
    "codec.refine_model": ("v2vsim.codec", "refine_model"),
    "fourier.align": ("v2vsim.fourier", "align"),
    "fourier.dft2": ("v2vsim.fourier", "dft2"),
    "fourier.idft2": ("v2vsim.fourier", "idft2"),
    "metrics.ms_ssim": ("v2vsim.metrics", "ms_ssim"),
    "metrics.psnr": ("v2vsim.metrics", "psnr"),
    "metrics.mse": ("v2vsim.metrics", "mse"),
    "simulate.simulate": ("v2vsim.simulate", "simulate"),
    "simulate.write_outputs": ("v2vsim.simulate", "write_outputs"),
    "simulate.plan_matrix_report": ("v2vsim.simulate", "plan_matrix_report"),
    "scenario_io.parse_scenario_document": ("v2vsim.scenario_io", "parse_scenario_document"),
    "image_io.read_image": ("v2vsim.image_io", "read_image"),
    "cli.main": ("v2vsim.cli", "main"),
}

# Counted but not timed, so that optimize's self time keeps the candidate
# loop it runs between its channel calls.
COUNT_ONLY = frozenset({"planner._candidates"})

# v2vsim modules whose import time the traced run reports; "v2vsim" is the
# package itself.
IMPORTED_MODULES = ("v2vsim", "errors", "channel", "fourier", "codec", "metrics",
                    "planner", "scenario_io", "simulate", "image_io", "cli")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class _Frame:
    __slots__ = ("name", "child_ns", "steps")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0
        self.steps: list[float] = []


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "v2vsim" or name.startswith("v2vsim."))]
        # every (owner, attribute) that binds a target: its home, re-exports
        # and the names other modules imported it under
        self._bindings: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []  # renamed or removed: their figures read 0
        for name, target in TARGETS.items():
            try:
                owner, attr, orig = _resolve(*target)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._bindings.append((owner, attr, orig, wrapper))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is orig:
                        self._bindings.append((module, key, orig, wrapper))
        self.reset()

    def reset(self) -> None:
        self.stats = {name: Stat() for name in TARGETS}
        self.stack: list[_Frame] = []
        self.counts = {"candidates": 0, "links": 0, "frame_bytes": 0,
                       "bytes_read": 0, "dft2_in_align": 0, "encode_in_rc": 0,
                       "distinct_steps_in_rc": 0, "rc_ok": 0, "rc_budget_errors": 0}
        self.budget_fill_sum = 0.0

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for owner, key, orig, wrapper in self._bindings:
            if getattr(owner, key) is not orig:
                raise RuntimeError(f"{owner.__name__}.{key} is already wrapped or was replaced")
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._bindings:
            setattr(owner, key, orig)

    # -- recording ------------------------------------------------------
    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.split(".")[1], None)
        perf_ns = time.perf_counter_ns

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.stats[name].calls += 1
                hook(self.stack[-1] if self.stack else None, args, kwargs, result, None)
                return result
            return count_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, parent, perf_ns() - start)
                if name == "codec.rate_control" and isinstance(exc, errors.BudgetError):
                    self.counts["rc_budget_errors"] += 1
                raise
            self._close(name, frame, parent, perf_ns() - start)
            if hook is not None:
                hook(parent, args, kwargs, result, frame)
            return result
        return wrapper

    def _close(self, name: str, frame: _Frame, parent, dur: int) -> None:
        self.stack.pop()
        if parent is not None:
            parent.child_ns += dur
        stat = self.stats[name]
        stat.calls += 1
        stat.total_ns += dur
        stat.self_ns += dur - frame.child_ns

    def _after__candidates(self, parent, args, kwargs, result, frame) -> None:
        if parent is not None and parent.name == "planner.optimize":
            self.counts["candidates"] += len(result)

    def _after_optimize(self, parent, args, kwargs, result, frame) -> None:
        self.counts["links"] += result.num_links

    def _after_encode(self, parent, args, kwargs, result, frame) -> None:
        if parent is not None and parent.name == "codec.rate_control":
            parent.steps.append(result.quant_step)

    def _after_rate_control(self, parent, args, kwargs, result, frame) -> None:
        bound = dict(zip(("img", "ratio", "em", "cfg"), args), **kwargs)
        ratio, cfg = bound["ratio"], bound["cfg"]
        shape = bound["img"].shape
        allowed = (1.0 + cfg.rate_tolerance) * ratio * shape[0] * shape[1] * (
            shape[2] if len(shape) == 3 else 1) * 8
        self.budget_fill_sum += result[1].bit_count / allowed
        self.counts["rc_ok"] += 1
        self.counts["encode_in_rc"] += len(frame.steps)
        self.counts["distinct_steps_in_rc"] += len(set(frame.steps))

    def _after_serialize_frame(self, parent, args, kwargs, result, frame) -> None:
        self.counts["frame_bytes"] += len(result)

    def _after_dft2(self, parent, args, kwargs, result, frame) -> None:
        if parent is not None and parent.name == "fourier.align":
            self.counts["dft2_in_align"] += 1

    def _after_read_image(self, parent, args, kwargs, result, frame) -> None:
        self.counts["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    # -- per-layer metrics ----------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op figures over ``ops`` traced ops; unreached layers read 0."""
        s = self.stats
        c = self.counts

        def ms(name, self_time=False):
            st = s[name]
            return (st.self_ns if self_time else st.total_ns) / 1e6 / ops

        def ratio(num, den):
            return num / den if den else 0.0

        rc_calls = s["codec.rate_control"].calls
        return {
            "channel.capacity_matrix.ms_per_op": (ms("channel.capacity_matrix"), "ms/op"),
            "channel.capacity_matrix.calls_per_op": (s["channel.capacity_matrix"].calls / ops, "calls/op"),
            "channel.distance_matrix.ms_per_op": (ms("channel.distance_matrix"), "ms/op"),
            "planner.optimize.ms_per_op": (ms("planner.optimize"), "ms/op"),
            "planner.optimize.self_ms_per_op": (ms("planner.optimize", True), "ms/op"),
            "planner.validate_plan.ms_per_op": (ms("planner.validate_plan"), "ms/op"),
            "planner.exhaustive_optimum.ms_per_op": (ms("planner.exhaustive_optimum"), "ms/op"),
            "planner.candidates_per_op": (c["candidates"] / ops, "count/op"),
            "planner.links_per_op": (c["links"] / ops, "count/op"),
            "codec.rate_control.ms_per_op": (ms("codec.rate_control"), "ms/op"),
            "codec.rate_control.self_ms_per_op": (ms("codec.rate_control", True), "ms/op"),
            "codec.rate_control.budget_error_frac": (ratio(c["rc_budget_errors"], rc_calls), "ratio"),
            "codec.encode.calls_per_rate_control": (ratio(c["encode_in_rc"], c["rc_ok"]), "calls"),
            "codec.encode.useful_frac": (ratio(c["distinct_steps_in_rc"], c["encode_in_rc"]), "ratio"),
            "codec.encode.ms_per_call": (ratio(s["codec.encode"].total_ns / 1e6, s["codec.encode"].calls), "ms/call"),
            "codec.decode.ms_per_op": (ms("codec.decode"), "ms/op"),
            "codec.serialize_frame.ms_per_op": (ms("codec.serialize_frame"), "ms/op"),
            "codec.deserialize_frame.ms_per_op": (ms("codec.deserialize_frame"), "ms/op"),
            "codec.frame_bytes_per_op": (c["frame_bytes"] / ops, "bytes/op"),
            "codec.budget_fill": (ratio(self.budget_fill_sum, c["rc_ok"]), "ratio"),
            "fourier.align.ms_per_op": (ms("fourier.align"), "ms/op"),
            "fourier.dft2.calls_per_align": (ratio(c["dft2_in_align"], s["fourier.align"].calls), "calls"),
            "fourier.idft2.ms_per_op": (ms("fourier.idft2"), "ms/op"),
            "metrics.ms_ssim.ms_per_op": (ms("metrics.ms_ssim"), "ms/op"),
            "metrics.psnr.ms_per_op": (ms("metrics.psnr"), "ms/op"),
            "metrics.mse.ms_per_op": (ms("metrics.mse"), "ms/op"),
            "simulate.simulate.self_ms_per_op": (ms("simulate.simulate", True), "ms/op"),
            "simulate.write_outputs.ms_per_op": (ms("simulate.write_outputs"), "ms/op"),
            "simulate.plan_matrix_report.ms_per_op": (ms("simulate.plan_matrix_report"), "ms/op"),
            "scenario_io.parse_scenario_document.ms_per_op": (ms("scenario_io.parse_scenario_document"), "ms/op"),
            "image_io.read_image.ms_per_op": (ms("image_io.read_image"), "ms/op"),
            "image_io.bytes_read_per_op": (c["bytes_read"] / ops, "bytes/op"),
            "cli.main.self_ms_per_op": (ms("cli.main", True), "ms/op"),
        }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms of each v2vsim module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        name = fields[2].strip()
        if name == "v2vsim" or name.startswith("v2vsim."):
            short = "v2vsim" if name == "v2vsim" else name.split(".", 1)[1]
            try:
                out[short] = int(fields[1]) / 1000.0
            except ValueError:
                continue
    return out
