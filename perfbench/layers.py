"""Layer map: which library callables are traced, what each call counts, and
how one traced pass's spans become per-layer metrics.

Attribution rule: every span's self time (its duration minus its children's)
is credited to the nearest enclosing span, itself included, that belongs to a
metric group in ``GROUPS``.  So ``pilot.field_s`` holds ``velocity_field``
plus the ``spectral_gradient`` it calls, but not a ``write_csv`` below it,
which is a group of its own.  Spans with no enclosing group are credited to
their own layer's ``self_s`` only.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os

import numpy as np

from workloads import WORKLOADS

LAYERS = ("schrodinger", "pilot", "process", "observables", "verification", "fileio", "scenarios", "cli")

# Private kernels traced by name: their arguments carry the transport counts.
PRIVATE = {"pilot": ("_rk4_batch",)}

# Methods that do a layer's work.  Other methods are accessors (density,
# mesh, real_means, ...) and stay inside their caller's span.
METHODS = {
    "pilot": {"FrameInterpolator": ("complex_at", "real_at"), "EquivarianceReport": ("to_json",)},
    "process": {"ProcessRun": ("to_csv",)},
    "verification": {"RateReport": ("to_json",), "SaddleReport": ("to_json",)},
}

# fmt17 runs once per CSV cell (680k calls for one 40,001-row run.csv); a
# span there would cost more than the call, so its time stays in the caller.
SKIP = {"fileio.fmt17"}

GROUPS = {
    "schrodinger.step": ("schrodinger.split_step_evolve",),
    "schrodinger.summary": ("schrodinger.frames_summary_csv",),
    "pilot.field": ("pilot.velocity_field",),
    "pilot.interp": ("pilot.FrameInterpolator.complex_at", "pilot.FrameInterpolator.real_at", "pilot.bohm_velocity_at"),
    "pilot.transport": ("pilot._rk4_batch", "pilot.integrate_trajectory"),
    "pilot.sample": ("pilot.sample_from_density",),
    "pilot.histogram": ("pilot.coarse_density_histogram",),
    "pilot.guide": ("pilot.guide_process",),
    "process.run": ("process.run_process",),
    "process.to_csv": ("process.ProcessRun.to_csv",),
    "observables.measure": ("observables.measure_run", "observables.measure_cycle"),
    "observables.csv": ("observables.observables_to_csv",),
    "verification.increments": ("verification.cycle_increment_residuals", "verification.dynkin_apply"),
    "verification.convergence": ("verification.process_convergence_rates",),
    "verification.hj": ("verification.complex_hj_residual",),
    "fileio.write": ("fileio.atomic_write_text", "fileio.atomic_write_bytes"),
    "fileio.format": ("fileio.write_csv", "fileio.write_json", "fileio.write_zlab_frame"),
    "cli.parse": ("cli.parse_config",),
}

# Streaming model of one split step, in bytes per grid cell: three complex
# multiplies (read two arrays, write one: 48 B each) and two out-of-place
# FFTs (read one, write one: 32 B each).  The aliasing guard adds one FFT.
STEP_BYTES_PER_CELL = 3 * 48 + 2 * 32
FFT_BYTES_PER_CELL = 32

SCENARIO_NAMES = tuple(dict.fromkeys(c["scenario"] for w in WORKLOADS.values() for c in w["configs"]))

METRICS = (
    [
        ("check_fail_ratio", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
        ("cli.parse_s", "s"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"]
    + [(f"scenarios.{name}_s", "s") for name in SCENARIO_NAMES]
    + [
        ("schrodinger.step_s", "s"),
        ("schrodinger.steps", "count"),
        ("schrodinger.calls", "count"),
        ("schrodinger.ns_per_cell_step", "ns"),
        ("schrodinger.summary_s", "s"),
        ("schrodinger.fft_flop_computed", "flop"),
        ("schrodinger.bytes_computed", "B"),
        ("schrodinger.flop_per_byte_computed", "flop/B"),
        ("pilot.field_s", "s"),
        ("pilot.fields", "count"),
        ("pilot.ms_per_field", "ms"),
        ("pilot.interp_s", "s"),
        ("pilot.interp_calls", "count"),
        ("pilot.interp_points", "count"),
        ("pilot.ns_per_point", "ns"),
        ("pilot.us_per_call", "us"),
        ("pilot.transport_s", "s"),
        ("pilot.particle_steps", "count"),
        ("pilot.rk4_failures", "count"),
        ("pilot.rk4_fail_ratio", "ratio"),
        ("pilot.sample_s", "s"),
        ("pilot.histogram_s", "s"),
        ("pilot.guide_s", "s"),
        ("process.run_s", "s"),
        ("process.steps", "count"),
        ("process.to_csv_s", "s"),
        ("observables.measure_s", "s"),
        ("observables.cycles", "count"),
        ("observables.us_per_cycle", "us"),
        ("observables.csv_s", "s"),
        ("verification.increments_s", "s"),
        ("verification.boundaries", "count"),
        ("verification.convergence_s", "s"),
        ("verification.hj_s", "s"),
        ("verification.hj_frames", "count"),
        ("fileio.write_s", "s"),
        ("fileio.format_s", "s"),
        ("fileio.bytes", "B"),
        ("fileio.files", "count"),
        ("fileio.mb_per_s", "MB/s"),
    ]
)


def targets():
    """({function: span name}, {(class, method): span name}) for every layer."""
    functions, methods = {}, {}
    for layer in LAYERS:
        module = importlib.import_module(f"zitterlab.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            wanted = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if wanted and inspect.isfunction(value) and value.__module__ == module.__name__ and name not in SKIP:
                functions[value] = name
        for cls_name, attrs in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for attr in attrs:
                methods[(cls, attr)] = f"{layer}.{cls_name}.{attr}"
    return functions, methods


# ---------------------------------------------------------------------------
# counting hooks: (counts, args, kwargs, result), run after the span closes
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_step(counts, args, kwargs, result):
    cells = _arg(args, kwargs, 0, "psi").grid.n ** 2
    n_steps = _arg(args, kwargs, 3, "n_steps")
    ffts = 2 * n_steps + (1 if n_steps else 0)
    counts["schrodinger.calls"] += 1
    counts["schrodinger.steps"] += n_steps
    counts["schrodinger.cell_steps"] += n_steps * cells
    counts["schrodinger.fft_flop"] += ffts * 5.0 * cells * math.log2(cells)
    counts["schrodinger.bytes"] += (n_steps * STEP_BYTES_PER_CELL + (FFT_BYTES_PER_CELL if n_steps else 0)) * cells


def _count_field(counts, args, kwargs, result):
    counts["pilot.fields"] += 1


def _count_interp(counts, args, kwargs, result):
    counts["pilot.interp_calls"] += 1
    counts["pilot.interp_points"] += len(_arg(args, kwargs, 2, "pts"))


def _count_rk4(counts, args, kwargs, result):
    particles = len(_arg(args, kwargs, 1, "x0"))
    counts["pilot.particles"] += particles
    counts["pilot.particle_steps"] += particles * _arg(args, kwargs, 3, "n_steps")
    counts["pilot.rk4_failures"] += int(np.count_nonzero(~result[1]))


def _count_run(counts, args, kwargs, result):
    counts["process.steps"] += len(result) - 1


def _count_cycles(counts, args, kwargs, result):
    counts["observables.cycles"] += len(result)


def _count_boundaries(counts, args, kwargs, result):
    counts["verification.boundaries"] += len(result)


def _count_hj(counts, args, kwargs, result):
    counts["verification.hj_frames"] += len(_arg(args, kwargs, 0, "psi_frames")) - 2


def _count_write(counts, args, kwargs, result):
    counts["fileio.files"] += 1
    counts["fileio.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "schrodinger.split_step_evolve": _count_step,
    "pilot.velocity_field": _count_field,
    "pilot.FrameInterpolator.complex_at": _count_interp,
    "pilot._rk4_batch": _count_rk4,
    "process.run_process": _count_run,
    "observables.measure_run": _count_cycles,
    "verification.cycle_increment_residuals": _count_boundaries,
    "verification.complex_hj_residual": _count_hj,
    "fileio.atomic_write_text": _count_write,
    "fileio.atomic_write_bytes": _count_write,
}


# ---------------------------------------------------------------------------
# spans -> metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def attribute(tracer):
    """Self time per group and per layer, and the self time inside scenario
    calls that belongs to the named layers (everything but ``scenarios``)."""
    group_of = {span: group for group, spans in GROUPS.items() for span in spans}
    self_t = tracer.self_times()
    groups = dict.fromkeys(GROUPS, 0.0)
    layers = dict.fromkeys(LAYERS, 0.0)
    owner, in_scenario = [], []
    covered = 0.0
    for i, (nid, parent) in enumerate(zip(tracer.name_id, tracer.parent)):
        name = tracer.names[nid]
        mine = group_of.get(name)
        owner.append(mine if mine or parent < 0 else owner[parent])
        root_is_scenario = name.startswith("scenarios.") if parent < 0 else in_scenario[parent]
        in_scenario.append(root_is_scenario)
        layer = (owner[i] or name).split(".", 1)[0]
        layers[layer] += self_t[i]
        if owner[i]:
            groups[owner[i]] += self_t[i]
        if root_is_scenario and layer != "scenarios":
            covered += self_t[i]
    return groups, layers, covered


def per_layer(tracer, traced_wall: float, scenario_s: dict) -> dict:
    """Per-layer metrics of one traced pass, except the two that need the
    whole run (check_fail_ratio, trace.overhead_s)."""
    groups, layers, covered = attribute(tracer)
    c = tracer.counts
    m = {f"{layer}.self_s": layers[layer] for layer in LAYERS if layer != "cli"}
    m.update({f"scenarios.{name}_s": scenario_s.get(name, 0.0) for name in SCENARIO_NAMES})
    m.update(
        {
            "trace.coverage": _ratio(covered, traced_wall),
            "cli.parse_s": groups["cli.parse"],
            "schrodinger.step_s": groups["schrodinger.step"],
            "schrodinger.steps": c["schrodinger.steps"],
            "schrodinger.calls": c["schrodinger.calls"],
            "schrodinger.ns_per_cell_step": _ratio(groups["schrodinger.step"], c["schrodinger.cell_steps"], 1e9),
            "schrodinger.summary_s": groups["schrodinger.summary"],
            "schrodinger.fft_flop_computed": c["schrodinger.fft_flop"],
            "schrodinger.bytes_computed": c["schrodinger.bytes"],
            "schrodinger.flop_per_byte_computed": _ratio(c["schrodinger.fft_flop"], c["schrodinger.bytes"]),
            "pilot.field_s": groups["pilot.field"],
            "pilot.fields": c["pilot.fields"],
            "pilot.ms_per_field": _ratio(groups["pilot.field"], c["pilot.fields"], 1e3),
            "pilot.interp_s": groups["pilot.interp"],
            "pilot.interp_calls": c["pilot.interp_calls"],
            "pilot.interp_points": c["pilot.interp_points"],
            "pilot.ns_per_point": _ratio(groups["pilot.interp"], c["pilot.interp_points"], 1e9),
            "pilot.us_per_call": _ratio(groups["pilot.interp"], c["pilot.interp_calls"], 1e6),
            "pilot.transport_s": groups["pilot.transport"],
            "pilot.particle_steps": c["pilot.particle_steps"],
            "pilot.rk4_failures": c["pilot.rk4_failures"],
            "pilot.rk4_fail_ratio": _ratio(c["pilot.rk4_failures"], c["pilot.particles"]),
            "pilot.sample_s": groups["pilot.sample"],
            "pilot.histogram_s": groups["pilot.histogram"],
            "pilot.guide_s": groups["pilot.guide"],
            "process.run_s": groups["process.run"],
            "process.steps": c["process.steps"],
            "process.to_csv_s": groups["process.to_csv"],
            "observables.measure_s": groups["observables.measure"],
            "observables.cycles": c["observables.cycles"],
            "observables.us_per_cycle": _ratio(groups["observables.measure"], c["observables.cycles"], 1e6),
            "observables.csv_s": groups["observables.csv"],
            "verification.increments_s": groups["verification.increments"],
            "verification.boundaries": c["verification.boundaries"],
            "verification.convergence_s": groups["verification.convergence"],
            "verification.hj_s": groups["verification.hj"],
            "verification.hj_frames": c["verification.hj_frames"],
            "fileio.write_s": groups["fileio.write"],
            "fileio.format_s": groups["fileio.format"],
            "fileio.bytes": c["fileio.bytes"],
            "fileio.files": c["fileio.files"],
            "fileio.mb_per_s": _ratio(c["fileio.bytes"], groups["fileio.write"] + groups["fileio.format"], 1e-6),
        }
    )
    return m
