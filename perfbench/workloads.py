"""Benchmark workloads: the scenario configs each one runs, and why.

A workload is a fixed list of scenario configs, run one after another through
``scenarios.run_scenario``.  Every config is the scenario's default except
for the keys given here; the benchmark adds ``seed = <--seed>`` to each.
``TINY`` shrinks every scenario so that the smoke test finishes in seconds
while every scenario check still passes.
"""

from __future__ import annotations

WORKLOADS = {
    "wave": {
        "why": "split-step solver on free (256^2) and harmonic (128^2) kicks plus the HJ residual; "
        "about 92% of the time is the solver",
        "configs": [
            {"scenario": "free_gaussian"},
            {"scenario": "harmonic_coherent"},
            {"scenario": "hj_residual"},
        ],
    },
    "ensemble": {
        "why": "bulk Bohmian transport of 1e4 particles through 201 frames of 256^2: solver, "
        "velocity fields and interpolation of many points per call",
        "configs": [
            {"scenario": "equivariance", "ensemble_n": "10000", "n_grid": "256"},
        ],
    },
    "guided": {
        "why": "guided process: the same interpolation code at about 15k calls of one point, "
        "so per-call set-up cost shows here and not in ensemble",
        "configs": [
            {"scenario": "guided_process", "guided_epsilons": "2e-3, 1e-3, 5e-4"},
        ],
    },
    "process": {
        "why": "process side only, no wave layer: recurrence, cycle observables, cycle-increment "
        "residuals and the 40,001-row run.csv write",
        "configs": [
            {"scenario": "process_free", "T": "400", "velocity": "circular"},
            {"scenario": "spin_table", "cycles": "1000"},
            {"scenario": "heisenberg_table", "cycles": "1000"},
            {"scenario": "convergence", "T": "4"},
            {"scenario": "lemma1", "T": "4"},
        ],
    },
}

# Per-scenario overrides for the smoke test; they replace the keys above.
TINY = {
    "free_gaussian": {"n_grid": "64", "box_half_width": "8", "T": "0.05"},
    "harmonic_coherent": {"n_grid": "64", "box_half_width": "5.5", "center_x": "0.5", "dt": "3e-3"},
    "hj_residual": {"n_grid": "64", "hj_ns": "16, 32, 64"},
    "equivariance": {"ensemble_n": "2000", "n_grid": "64", "box_half_width": "8", "T": "0.1", "bins": "8"},
    "guided_process": {"n_grid": "64", "box_half_width": "8", "T": "0.2", "guided_epsilons": "4e-3, 2e-3, 1e-3"},
    "process_free": {"T": "4"},
    "spin_table": {"cycles": "10"},
    "heisenberg_table": {"cycles": "10"},
    "convergence": {"T": "1"},
    "lemma1": {"T": "1"},
}


def config_texts(workload: str, seed: int, tiny: bool = False) -> list[str]:
    """The workload's configs as ``key = value`` documents for ``cli.parse_config``."""
    texts = []
    for config in WORKLOADS[workload]["configs"]:
        keys = dict(config)
        if tiny:
            keys.update(TINY[keys["scenario"]])
        keys["seed"] = str(seed)
        texts.append("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return texts
