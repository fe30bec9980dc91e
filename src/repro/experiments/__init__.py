"""Experiment harness: dataset builders, drivers for every figure, and table formatting."""

from repro.experiments.config import DATASET_BUILDERS, ExperimentConfig, build_dataset, experiment_scale
from repro.experiments.reporting import format_series, print_series, speedup_summary
from repro.experiments.runner import (
    ExperimentSeries,
    run_exp1_vary_delta,
    run_exp2_vary_graph_size,
    run_exp3_vary_diameter,
    run_exp3_vary_rules,
    run_exp4_vary_interval,
    run_exp4_vary_latency,
    run_exp4_vary_processors,
    run_exp5_effectiveness,
    run_selftuning,
)

__all__ = [
    "DATASET_BUILDERS",
    "ExperimentConfig",
    "ExperimentSeries",
    "build_dataset",
    "experiment_scale",
    "format_series",
    "print_series",
    "run_exp1_vary_delta",
    "run_exp2_vary_graph_size",
    "run_exp3_vary_diameter",
    "run_exp3_vary_rules",
    "run_exp4_vary_interval",
    "run_exp4_vary_latency",
    "run_exp4_vary_processors",
    "run_exp5_effectiveness",
    "run_selftuning",
    "speedup_summary",
]
