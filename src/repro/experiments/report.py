"""One-command reproduction: regenerate every figure and table as text.

``python -m repro.experiments.report`` (or the installed ``repro-reproduce``
script) runs Experiment 1, Experiment 2, renders Tables 1-2 and the
ablations, and prints a self-contained paper-versus-measured report --
the "did it reproduce on my machine?" artifact for downstream users.

Scale knobs: ``REPRO_EXP1_TUPLES`` and ``REPRO_EXP2_HOURS`` (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import sys
import time

from repro.core import (
    aggregate_characterization,
    join_characterization,
)
from repro.experiments.ablation import (
    run_centralized_ablation,
    run_pace_bound_ablation,
)
from repro.experiments.exp1 import Exp1Config, run_experiment_1
from repro.experiments.exp2 import Exp2Config, SCHEMES, run_experiment_2
from repro.stream.schema import Schema
from repro.viz import grouped_bars, scatter

__all__ = ["generate_report", "main"]


def _header(title: str) -> str:
    bar = "=" * 74
    return f"{bar}\n{title}\n{bar}"


def generate_report(
    *,
    exp1_config: Exp1Config | None = None,
    exp2_config: Exp2Config | None = None,
    include_figures: bool = True,
) -> str:
    """Build the full reproduction report as one string."""
    exp1_config = exp1_config or Exp1Config.from_env()
    exp2_config = exp2_config or Exp2Config.from_env()
    sections: list[str] = []

    # ---- Experiment 1 ------------------------------------------------------
    started = time.perf_counter()
    arms = run_experiment_1(exp1_config)
    sections.append(_header(
        "Experiment 1 -- imputation plan (Figures 5 & 6)"
    ))
    for key, figure_name in (
        ("no_feedback", "Figure 5 (no feedback)"),
        ("with_feedback", "Figure 6 (with feedback)"),
    ):
        arm = arms[key]
        if include_figures:
            sections.append(scatter(
                {"clean": arm.clean_series, "imputed": arm.imputed_series},
                width=70, height=14, title=figure_name,
                x_label="output time (s)", y_label="tuple id",
            ))
        sections.append(arm.summary())
    sections.append(
        f"paper: 97% vs 29% dropped; measured: "
        f"{arms['no_feedback'].drop_fraction:.0%} vs "
        f"{arms['with_feedback'].drop_fraction:.0%}   "
        f"[{time.perf_counter() - started:.1f}s wall]"
    )

    # ---- Experiment 2 ------------------------------------------------------
    started = time.perf_counter()
    table = run_experiment_2(exp2_config)
    frequencies = sorted(next(iter(table.values())).keys())
    sections.append(_header(
        "Experiment 2 -- speed-map feedback schemes (Figure 7)"
    ))
    sections.append(grouped_bars(
        {
            f"feedback every {freq:g} min": {
                scheme: table[scheme][freq].execution_time
                for scheme in SCHEMES
            }
            for freq in frequencies
        },
        title="execution time (virtual seconds)",
        value_format="{:.1f}s",
    ))
    baseline = table["F0"][frequencies[0]].execution_time
    paper = {"F1": 0.50, "F2": 0.61, "F3": 0.65}
    for scheme in ("F1", "F2", "F3"):
        measured = 1 - table[scheme][frequencies[0]].execution_time / baseline
        sections.append(
            f"{scheme}: paper reduction {paper[scheme]:.0%}, "
            f"measured {measured:.1%}"
        )
    sections.append(f"[{time.perf_counter() - started:.1f}s wall]")

    # ---- Tables -------------------------------------------------------------
    sections.append(_header("Table 1 -- characterization of COUNT"))
    sections.append(
        aggregate_characterization(
            "count", Schema.of("window", "segment", "count"),
            ["window", "segment"], "count",
        ).render_table()
    )
    sections.append(_header("Table 2 -- characterization of JOIN"))
    sections.append(
        join_characterization(
            Schema.of("a", "t", "id", "b"), ["a"], ["t", "id"], ["b"]
        ).render_table()
    )

    # ---- Ablations ------------------------------------------------------------
    sections.append(_header("Ablations"))
    comparison = run_centralized_ablation(exp2_config)
    sections.append("centralized vs localized (Figure 2 quantified):")
    sections.append("  " + comparison.summary())
    fractions = run_pace_bound_ablation(exp1_config)
    sections.append(
        "PACE bound policy (imputed-drop fraction): "
        + ", ".join(f"{k}={v:.1%}" for k, v in fractions.items())
    )

    return "\n\n".join(sections) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    argv = sys.argv[1:] if argv is None else argv
    include_figures = "--no-figures" not in argv
    sys.stdout.write(generate_report(include_figures=include_figures))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
