"""ASCII figure rendering (part of system S9 in ``docs/architecture.md``)."""

from repro.viz.ascii import grouped_bars, scatter, series_summary

__all__ = ["grouped_bars", "scatter", "series_summary"]
