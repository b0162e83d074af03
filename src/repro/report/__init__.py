"""Paper-figure rendering and the self-contained artifact report.

``repro report`` turns (cached) spec runs into the paper's figures plus one
self-contained HTML/Markdown artifact.  Three layers:

* :mod:`repro.report.figures` — payload → :class:`FigureData` (chart type,
  axes, series, companion table), one extractor per experiment kind;
* :mod:`repro.report.charts` — rendering backends: matplotlib PNGs when
  installed (``pip install .[plots]``), deterministic Unicode text charts
  otherwise;
* :mod:`repro.report.build` — :func:`build_report`, which runs the specs
  through the result store (zero simulation work for cached campaigns) and
  assembles ``report.html`` / ``report.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.report.build import (
        RenderedFigure,
        ReportResult,
        SpecSection,
        build_report,
    )
    from repro.report.charts import matplotlib_available, render_png, render_text
    from repro.report.figures import FigureData, extract_figures


__all__ = [
    "FigureData",
    "extract_figures",
    "matplotlib_available",
    "render_png",
    "render_text",
    "RenderedFigure",
    "SpecSection",
    "ReportResult",
    "build_report",
]

__getattr__, __dir__ = attach(__name__)
