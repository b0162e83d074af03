"""Assemble the ``repro report`` artifact from (cached) spec runs.

:func:`build_report` is the engine behind the ``repro report`` subcommand:

1. every requested spec is executed through
   :func:`repro.config.run.run_spec` **with the result store attached** —
   a campaign that already ran is served entirely from cache, so building
   a report over cached results performs zero simulation work;
2. each payload is turned into figures (:mod:`repro.report.figures`) and
   rendered with the best available backend (:mod:`repro.report.charts`):
   PNG files when matplotlib is installed, deterministic text charts
   otherwise;
3. everything lands in one **self-contained** ``report.html`` (PNGs
   embedded as base64 data URIs — the file has no external references) and
   optionally a ``report.md`` twin, both written atomically, with run
   metadata, per-spec store statistics and per-figure tables.
"""

from __future__ import annotations

import base64
import html
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import __version__
from repro.config import load_spec, run_spec
from repro.config.run import SpecRunResult
from repro.obs.telemetry import recorder as _obs_recorder
from repro.report.charts import matplotlib_available, render_png, render_text
from repro.report.figures import FigureData, extract_figures
from repro.store import ResultStore
from repro.utils.io import atomic_write_text
from repro.utils.validation import ValidationError

__all__ = ["RenderedFigure", "SpecSection", "ReportResult", "build_report"]

#: Process-wide telemetry funnel; status events go through it.
_OBS = _obs_recorder()

#: Report flavours accepted by ``build_report(formats=...)``.
REPORT_FORMATS: tuple[str, ...] = ("html", "markdown")


@dataclass
class RenderedFigure:
    """One figure plus whatever the chosen backend produced for it."""

    data: FigureData
    image_path: Optional[Path] = None
    text: Optional[str] = None


@dataclass
class SpecSection:
    """One spec's slice of the report."""

    spec_path: str
    result: SpecRunResult
    figures: list[RenderedFigure] = field(default_factory=list)


@dataclass
class ReportResult:
    """Everything :func:`build_report` wrote."""

    out_dir: Path
    report_paths: list[Path]
    figure_paths: list[Path]
    sections: list[SpecSection]
    used_matplotlib: bool


# ---------------------------------------------------------------------- #
def build_report(
    spec_paths: Sequence[Union[str, Path]],
    *,
    store: Optional[ResultStore] = None,
    out_dir: Union[str, Path] = "reports",
    formats: Sequence[str] = ("html",),
    force_text: bool = False,
) -> ReportResult:
    """Run the specs (through the store) and write the artifact report.

    ``store`` is consulted and populated exactly as in ``repro run`` — pass
    the same store a campaign used and the report renders from cache;
    ``None`` recomputes everything.  ``formats`` selects ``"html"`` and/or
    ``"markdown"``.  ``force_text`` renders text charts even when
    matplotlib is available (the mpl-free path, also forced by the
    ``REPRO_FORCE_TEXT_CHARTS`` environment variable).  The spec's own
    ``[output]`` table is deliberately **not** written — a report build has
    no side effects beyond ``out_dir`` and the store.
    """
    if not spec_paths:
        raise ValidationError("build_report needs at least one spec path")
    formats = list(formats)
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ValidationError(
                f"unknown report format {fmt!r}; choose from {REPORT_FORMATS}"
            )
    out_dir = Path(out_dir)
    use_mpl = matplotlib_available() and not force_text

    sections: list[SpecSection] = []
    figure_paths: list[Path] = []
    for index, spec_path in enumerate(spec_paths):
        spec = load_spec(spec_path)
        if _OBS.sinks:
            _OBS.event(
                "progress", step="report-spec", spec=spec.name,
                message=f"report: running {spec_path} (kind {spec.kind})",
            )
        result = run_spec(spec, store=store)
        section = SpecSection(spec_path=str(spec_path), result=result)
        # The section index disambiguates specs that share a file stem
        # (v1/figure6.toml vs v2/figure6.toml must not overwrite each other).
        stem = f"{index:02d}-{Path(spec_path).stem}"
        for figure in extract_figures(result.payload):
            rendered = RenderedFigure(data=figure)
            if use_mpl:
                image = out_dir / "figures" / f"{stem}-{figure.slug}.png"
                rendered.image_path = render_png(figure, image)
                figure_paths.append(image)
            else:
                rendered.text = render_text(figure)
            section.figures.append(rendered)
        sections.append(section)
        if _OBS.sinks:
            _OBS.event(
                "progress", step="report-rendered", spec=spec.name,
                message=f"report: {spec.name} — {len(section.figures)} figure(s) "
                        f"rendered ({'png' if use_mpl else 'text'})",
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    report_paths: list[Path] = []
    if "html" in formats:
        path = out_dir / "report.html"
        atomic_write_text(path, _render_html(sections, store, use_mpl))
        report_paths.append(path)
    if "markdown" in formats:
        path = out_dir / "report.md"
        atomic_write_text(path, _render_markdown(sections, store, use_mpl))
        report_paths.append(path)
    return ReportResult(
        out_dir=out_dir,
        report_paths=report_paths,
        figure_paths=figure_paths,
        sections=sections,
        used_matplotlib=use_mpl,
    )


# ---------------------------------------------------------------------- #
# Shared metadata
# ---------------------------------------------------------------------- #
def _spec_metadata(section: SpecSection) -> list[tuple[str, str]]:
    spec = section.result.spec
    rows = [
        ("spec file", section.spec_path),
        ("experiment", spec.name),
        ("kind", spec.kind),
        ("seed", str(spec.seed)),
        ("max_time", "∞" if spec.max_time == float("inf") else f"{spec.max_time:g} s"),
    ]
    stats = section.result.store_stats
    if stats is not None:
        rows.append(
            (
                "result store",
                f"{stats['hits']} hits, {stats['misses']} misses, "
                f"{stats['writes']} writes "
                f"(hit rate {100.0 * stats['hit_rate']:.1f}%)",
            )
        )
    return rows


def _store_summary(store: Optional[ResultStore]) -> Optional[str]:
    if store is None:
        return None
    info = store.info()
    return (
        f"{info['path']} — {info['entries']} entries, "
        f"{info['total_bytes']} bytes on disk"
    )


def _generated_line() -> str:
    return (
        f"generated {time.strftime('%Y-%m-%d %H:%M:%S %Z')} by "
        f"repro {__version__}"
    )


# ---------------------------------------------------------------------- #
# HTML
# ---------------------------------------------------------------------- #
_HTML_STYLE = """
body { font-family: Georgia, 'Times New Roman', serif; margin: 2rem auto;
       max-width: 60rem; padding: 0 1rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #1a1a1a; padding-bottom: .3rem; }
h2 { margin-top: 2.5rem; border-bottom: 1px solid #999; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .9rem;
        font-family: 'DejaVu Sans', Verdana, sans-serif; }
th, td { border: 1px solid #bbb; padding: .25rem .6rem; text-align: left; }
th { background: #f0f0f0; }
figure { margin: 1.2rem 0; }
figcaption { font-size: .85rem; color: #555; margin-top: .3rem; }
img { max-width: 100%; border: 1px solid #ddd; }
pre.chart { background: #fafafa; border: 1px solid #ddd; padding: .8rem;
            overflow-x: auto; font-size: .8rem; line-height: 1.25; }
p.meta { color: #555; font-size: .85rem; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _html_figure(rendered: RenderedFigure) -> str:
    data = rendered.data
    parts = [f"<h3>{html.escape(data.title)}</h3>", "<figure>"]
    if rendered.image_path is not None:
        encoded = base64.b64encode(rendered.image_path.read_bytes()).decode("ascii")
        parts.append(
            f'<img src="data:image/png;base64,{encoded}" '
            f'alt="{html.escape(data.title)}">'
        )
    if rendered.text is not None:
        parts.append(f'<pre class="chart">{html.escape(rendered.text)}</pre>')
    if data.caption:
        parts.append(f"<figcaption>{html.escape(data.caption)}</figcaption>")
    parts.append("</figure>")
    if data.table_headers:
        parts.append(_html_table(data.table_headers, data.table_rows))
    return "\n".join(parts)


def _render_html(
    sections: Sequence[SpecSection],
    store: Optional[ResultStore],
    used_matplotlib: bool,
) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro artifact report</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        "<h1>repro artifact report</h1>",
        f'<p class="meta">{html.escape(_generated_line())} — figures: '
        f"{'matplotlib' if used_matplotlib else 'text fallback'}</p>",
    ]
    summary = _store_summary(store)
    if summary is not None:
        parts.append(f'<p class="meta">result store: {html.escape(summary)}</p>')
    for section in sections:
        spec = section.result.spec
        parts.append(f"<h2>{html.escape(spec.name)}</h2>")
        parts.append(
            _html_table(
                ["", ""], [[k, v] for k, v in _spec_metadata(section)]
            )
        )
        for rendered in section.figures:
            parts.append(_html_figure(rendered))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------- #
# Markdown
# ---------------------------------------------------------------------- #
def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _render_markdown(
    sections: Sequence[SpecSection],
    store: Optional[ResultStore],
    used_matplotlib: bool,
) -> str:
    parts = [
        "# repro artifact report",
        "",
        f"_{_generated_line()} — figures: "
        f"{'matplotlib' if used_matplotlib else 'text fallback'}_",
    ]
    summary = _store_summary(store)
    if summary is not None:
        parts.append(f"_result store: {summary}_")
    for section in sections:
        spec = section.result.spec
        parts.extend(["", f"## {spec.name}", ""])
        parts.append(_md_table(["key", "value"], _spec_metadata(section)))
        for rendered in section.figures:
            data = rendered.data
            parts.extend(["", f"### {data.title}", ""])
            if rendered.image_path is not None:
                relative = rendered.image_path.name
                parts.append(f"![{data.title}](figures/{relative})")
            if rendered.text is not None:
                parts.extend(["```text", rendered.text.rstrip("\n"), "```"])
            if data.caption:
                parts.extend(["", f"_{data.caption}_"])
            if data.table_headers:
                parts.extend(["", _md_table(data.table_headers, data.table_rows)])
    return "\n".join(parts) + "\n"
