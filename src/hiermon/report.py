"""Recursive XML monitoring reports and lossless aggregation.

A node report wraps the service reports one machine collected in a hold
window; intermediate reports wrap lower-level reports; the single system
report at the tree root transitively contains every service report.  The
wire format is plain single-line UTF-8 XML so serialized size is
deterministic and comparable.

`parse` has two paths.  A single regex scan reads the exact form `serialize`
writes; anything else (whitespace between elements, another attribute
order, entity or character references, a prolog, and every malformed or
schema-violating document) goes to the ElementTree walk, the reference and
the only source of parse errors.  The scan enforces every rule of the
`ServiceReport` and `Report` constructors itself and builds values without
rerunning them; input that breaks one goes to the walk, so for any input the
scan accepts, the two paths return equal reports.  Nesting deeper than
`MAX_NESTING` reports is a schema violation on both.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from math import inf
from random import Random
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from xml.etree import ElementTree

REFERENCE_NODE_REPORT_BYTES = 512
#: Deepest chain of nested reports `parse` accepts: a monitoring tree is a few levels
#: deep, and `Report`'s generated ``==``, ``hash`` and ``repr`` recurse per level.
MAX_NESTING = 100


class ReportError(Exception):
    """Base for all report construction and parsing failures."""


class EmptyWindowError(ReportError):
    """A hold window produced no reports, so there is nothing to emit."""


class SourceMismatchError(ReportError):
    """A node report may only contain service reports from its own machine."""


class LevelMismatchError(ReportError):
    """A report was offered to an aggregation level it cannot belong to."""


class MalformedXmlError(ReportError):
    """The input is not well-formed XML."""


class SchemaViolationError(ReportError):
    """Well-formed XML that does not describe a valid report tree."""


#: Characters XML 1.0 cannot carry, even as a character reference.
_XML_ILLEGAL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_xml_text(*texts: str) -> None:
    joined = "".join(texts)
    if not joined.isprintable() and _XML_ILLEGAL.search(joined):  # printable: no control chars
        raise ValueError("ids and metric names must be characters XML 1.0 can carry")


class LevelKind(enum.Enum):
    NODE = "node"
    INTERMEDIATE = "intermediate"
    SYSTEM = "system"


@dataclass(frozen=True)
class ServiceReport:
    """Performance data from a single application service."""

    service_id: str
    source_machine: str
    period_s: float
    generated_at_ms: int
    metrics: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        if not self.source_machine:
            raise ValueError("source_machine must be non-empty")
        if not 0.0 < self.period_s < inf:  # float bounds: NaN fails, and no int conversion
            raise ValueError("period_s must be finite and > 0")
        names = [name for name, _ in self.metrics]
        if len(set(names)) != len(names):
            raise ValueError("metric names must be unique within a report")
        _check_xml_text(self.service_id, self.source_machine, *names)


@dataclass(frozen=True)
class Report:
    """One report in the aggregation tree.

    ``children`` holds :class:`ServiceReport` values for node reports and
    nested :class:`Report` values for intermediate and system reports.
    `MAX_NESTING` bounds only `parse`: a report built in code has no depth
    limit, and the generated ``==``, ``hash`` and ``repr`` recurse once per
    level, so a chain a few hundred levels deep raises RecursionError there.
    """

    level_kind: LevelKind
    source: str
    generated_at_ms: int
    children: tuple

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("source must be non-empty")
        _check_xml_text(self.source)
        if not self.children:
            raise ValueError("a report must contain at least one child")
        if self.level_kind is LevelKind.NODE:
            if not all(isinstance(c, ServiceReport) for c in self.children):
                raise ValueError("node reports contain only service reports")
        else:
            if not all(isinstance(c, Report) for c in self.children):
                raise ValueError("aggregated reports contain only reports")
            if any(c.level_kind is LevelKind.SYSTEM for c in self.children):
                raise ValueError("a system report cannot be nested")


class ReportSize(NamedTuple):
    """A serialized report's size in bytes and in reference node-report units."""

    bytes: int
    node_report_units: float


def iter_leaves(report: Report) -> Iterator[ServiceReport]:
    """Every service report under ``report``, depth first, at any nesting depth."""
    stack = [report]
    while stack:
        top = stack.pop()
        if top.level_kind is LevelKind.NODE:
            yield from top.children
        else:
            stack.extend(reversed(top.children))


def make_node_report(
    source: str, service_reports: Sequence[ServiceReport], now: int
) -> Report:
    """Assemble one machine's node report from a hold window of service reports.

    Only the freshest report per service survives; on equal timestamps the
    later-arriving one wins.
    """
    if not service_reports:
        raise EmptyWindowError(f"no service reports pending on {source}")
    latest: dict[str, ServiceReport] = {}
    for sr in service_reports:
        if sr.source_machine != source:
            raise SourceMismatchError(
                f"service report from {sr.source_machine} offered to sensor on {source}"
            )
        kept = latest.get(sr.service_id)
        if kept is None or sr.generated_at_ms >= kept.generated_at_ms:
            latest[sr.service_id] = sr
    return Report(LevelKind.NODE, source, now, tuple(latest.values()))


def aggregate(
    children: Sequence[Report], level_kind: LevelKind, source: str, now: int
) -> Report:
    """Merge a window of reports into one enclosing report, losing nothing.

    Exact re-deliveries — same source and same generation timestamp — are
    collapsed to a single copy; distinct windows from the same source are all
    kept, so the leaf multiset is preserved.
    """
    if not children:
        raise EmptyWindowError(f"no reports buffered on {source}")
    if level_kind is LevelKind.NODE:
        raise LevelMismatchError("aggregation cannot produce a node report")
    deduped: dict[tuple[str, int], Report] = {}
    for child in children:
        if child.level_kind is LevelKind.SYSTEM:
            raise LevelMismatchError("a system report cannot be aggregated further")
        deduped[(child.source, child.generated_at_ms)] = child
    return Report(level_kind, source, now, tuple(deduped.values()))


_ESCAPED = re.compile('[&<>"\t\n\r]')
_KIND_NAMES = {kind: kind.value for kind in LevelKind}


def _attr(value: str) -> str:
    """Escape as `xml.sax.saxutils.quoteattr` does, ``&`` first so no entity is escaped twice.

    Tab, newline and CR become references; a parser reads them raw as spaces.
    """
    if not _ESCAPED.search(value):  # one scan is cheaper than seven replaces
        return value
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
        .replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")
    )


def _write_service_report(sr: ServiceReport, out: list[str]) -> None:
    service, source, metrics = sr.service_id, sr.source_machine, sr.metrics
    if _ESCAPED.search("".join([service, source, *[name for name, _ in metrics]])):
        service, source = _attr(service), _attr(source)
        metrics = [(_attr(name), value) for name, value in metrics]
    body = "".join([f'<metric name="{name}" value="{value!r}"/>' for name, value in metrics])
    out.append(f'<service-report service="{service}" source="{source}" period-s="{sr.period_s!r}"'
               f' generated-at-ms="{sr.generated_at_ms}">{body}</service-report>')


def _write_report(report: Report, out: list[str]) -> None:
    out.append(f'<report kind="{_KIND_NAMES[report.level_kind]}" source="{_attr(report.source)}"'
               f' generated-at-ms="{report.generated_at_ms}">')
    write = _write_service_report if report.level_kind is LevelKind.NODE else _write_report
    for child in report.children:
        write(child, out)
    out.append("</report>")


def serialize(report: Report) -> bytes:
    """Render a report as one line of UTF-8 XML; same report, same bytes.

    Raises `ReportError` for nesting deeper than the interpreter's recursion limit.
    """
    out: list[str] = []
    try:
        _write_report(report, out)
    except RecursionError:
        raise ReportError("report nesting too deep to serialize") from None
    return "".join(out).encode("utf-8")


def measure(report: Report) -> ReportSize:
    """Size a report in bytes and in reference node-report units."""
    n = len(serialize(report))
    return ReportSize(bytes=n, node_report_units=n / REFERENCE_NODE_REPORT_BYTES)


_REPORT_ATTRS = {"kind", "source", "generated-at-ms"}
_SERVICE_ATTRS = {"service", "source", "period-s", "generated-at-ms"}
_METRIC_ATTRS = {"name", "value"}


def _no_stray_text(elem: ElementTree.Element) -> None:
    if elem.text is not None and elem.text.strip():
        raise SchemaViolationError(f"unexpected text inside <{elem.tag}>")
    for child in elem:
        if child.tail is not None and child.tail.strip():
            raise SchemaViolationError(f"unexpected text after <{child.tag}>")


def _require_attrs(elem: ElementTree.Element, allowed: set[str]) -> None:
    present = set(elem.attrib)
    if present != allowed:
        missing = allowed - present
        extra = present - allowed
        detail = []
        if missing:
            detail.append("missing " + ", ".join(sorted(missing)))
        if extra:
            detail.append("unknown " + ", ".join(sorted(extra)))
        raise SchemaViolationError(f"<{elem.tag}>: " + "; ".join(detail))


def _parse_int(elem: ElementTree.Element, attr: str) -> int:
    try:
        return int(elem.attrib[attr])
    except ValueError:
        raise SchemaViolationError(
            f"<{elem.tag}> {attr}={elem.attrib[attr]!r} is not an integer"
        ) from None


def _parse_float(elem: ElementTree.Element, attr: str) -> float:
    try:
        return float(elem.attrib[attr])
    except ValueError:
        raise SchemaViolationError(
            f"<{elem.tag}> {attr}={elem.attrib[attr]!r} is not a number"
        ) from None


def _parse_service_report(elem: ElementTree.Element) -> ServiceReport:
    _require_attrs(elem, _SERVICE_ATTRS)
    _no_stray_text(elem)
    metrics = []
    for child in elem:
        if child.tag != "metric":
            raise SchemaViolationError(f"unknown element <{child.tag}> in <service-report>")
        _require_attrs(child, _METRIC_ATTRS)
        if len(child) or (child.text is not None and child.text.strip()):
            raise SchemaViolationError("<metric> must be empty")
        metrics.append((child.attrib["name"], _parse_float(child, "value")))
    try:
        return ServiceReport(
            service_id=elem.attrib["service"],
            source_machine=elem.attrib["source"],
            period_s=_parse_float(elem, "period-s"),
            generated_at_ms=_parse_int(elem, "generated-at-ms"),
            metrics=tuple(metrics),
        )
    except ValueError as exc:
        raise SchemaViolationError(str(exc)) from None


def _parse_report(elem: ElementTree.Element, depth: int = 1) -> Report:
    if elem.tag != "report":
        raise SchemaViolationError(f"unknown element <{elem.tag}>")
    if depth > MAX_NESTING:
        raise SchemaViolationError(f"report nesting too deep to parse (over {MAX_NESTING} levels)")
    _require_attrs(elem, _REPORT_ATTRS)
    _no_stray_text(elem)
    kind_value = elem.attrib["kind"]
    try:
        kind = LevelKind(kind_value)
    except ValueError:
        raise SchemaViolationError(f"unknown report kind {kind_value!r}") from None
    children: list = []
    for child in elem:
        if kind is LevelKind.NODE:
            if child.tag != "service-report":
                raise SchemaViolationError(
                    f"node reports contain only <service-report>, found <{child.tag}>"
                )
            children.append(_parse_service_report(child))
        else:
            if child.tag != "report":
                raise SchemaViolationError(
                    f"aggregated reports contain only <report>, found <{child.tag}>"
                )
            children.append(_parse_report(child, depth + 1))
    try:
        return Report(
            level_kind=kind,
            source=elem.attrib["source"],
            generated_at_ms=_parse_int(elem, "generated-at-ms"),
            children=tuple(children),
        )
    except ValueError as exc:
        raise SchemaViolationError(str(exc)) from None


#: An attribute value `serialize` writes with no escaping: no quote, markup,
#: reference, control character or XML non-character.  Ids are also non-empty.
_VALUE = r'[^"<>&\x00-\x1f\ufffe\uffff]*'
_ID = _VALUE[:-1] + "+"
_SERVICE = (f'<service-report service="({_ID})" source="({_ID})"'
            f' period-s="({_VALUE})" generated-at-ms="({_VALUE})">'
            f'((?:<metric name="{_VALUE}" value="{_VALUE}"/>)*)</service-report>')
_KINDS = {kind.value: kind for kind in LevelKind}
_new, _set = object.__new__, object.__setattr__


@functools.cache  # compiled on first use: runs that never parse skip the cost at import
def _token() -> re.Pattern:
    """A token of the canonical form: a node report holding one service report, a whole
    service report with its metrics, a report's open tag, or a report's close tag."""
    return re.compile(
        f'(<report kind="node" source="({_ID})" generated-at-ms="({_VALUE})">{_SERVICE}</report>'
        f'|{_SERVICE}|<report kind="({_VALUE})" source="({_ID})" generated-at-ms="({_VALUE})">|</report>)'
    )


def _service_report(service: str, source: str, period: str, at: str, metrics: str) -> ServiceReport:
    """The scanned service report, or ValueError where `ServiceReport` would refuse it.  Built
    with `object.__setattr__` per field, which keeps CPython's fast inline attributes."""
    period_s = float(period)
    fields = metrics.split('"')  # [.., name, .., value, ..] per metric
    names = fields[1::4]
    if not 0.0 < period_s < inf or len(set(names)) != len(names):
        raise ValueError("not a valid service report")
    sr = _new(ServiceReport)
    _set(sr, "service_id", service)
    _set(sr, "source_machine", source)
    _set(sr, "period_s", period_s)
    _set(sr, "generated_at_ms", int(at))
    _set(sr, "metrics", tuple(zip(names, map(float, fields[3::4]))))
    return sr


def _report(kind: LevelKind, source: str, at: int, children: tuple) -> Report:
    """A `Report` whose nesting the scan has already checked, built as `_service_report` is."""
    r = _new(Report)
    _set(r, "level_kind", kind)
    _set(r, "source", source)
    _set(r, "generated_at_ms", at)
    _set(r, "children", children)
    return r


def _parse_canonical(data: bytes | str) -> Report | None:
    """The report `data` holds if it is exactly in the form `serialize` writes, else None.

    Tokens must tile the text; they are disjoint and never empty, so they do
    exactly when their lengths add up to the text's.  A stack of open reports
    rebuilds the tree.  Each token is checked once against the constructors'
    rules: ids non-empty and XML-legal (by the grammar, plus a surrogate search
    of `str` input), periods finite and > 0, metric names unique, service
    reports only in node reports and reports never in them, a system report
    only as the document, no empty report, nesting at most `MAX_NESTING`.  A
    broken rule or failed conversion returns None, leaving `_parse_tree` to judge.
    """
    try:
        text = data if isinstance(data, str) else str(data, "utf-8")  # strict: no surrogates
        if text is data and not text.isascii() and _XML_ILLEGAL.search(text):
            return None
        tokens = _token().findall(text)
        if sum([len(token[0]) for token in tokens]) != len(text):
            return None
        document: list = []
        open_reports: list[tuple] = [(None, "", 0, document)]  # the document, then each open report
        for token in tokens:  # groups: 0 whole, 1-7 one-service node, 8-12 service, 13-15 open tag
            whole = token[0]
            parent_kind, _, _, siblings = open_reports[-1]
            if whole[1] == "s":  # a service report
                if parent_kind is not LevelKind.NODE:
                    return None
                siblings.append(_service_report(*token[8:13]))
            elif whole[1] == "/":  # a close tag
                if len(open_reports) == 1 or not siblings:
                    return None
                kind, source, at, children = open_reports.pop()
                open_reports[-1][3].append(_report(kind, source, at, tuple(children)))
            elif parent_kind is LevelKind.NODE or len(open_reports) > MAX_NESTING:
                return None
            elif whole[-2] == "t":  # ends in `</report>`: a node report with one service report
                node = (_service_report(*token[3:8]),)
                siblings.append(_report(LevelKind.NODE, token[1], int(token[2]), node))
            else:  # an open tag
                kind = _KINDS[token[13]]
                if kind is LevelKind.SYSTEM and len(open_reports) > 1:
                    return None
                open_reports.append((kind, token[14], int(token[15]), []))
        return document[0] if len(open_reports) == 1 and len(document) == 1 else None
    except (KeyError, ValueError):  # an unknown kind, a failed conversion or check, bad UTF-8
        return None


def parse(data: bytes | str) -> Report:
    """Inverse of :func:`serialize`; rejects anything the schema forbids.

    Reads canonical input with `_parse_canonical` and anything else, nesting
    past `MAX_NESTING` included, with the ElementTree walk `_parse_tree`, the
    only path that raises; both give equal reports for input the scan reads.
    """
    parsed = _parse_canonical(data)
    return parsed if parsed is not None else _parse_tree(data)


def _parse_tree(data: bytes | str) -> Report:
    """Parse through ElementTree, checking the schema element by element.

    ElementTree is imported here, on the first non-canonical input: nothing
    `serialize` writes needs it.
    """
    from xml.etree import ElementTree

    try:
        root = ElementTree.fromstring(data)
    except (ElementTree.ParseError, UnicodeError) as exc:  # a lone surrogate in `str` input
        raise MalformedXmlError(str(exc)) from None
    return _parse_report(root)


# --- synthetic report generators -------------------------------------------

DEFAULT_METRIC_NAMES = (
    "cpu-user-pct",
    "cpu-sys-pct",
    "mem-rss-kb",
    "mem-vsz-kb",
    "disk-rd-kbps",
    "disk-wr-kbps",
    "net-rx-kbps",
    "net-tx-kbps",
)

_DEFAULT_EPOCH_MS = 1_700_000_000_000


def synthetic_service_report(
    service_id: str = "svc-00",
    source_machine: str = "m-0001",
    period_s: float = 60.0,
    generated_at_ms: int = _DEFAULT_EPOCH_MS,
    rng: Random | None = None,
) -> ServiceReport:
    """A service report with the standard eight-metric payload."""
    rng = rng or Random(0)
    metrics = tuple(
        (name, round(rng.uniform(0.0, 100.0), 2)) for name in DEFAULT_METRIC_NAMES
    )
    return ServiceReport(service_id, source_machine, period_s, generated_at_ms, metrics)


def default_node_report(
    source: str = "m-0001",
    generated_at_ms: int = _DEFAULT_EPOCH_MS,
    rng: Random | None = None,
) -> Report:
    """The reference node report: one service, eight metrics, ~512 bytes."""
    sr = synthetic_service_report(
        source_machine=source, generated_at_ms=generated_at_ms, rng=rng
    )
    return Report(LevelKind.NODE, source, generated_at_ms, (sr,))


def report_of_size_kb(
    size_kb: float,
    source: str = "agg-0001",
    generated_at_ms: int = _DEFAULT_EPOCH_MS,
    rng: Random | None = None,
) -> Report:
    """An intermediate report sized in half-kilobyte node-report steps."""
    rng = rng or Random(0)
    count = max(1, round(size_kb / 0.5))
    nodes = tuple(
        default_node_report(f"m-{i:04d}", generated_at_ms, rng) for i in range(count)
    )
    return Report(LevelKind.INTERMEDIATE, source, generated_at_ms, nodes)
