"""Tests for report construction, aggregation, and the XML wire format."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermon import report
from hiermon.report import (
    EmptyWindowError,
    LevelKind,
    LevelMismatchError,
    MalformedXmlError,
    Report,
    ReportError,
    SchemaViolationError,
    ServiceReport,
    SourceMismatchError,
    aggregate,
    default_node_report,
    iter_leaves,
    make_node_report,
    measure,
    parse,
    report_of_size_kb,
    serialize,
    synthetic_service_report,
)


def sr(service="svc-00", source="m-0001", period=60.0, at=1000, metrics=()):
    return ServiceReport(service, source, period, at, tuple(metrics))


def nested_document(depth):
    """A canonical document: ``depth`` intermediate reports around one node report."""
    return (
        '<report kind="intermediate" source="ch" generated-at-ms="1">' * depth
        + '<report kind="node" source="m" generated-at-ms="1">'
        + '<service-report service="s" source="m" period-s="1.0" generated-at-ms="1">'
        + "</service-report></report>"
        + "</report>" * depth
    )


class TestServiceReport:
    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            sr(service="")
        with pytest.raises(ValueError):
            sr(source="")

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            sr(period=0.0)

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), float("-inf")])
    def test_nan_and_infinite_periods_rejected(self, period):
        with pytest.raises(ValueError, match="finite"):
            sr(period=period)

    def test_duplicate_metric_names_rejected(self):
        with pytest.raises(ValueError):
            sr(metrics=[("cpu", 1.0), ("cpu", 2.0)])


class TestMakeNodeReport:
    def test_singleton(self):
        report = make_node_report("m-0001", [sr()], now=2000)
        assert report.level_kind is LevelKind.NODE
        assert len(list(iter_leaves(report))) == 1
        assert report.generated_at_ms == 2000

    @pytest.mark.parametrize("flip", [False, True])
    def test_latest_per_service_wins_in_either_order(self, flip):
        early = sr(at=1000)
        late = sr(at=5000)
        window = [late, early] if flip else [early, late]
        report = make_node_report("m-0001", window, now=6000)
        assert report.children == (late,)

    def test_timestamp_tie_keeps_later_arrival(self):
        a = sr(at=1000, metrics=[("cpu", 1.0)])
        b = sr(at=1000, metrics=[("cpu", 2.0)])
        report = make_node_report("m-0001", [a, b], now=2000)
        assert report.children == (b,)

    def test_distinct_services_all_kept(self):
        window = [sr(service=f"svc-{i:02d}") for i in range(10)]
        report = make_node_report("m-0001", window, now=2000)
        assert len(list(iter_leaves(report))) == 10

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            make_node_report("m-0001", [], now=2000)

    def test_mixed_sources(self):
        with pytest.raises(SourceMismatchError):
            make_node_report("m-0001", [sr(), sr(source="m-0002")], now=2000)


class TestAggregate:
    def test_single_child(self):
        node = default_node_report()
        agg = aggregate([node], LevelKind.INTERMEDIATE, "ch-1-01", now=3000)
        assert agg.children == (node,)

    def test_fifty_node_reports_carry_at_least_25_kb(self):
        nodes = [default_node_report(f"m-{i:04d}") for i in range(50)]
        agg = aggregate(nodes, LevelKind.INTERMEDIATE, "ch-1-01", now=3000)
        payload = sum(measure(n).bytes for n in agg.children)
        assert payload >= 25 * 1024
        assert measure(agg).bytes > payload

    def test_system_report_over_two_intermediates(self):
        def intermediate(tag):
            nodes = [default_node_report(f"m-{tag}{i:03d}") for i in range(10)]
            return aggregate(nodes, LevelKind.INTERMEDIATE, f"ch-1-{tag}", now=3000)

        system = aggregate(
            [intermediate("a"), intermediate("b")], LevelKind.SYSTEM, "root", now=4000
        )
        assert len(list(iter_leaves(system))) == 20

    def test_exact_redelivery_collapsed(self):
        node = default_node_report("m-0001", generated_at_ms=1000)
        agg = aggregate([node, node], LevelKind.INTERMEDIATE, "ch", now=2000)
        assert agg.children == (node,)

    def test_distinct_windows_from_same_source_all_kept(self):
        # A feeder flushing faster than its parent contributes several windows;
        # none of them may be dropped.
        windows = [
            make_node_report("m-0001", [sr(at=t)], now=t + 1) for t in (1000, 2000, 3000)
        ]
        agg = aggregate(windows, LevelKind.INTERMEDIATE, "ch", now=4000)
        assert len(list(iter_leaves(agg))) == 3

    def test_empty_buffer(self):
        with pytest.raises(EmptyWindowError):
            aggregate([], LevelKind.INTERMEDIATE, "ch", now=1000)

    def test_cannot_aggregate_into_node(self):
        with pytest.raises(LevelMismatchError):
            aggregate([default_node_report()], LevelKind.NODE, "ch", now=1000)

    def test_system_child_rejected(self):
        system = aggregate([default_node_report()], LevelKind.SYSTEM, "root", now=1000)
        with pytest.raises(LevelMismatchError):
            aggregate([system], LevelKind.SYSTEM, "root2", now=2000)

    @pytest.mark.parametrize("case, error, message", [
        ("empty", EmptyWindowError, "no reports buffered on ch"),
        ("node target", LevelMismatchError, "aggregation cannot produce a node report"),
        ("system child", LevelMismatchError, "a system report cannot be aggregated further"),
        ("empty source", ValueError, "source must be non-empty"),
        ("control character", ValueError, "ids and metric names must be characters XML 1.0 can carry"),
    ])
    def test_refusals_keep_their_type_and_message(self, case, error, message):
        node = default_node_report()
        children, kind, source = {
            "empty": ([], LevelKind.INTERMEDIATE, "ch"),
            "node target": ([node], LevelKind.NODE, "ch"),
            "system child": ([Report(LevelKind.SYSTEM, "root", 1000, (node,))], LevelKind.SYSTEM, "ch"),
            "empty source": ([node], LevelKind.INTERMEDIATE, ""),
            "control character": ([node], LevelKind.INTERMEDIATE, "ch\x01"),
        }[case]
        with pytest.raises(error) as raised:
            aggregate(children, kind, source, now=2000)
        assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("case", ["redelivery", "distinct windows"])
    def test_result_is_what_the_constructor_builds(self, case):
        """`aggregate` builds its result without rerunning the constructor's checks."""
        node = default_node_report("m-0001", generated_at_ms=1000)
        windows = [make_node_report("m-0001", [sr(at=t)], now=t + 1) for t in (1000, 2000, 3000)]
        children, kept = {"redelivery": ([node, node], (node,)),
                          "distinct windows": (windows, tuple(windows))}[case]
        agg = aggregate(children, LevelKind.INTERMEDIATE, "ch", now=4000)
        built = Report(LevelKind.INTERMEDIATE, "ch", 4000, kept)
        assert agg == built
        assert serialize(agg) == serialize(built)


class TestWireFormat:
    def test_single_line_and_attribute_order(self):
        report = make_node_report(
            "m-0001", [sr(metrics=[("cpu-user-pct", 37.25)])], now=1700000000000
        )
        text = serialize(report).decode()
        assert "\n" not in text
        assert text.startswith('<report kind="node" source="m-0001" generated-at-ms="1700000000000">')
        assert (
            '<service-report service="svc-00" source="m-0001" period-s="60.0"'
            ' generated-at-ms="1000">' in text
        )
        assert '<metric name="cpu-user-pct" value="37.25"/>' in text

    def test_serialize_is_deterministic(self):
        report = report_of_size_kb(5.0)
        assert serialize(report) == serialize(report)

    def test_serialize_injective_on_corpus(self):
        corpus = [default_node_report(f"m-{i:04d}", 1000 + i) for i in range(200)]
        corpus += [report_of_size_kb(kb) for kb in (0.5, 1.0, 5.0, 25.0)]
        blobs = {serialize(r) for r in corpus}
        assert len(blobs) == len(corpus)

    def test_attribute_values_are_escaped(self):
        tricky = 'm-"<&>\'-01'
        report = make_node_report(tricky, [sr(source=tricky)], now=1000)
        assert parse(serialize(report)) == report

    @pytest.mark.parametrize("value", ["a\tb", "a\nb", "a\rb", "a\r\nb", " \t "])
    def test_tab_newline_and_cr_survive_the_round_trip(self, value):
        report = make_node_report(value, [sr(service=value, source=value, metrics=[(value, 1.0)])], 1)
        assert b"\t" not in serialize(report) and b"\n" not in serialize(report)
        assert parse(serialize(report)) == report

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ufffe", "\uffff"])
    def test_characters_xml_cannot_carry_are_rejected(self, char):
        text = f"a{char}b"
        with pytest.raises(ValueError, match="XML 1.0"):
            sr(service=text)
        with pytest.raises(ValueError, match="XML 1.0"):
            sr(source=text)
        with pytest.raises(ValueError, match="XML 1.0"):
            sr(metrics=[(text, 1.0)])
        with pytest.raises(ValueError, match="XML 1.0"):
            Report(LevelKind.NODE, text, 1, (sr(source=text[0]),))


class TestParse:
    def test_roundtrip_of_default_report(self):
        report = default_node_report()
        assert parse(serialize(report)) == report

    def test_truncated_document(self):
        blob = serialize(default_node_report())[:-5]
        with pytest.raises(MalformedXmlError):
            parse(blob)

    def test_not_xml_at_all(self):
        with pytest.raises(MalformedXmlError):
            parse(b"definitely not xml")

    def test_unknown_root_element(self):
        with pytest.raises(SchemaViolationError):
            parse(b'<bulletin kind="node" source="m" generated-at-ms="1"/>')

    def test_unknown_kind(self):
        with pytest.raises(SchemaViolationError):
            parse(b'<report kind="galactic" source="m" generated-at-ms="1"/>')

    def test_childless_report(self):
        with pytest.raises(SchemaViolationError):
            parse(b'<report kind="node" source="m" generated-at-ms="1"></report>')

    def test_node_nested_in_node(self):
        inner = (
            '<report kind="node" source="m" generated-at-ms="1">'
            '<service-report service="s" source="m" period-s="1.0" generated-at-ms="1">'
            "</service-report></report>"
        )
        doc = f'<report kind="node" source="m" generated-at-ms="2">{inner}</report>'
        with pytest.raises(SchemaViolationError):
            parse(doc.encode())

    def test_service_report_inside_intermediate(self):
        doc = (
            '<report kind="intermediate" source="c" generated-at-ms="2">'
            '<service-report service="s" source="m" period-s="1.0" generated-at-ms="1"/>'
            "</report>"
        )
        with pytest.raises(SchemaViolationError):
            parse(doc.encode())

    def test_nested_system_report(self):
        inner = (
            '<report kind="system" source="root" generated-at-ms="1">'
            '<report kind="node" source="m" generated-at-ms="1">'
            '<service-report service="s" source="m" period-s="1.0" generated-at-ms="1"/>'
            "</report></report>"
        )
        doc = f'<report kind="system" source="r2" generated-at-ms="2">{inner}</report>'
        with pytest.raises(SchemaViolationError):
            parse(doc.encode())

    def test_missing_and_unknown_attributes(self):
        with pytest.raises(SchemaViolationError):
            parse(b'<report kind="node" generated-at-ms="1"/>')
        with pytest.raises(SchemaViolationError):
            parse(
                b'<report kind="node" source="m" generated-at-ms="1" color="red">'
                b'<service-report service="s" source="m" period-s="1.0" generated-at-ms="1"/>'
                b"</report>"
            )

    def test_non_integer_timestamp(self):
        with pytest.raises(SchemaViolationError):
            parse(
                b'<report kind="node" source="m" generated-at-ms="later">'
                b'<service-report service="s" source="m" period-s="1.0" generated-at-ms="1"/>'
                b"</report>"
            )

    @pytest.mark.parametrize(("bad", "message"), [
        ({"report_at": "soon"}, "<report> generated-at-ms='soon' is not an integer"),
        ({"service_at": "1.5"}, "<service-report> generated-at-ms='1.5' is not an integer"),
        ({"period": "fast"}, "<service-report> period-s='fast' is not a number"),
        ({"value": "high"}, "<metric> value='high' is not a number"),
    ], ids=["report-generated-at-ms", "service-generated-at-ms", "period-s", "metric-value"])
    def test_non_numeric_attribute_names_its_element_and_value(self, bad, message):
        """The tree walk names the element, the attribute and the value it could not convert."""
        doc = (  # one element per line: not canonical, so only the walk reads it
            '<report kind="node" source="m" generated-at-ms="{report_at}">\n'
            '<service-report service="s" source="m" period-s="{period}" generated-at-ms="{service_at}">\n'
            '<metric name="cpu" value="{value}"/>\n'
            "</service-report>\n</report>"
        ).format(**{"report_at": "1", "service_at": "1", "period": "1.0", "value": "1.0", **bad})
        assert report._parse_canonical(doc) is None
        for data in (doc, doc.encode()):
            with pytest.raises(SchemaViolationError) as raised:
                parse(data)
            assert str(raised.value) == message

    def test_stray_text_rejected(self):
        doc = (
            '<report kind="node" source="m" generated-at-ms="1">surprise'
            '<service-report service="s" source="m" period-s="1.0" generated-at-ms="1"/>'
            "</report>"
        )
        with pytest.raises(SchemaViolationError):
            parse(doc.encode())

    def test_nesting_beyond_the_recursion_limit_is_a_schema_violation(self):
        """Too deep is a `ReportError` on both parse paths and in serialize, not a crash."""
        doc = nested_document(1_200)
        with pytest.raises(SchemaViolationError, match="too deep"):
            report._parse_tree(doc)
        with pytest.raises(SchemaViolationError, match="too deep"):
            parse(doc.replace("><", ">\n<"))  # not canonical: only the walk reads it
        assert report._parse_canonical(doc) is None  # the scan defers past MAX_NESTING
        with pytest.raises(SchemaViolationError, match="too deep"):
            parse(doc)
        deep = default_node_report()
        for _ in range(1_200):  # built directly, past what parse accepts
            deep = Report(LevelKind.INTERMEDIATE, "ch", 1, (deep,))
        with pytest.raises(ReportError, match="too deep to serialize"):
            serialize(deep)
        assert list(iter_leaves(deep)) == list(default_node_report().children)

    def test_nesting_limit(self):
        """At `MAX_NESTING` reports every operation works; one more is a schema violation."""
        at_limit = parse(nested_document(report.MAX_NESTING - 1))
        assert hash(at_limit) == hash(parse(nested_document(report.MAX_NESTING - 1)))
        assert repr(at_limit).count("Report(level_kind=") == report.MAX_NESTING
        assert len(list(iter_leaves(at_limit))) == 1
        assert parse(serialize(at_limit)) == at_limit
        over = nested_document(report.MAX_NESTING)
        for doc in (over, over.replace("><", ">\n<")):
            for data in (doc, doc.encode()):
                with pytest.raises(SchemaViolationError, match="too deep"):
                    parse(data)

    def test_metric_must_be_empty(self):
        doc = (
            '<report kind="node" source="m" generated-at-ms="1">'
            '<service-report service="s" source="m" period-s="1.0" generated-at-ms="1">'
            '<metric name="cpu" value="1.0"><metric name="x" value="2.0"/></metric>'
            "</service-report></report>"
        )
        with pytest.raises(SchemaViolationError):
            parse(doc.encode())


class TestMeasure:
    def test_default_node_report_is_about_one_unit(self):
        size = measure(default_node_report())
        assert 512 - 64 <= size.bytes <= 512 + 64
        assert size.node_report_units == pytest.approx(1.0, rel=0.13)

    def test_default_size_holds_across_sources_and_clocks(self):
        for i in range(100):
            report = default_node_report(
                f"m-{i:04d}", 1_700_000_000_000 + i * 60_000, random.Random(i)
            )
            assert 448 <= measure(report).bytes <= 576

    def test_thirty_node_reports_measure_about_thirty_units(self):
        report = report_of_size_kb(15.0)
        assert len(report.children) == 30
        assert measure(report).node_report_units == pytest.approx(30.0, rel=0.15)

    def test_minimum_report_has_positive_units(self):
        tiny = make_node_report("m", [sr(source="m", metrics=())], now=1)
        assert measure(tiny).node_report_units > 0

    def test_empty_metrics_still_well_formed(self):
        tiny = make_node_report("m", [sr(source="m", metrics=())], now=1)
        assert parse(serialize(tiny)) == tiny


# --- property-based checks ---------------------------------------------------

_id_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.&<>\"' \t\n\ré\u2028\U0001f600",
    min_size=1,
    max_size=12,
)
_timestamps = st.integers(min_value=0, max_value=2**48)
_values = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _service_reports(draw, source=None):
    names = draw(st.lists(_id_text, min_size=0, max_size=4, unique=True))
    metrics = tuple((name, draw(_values)) for name in names)
    return ServiceReport(
        service_id=draw(_id_text),
        source_machine=source if source is not None else draw(_id_text),
        period_s=draw(st.floats(min_value=0.001, max_value=1e6)),
        generated_at_ms=draw(_timestamps),
        metrics=metrics,
    )


@st.composite
def _node_reports(draw):
    source = draw(_id_text)
    kids = draw(st.lists(_service_reports(source=source), min_size=1, max_size=4))
    return Report(LevelKind.NODE, source, draw(_timestamps), tuple(kids))


def _wrap(children: st.SearchStrategy) -> st.SearchStrategy:
    @st.composite
    def intermediates(draw):
        kids = draw(st.lists(children, min_size=1, max_size=3))
        return Report(LevelKind.INTERMEDIATE, draw(_id_text), draw(_timestamps), tuple(kids))

    return intermediates()


_report_trees = st.recursive(_node_reports(), _wrap, max_leaves=8)


@st.composite
def _any_reports(draw):
    tree = draw(_report_trees)
    if draw(st.booleans()):
        return Report(LevelKind.SYSTEM, draw(_id_text), draw(_timestamps), (tree,))
    return tree


class TestReportProperties:
    @given(_any_reports())
    def test_parse_inverts_serialize(self, report):
        assert parse(serialize(report)) == report

    @given(st.lists(_node_reports(), min_size=1, max_size=6))
    def test_aggregation_preserves_leaf_multiset(self, nodes):
        distinct = {(n.source, n.generated_at_ms): n for n in nodes}
        agg = aggregate(nodes, LevelKind.INTERMEDIATE, "ch", now=0)
        expected = sorted(
            (leaf.service_id, leaf.generated_at_ms)
            for n in distinct.values()
            for leaf in iter_leaves(n)
        )
        got = sorted((leaf.service_id, leaf.generated_at_ms) for leaf in iter_leaves(agg))
        assert got == expected

    @given(st.lists(_node_reports(), min_size=1, max_size=6))
    def test_dedupe_is_idempotent(self, nodes):
        once = aggregate(nodes, LevelKind.INTERMEDIATE, "ch", now=0)
        twice = aggregate(once.children, LevelKind.INTERMEDIATE, "ch", now=0)
        assert twice.children == once.children

    @given(st.lists(_report_trees, min_size=1, max_size=5))
    def test_parent_is_larger_than_any_child_and_sum_of_payloads(self, children):
        agg = aggregate(children, LevelKind.INTERMEDIATE, "ch", now=0)
        sizes = [measure(c).bytes for c in agg.children]
        total = measure(agg).bytes
        assert total > max(sizes)
        assert total >= sum(sizes)

    @given(st.integers(0, 2**31), _timestamps)
    def test_generator_is_deterministic_per_seed(self, seed, at):
        a = default_node_report("m-0001", at, random.Random(seed))
        b = default_node_report("m-0001", at, random.Random(seed))
        assert serialize(a) == serialize(b)


def canonical_service(service="s", source="m", period="1.0", metrics=("a",)):
    body = "".join(f'<metric name="{name}" value="1.5"/>' for name in metrics)
    return (f'<service-report service="{service}" source="{source}" period-s="{period}"'
            f' generated-at-ms="1">{body}</service-report>')


def canonical_report(kind, body, source="m"):
    return f'<report kind="{kind}" source="{source}" generated-at-ms="1">{body}</report>'


def in_intermediate(*services, source="m"):
    """A canonical intermediate report around one node report holding ``services``."""
    return canonical_report("intermediate", canonical_report("node", "".join(services), source), "ch")


#: Documents in the canonical form that each break one rule of the report constructors.
BROKEN_CANONICAL = {
    "empty-service-id": in_intermediate(canonical_service(service="")),
    "empty-service-source": in_intermediate(canonical_service(source="")),
    "empty-node-source": in_intermediate(canonical_service(), source=""),
    "empty-node-source-two-services": in_intermediate(canonical_service(), canonical_service("t"), source=""),
    "empty-report-source": canonical_report("intermediate", canonical_report("node", canonical_service()), ""),
    **{f"period-{period}": in_intermediate(canonical_service(period=period))
       for period in ("nan", "inf", "0.0", "-1.0")},
    "duplicate-metric": in_intermediate(canonical_service(metrics=("a", "b", "a"))),
    "duplicate-metric-two-services": in_intermediate(
        canonical_service("t"), canonical_service(metrics=("a", "a"))),
    "lone-surrogate": in_intermediate(canonical_service(service="s\ud800")),
    "service-under-intermediate": canonical_report("intermediate", canonical_service()),
    "report-in-node": canonical_report("node", canonical_report("node", canonical_service())),
    "report-after-service-in-node": canonical_report(
        "node", canonical_service() + canonical_report("node", canonical_service())),
    "nested-system": canonical_report(
        "intermediate", canonical_report("system", in_intermediate(canonical_service()))),
    "empty-report": canonical_report("intermediate", ""),
    "empty-node-report": canonical_report("intermediate", canonical_report("node", "")),
    "bare-service-report": canonical_service(),
}


class TestCanonicalScan:
    """`parse`'s regex scan against the ElementTree walk it sits in front of."""

    @pytest.mark.parametrize("doc", BROKEN_CANONICAL.values(), ids=BROKEN_CANONICAL.keys())
    def test_scan_defers_every_constructor_rule_to_the_tree_walk(self, doc):
        def raised(parser, data):
            try:
                parser(data)
            except Exception as exc:  # noqa: BLE001 - the class is what is compared
                return type(exc)
            return None

        variants = [doc] if "\ud800" in doc else [doc, doc.encode()]
        for data in variants:
            assert report._parse_canonical(data) is None
            assert raised(parse, data) is raised(report._parse_tree, data) is not None

    @pytest.mark.parametrize("doc", [
        in_intermediate(canonical_service(source="m\ud800")),
        canonical_report("intermediate", "\ud800" + canonical_report("node", canonical_service())),
    ], ids=["attribute", "text"])
    def test_lone_surrogate_in_str_is_malformed_xml(self, doc):
        assert report._parse_canonical(doc) is None
        with pytest.raises(MalformedXmlError):
            parse(doc)

    @staticmethod
    def assert_scan_agrees(blob: bytes) -> None:
        fast = report._parse_canonical(blob)  # must never raise
        if fast is not None:
            # serialize again: equality of NaN metric values would fail
            assert serialize(fast) == serialize(report._parse_tree(blob))

    @given(_any_reports())
    def test_scan_reads_what_serialize_writes_or_defers(self, tree):
        blob = serialize(tree)
        self.assert_scan_agrees(blob)
        self.assert_scan_agrees(blob.decode())
        if not any(c in blob for c in b"&\t\n\r"):
            assert report._parse_canonical(blob) == tree

    @settings(max_examples=300)
    @given(_any_reports(), st.lists(st.tuples(st.sampled_from("did"), st.integers(0), st.integers(0),
                                              st.integers(0), st.binary(min_size=1, max_size=3)),
                                    min_size=1, max_size=3))
    def test_scan_agrees_with_the_tree_walk_on_mutated_documents(self, tree, edits):
        blob = serialize(tree)
        for op, i, j, k, inserted in edits:
            i, j, k = (n % (len(blob) + 1) for n in (i, j, k))
            i, j = min(i, j), max(i, j)
            if op == "d":  # delete a slice
                blob = blob[:i] + blob[j:]
            elif op == "i":  # insert bytes
                blob = blob[:i] + inserted + blob[i:]
            else:  # duplicate a slice at another offset
                blob = blob[:k] + blob[i:j] + blob[k:]
            self.assert_scan_agrees(blob)

    def test_scan_handles_document_edges(self):
        blob = serialize(default_node_report())
        for edge in (b"", b" ", b"</report>", blob[:-9], blob + blob, blob + b" ", blob + b"x",
                     b"\xef\xbb\xbf" + blob, b"\xff" + blob, blob.replace(b'"node"', b'"system"')):
            self.assert_scan_agrees(edge)
        for raw in (b"\t", b"\n", b"\r\n", "\u0085".encode()):  # whitespace a parser may normalize
            self.assert_scan_agrees(blob.replace(b"m-0001", b"m-" + raw + b"0001"))

    @pytest.mark.parametrize(
        "original",
        [
            report_of_size_kb(0.5),
            report_of_size_kb(5.0),
            report_of_size_kb(50.0),
            default_node_report(),
            aggregate(
                [report_of_size_kb(5.0, f"ch-1-{i}") for i in range(3)], LevelKind.SYSTEM, "root", 1
            ),
            Report(LevelKind.NODE, "m-1", 2, (sr("a", "m-1"),)),
            Report(LevelKind.NODE, "m-1", 2, (sr("a", "m-1"), sr("b", "m-1"))),
            Report(LevelKind.INTERMEDIATE, "ch", 3, (
                Report(LevelKind.NODE, "m-1", 2, (sr("a", "m-1"), sr("b", "m-1"))),
                Report(LevelKind.NODE, "m-2", 2, (sr("a", "m-2"),)),
            )),
        ],
        ids=["0.5kb", "5kb", "50kb", "default-node", "system", "node-one-service", "node-two-services",
             "nodes-of-two-and-one-services"],
    )
    def test_reports_hiermon_writes_never_reach_element_tree(self, monkeypatch, original):
        def forbidden(*args, **kwargs):
            raise AssertionError("canonical input fell back to ElementTree")

        monkeypatch.setattr(ElementTree, "fromstring", forbidden)  # the module `_parse_tree` imports
        assert parse(serialize(original)) == original

    def test_non_canonical_document_goes_through_element_tree(self):
        doc = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<report generated-at-ms="5" source="ch&#38;1" kind="intermediate">\n'
            '  <report kind="node" generated-at-ms="4" source="m-1">\n'
            '    <service-report source="m-1" service="s&#38;0" generated-at-ms="3" period-s="2.0">\n'
            '      <metric value="1.5" name="cpu"/>\n'
            "    </service-report>\n"
            "  </report>\n"
            "</report>\n"
        ).encode()
        service = ServiceReport("s&0", "m-1", 2.0, 3, (("cpu", 1.5),))
        node = Report(LevelKind.NODE, "m-1", 4, (service,))
        assert report._parse_canonical(doc) is None
        assert parse(doc) == Report(LevelKind.INTERMEDIATE, "ch&1", 5, (node,))


def test_synthetic_service_report_has_eight_metrics():
    report = synthetic_service_report()
    assert len(report.metrics) == 8
    assert len({name for name, _ in report.metrics}) == 8


@given(st.text())
def test_attribute_escape_matches_saxutils(value):
    # quoteattr's own entity map: the quote, and tab, newline and CR as references
    entities = {'"': "&quot;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
    assert report._attr(value) == escape(value, entities)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter importing hiermon from ``src``; return its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_pulls_in_no_sax_or_url_modules():
    code = (
        "import sys, hiermon.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))"
    )
    assert run_fresh(code).strip() == "[]"


#: Modules a command loads only when it runs them.
DEFERRED = ("hiermon.sim", "hiermon.channel", "statistics", "xml.etree.ElementTree")


def test_each_command_loads_only_what_it_runs(tmp_path):
    code = f"""
import contextlib, io, json, sys
import hiermon.cli as cli
from hiermon import report
seen = {{}}

def step(name, action=None):
    if action is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            action()
    seen[name] = [m for m in {DEFERRED!r} if m in sys.modules]

def command(*argv):
    def call():
        assert cli.main(["--out", {str(tmp_path)!r}, *argv]) == 0, argv
    step(argv[0], call)

step("import")
command("analyze", "--preset", "three-level")
command("sweep", "--n-max", "500", "--step", "100")
step("parse", lambda: report.parse(report.serialize(report.report_of_size_kb(5.0))))
command("simulate", "--preset", "single-level", "--n-total", "5")
blob = report.serialize(report.default_node_report())
step("non-canonical parse", lambda: report.parse(b'<?xml version="1.0"?>' + blob))
print(json.dumps(seen))
"""
    assert json.loads(run_fresh(code)) == {
        "import": [],
        "analyze": [],
        "sweep": [],
        "parse": [],
        "simulate": ["hiermon.sim", "hiermon.channel"],
        "non-canonical parse": ["hiermon.sim", "hiermon.channel", "xml.etree.ElementTree"],
    }


def test_package_exports_load_lazily_as_their_home_objects():
    homes = {
        "hiermon.loadmodel": ["DEFAULT_COEFFICIENTS", "LoadCoefficients", "hierarchy_loads"],
        "hiermon.model": ["SATURATED", "HierarchyConfig", "LatencyBound", "machines_total"],
        "hiermon.sim": ["SimConfig", "SimTrace", "run"],
    }
    code = f"""
import importlib, json, sys
import hiermon
before = sorted(m for m in sys.modules if m.startswith("hiermon."))
homes = {homes!r}
same = {{name: getattr(hiermon, name) is getattr(importlib.import_module(home), name)
        for home, names in homes.items() for name in names}}
print(json.dumps([before, sorted(hiermon.__all__), same, sorted(set(hiermon.__all__) - set(dir(hiermon)))]))
"""
    before, exported, same, undir = json.loads(run_fresh(code))
    assert before == []
    assert exported == sorted([*same, "__version__"])
    assert all(same.values()), same
    assert undir == []


def test_scan_pattern_is_compiled_on_first_parse_not_at_import():
    code = (
        "import hiermon.cli, hiermon.report as r; before = r._token.cache_info().currsize; "
        "r.parse(r.serialize(r.default_node_report())); print(before, r._token.cache_info().currsize)"
    )
    assert run_fresh(code).split() == ["0", "1"]
