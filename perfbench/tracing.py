"""Spans around the calls into each cfmonoid module's public functions.

`Tracer.install` replaces each traced function in every cfmonoid module
namespace that bound it at import (for example `normal_form` in rewrite,
witness, cli and the package itself), so nested calls are recorded too. Spans
are (name, start, end, parent, op id) tuples kept in memory; counts are taken
from the arguments and results at the same boundaries and tallied after each
pass, so tallying costs no traced time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter

import oracle


# (module, function, span name, extractor of a count record or None); an
# extractor runs inside the caller's span, so it only keeps references
TARGETS = (
    ("rewrite", "critical_pairs", "rewrite.critical_pairs", lambda a, r: (a[0], r)),
    ("rewrite", "check_local_confluence", "rewrite.check_local_confluence", None),
    ("rewrite", "normal_form", "rewrite.normal_form", lambda a, r: len(a[0])),
    ("rewrite", "enumerate_normal_forms", "rewrite.enumerate_normal_forms", lambda a, r: len(r)),
    ("witness", "collapse", "witness.collapse", lambda a, r: len(r.steps)),
    ("witness", "unit_context", "witness.unit_context", None),
    ("witness", "verify_trace", "witness.verify_trace", None),
    ("witness", "format_trace", "witness.format_trace", None),
    ("witness", "parse_trace", "witness.parse_trace", None),
    ("presentation", "generate_presentation", "presentation.generate_presentation", lambda a, r: r),
    ("presentation", "presentation_to_json", "presentation.to_json", lambda a, r: len(r)),  # ASCII
    ("presentation", "presentation_from_json", "presentation.from_json", None),
    ("coloring", "build_coloring", "coloring.build_coloring", None),
    ("coloring", "check_conditions", "coloring.check_conditions", None),
    ("semigroup", "is_associative", "semigroup.is_associative", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_build", "cli.build", None),
    ("cli", "cmd_check_complete", "cli.check-complete", None),
    ("cli", "cmd_check_embed", "cli.check-embed", None),
    ("cli", "cmd_check_f", "cli.check-f", None),
    ("cli", "cmd_collapse", "cli.collapse", None),
    ("cli", "cmd_verify_trace", "cli.verify-trace", None),
    ("cli", "cmd_enumerate", "cli.enumerate", None),
)

# per-layer metric -> unit; the order is the order printed
PER_LAYER = {
    "rewrite.critical_pairs.s": "s",
    "rewrite.critical_pairs.pairs": "count",
    **{f"rewrite.critical_pairs.pairs.{fp}": "count" for fp in oracle.pair_counts(1)},
    "rewrite.critical_pairs.pairs_per_rule_pair": "ratio",
    "rewrite.check_local_confluence.self_s": "s",
    "rewrite.normal_form.s": "s",
    "rewrite.normal_form.calls": "count",
    "rewrite.normal_form.letters": "count",
    "rewrite.normal_form.letters_per_s": "1/s",
    "rewrite.enumerate_normal_forms.s": "s",
    "rewrite.enumerate_normal_forms.words": "count",
    "witness.collapse.self_s": "s",
    "witness.unit_context.s": "s",
    "witness.unit_context.calls": "count",
    "witness.verify_trace.self_s": "s",
    "witness.format_trace.s": "s",
    "witness.parse_trace.s": "s",
    "witness.trace_steps": "count",
    "presentation.generate_presentation.self_s": "s",
    "presentation.generate_presentation.rules": "count",
    **{f"presentation.generate_presentation.rules.{f}": "count" for f in oracle.rule_counts(1)},
    "presentation.to_json.s": "s",
    "presentation.to_json.bytes": "bytes",
    "presentation.from_json.s": "s",
    "coloring.build_coloring.s": "s",
    "coloring.check_conditions.s": "s",
    "semigroup.is_associative.s": "s",
    **{f"{name}.s": "s" for _, fn, name, _ in TARGETS if fn.startswith("cmd_")},
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.records = []  # (span name, count record)
        self.op_id = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, extract=None, op_id=None):
        """A traced fn; with op_id set, the span starts operation op_id and is a root."""
        spans, stack, records = self.spans, self._stack, self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if op_id is not None:
                self.op_id = op_id
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if extract is not None:
                records.append((name, extract(args, result)))
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "cfmonoid" or k.startswith("cfmonoid.")]
        for modname, fname, name, extract in TARGETS:
            fn = getattr(sys.modules[f"cfmonoid.{modname}"], fname)
            traced = self.wrap(name, fn, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, fn))

    def remove(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def take_pass(self):
        """Per-layer values of the spans recorded since the last call, and the spans."""
        spans, records = self.spans[:], self.records[:]
        self.spans.clear()
        self.records.clear()
        return (*layer_values(spans, records), spans)


def layer_values(spans, records):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1

    counts = Counter()
    rule_pairs = 0
    census = {}  # n -> pairs by family pair, per critical_pairs call at that n
    for name, rec in records:
        if name == "rewrite.critical_pairs":
            pres, pairs = rec
            rule_pairs += len(pres.rules) ** 2
            by_family = Counter(f"{cp.rule_left.family}-{cp.rule_right.family}" for cp in pairs)
            counts.update({f"rewrite.critical_pairs.pairs.{k}": v for k, v in by_family.items()})
            counts["rewrite.critical_pairs.pairs"] += len(pairs)
            census.setdefault(str(pres.n), []).append(dict(sorted(by_family.items())))
        elif name == "presentation.generate_presentation":
            by_family = Counter(r.family for r in rec.rules)
            counts["presentation.generate_presentation.rules"] += len(rec.rules)
            counts.update({f"presentation.generate_presentation.rules.{k}": v for k, v in by_family.items()})
        elif name == "rewrite.normal_form":
            counts["rewrite.normal_form.letters"] += rec
        elif name == "rewrite.enumerate_normal_forms":
            counts["rewrite.enumerate_normal_forms.words"] += rec
        elif name == "witness.collapse":
            counts["witness.trace_steps"] += rec
        elif name == "presentation.to_json":
            counts["presentation.to_json.bytes"] += rec

    nf_s = total["rewrite.normal_form"]
    values = {}
    for metric in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = total[stem]
        elif kind == "self_s" and stem == "cli.main":
            values[metric] = sum(v for k, v in own.items() if k.startswith("cli."))
        elif kind == "self_s":
            values[metric] = own[stem]
        elif kind == "calls":
            values[metric] = calls[stem]
        else:
            values[metric] = counts[metric]
    values["rewrite.critical_pairs.pairs_per_rule_pair"] = (
        counts["rewrite.critical_pairs.pairs"] / rule_pairs if rule_pairs else 0.0
    )
    values["rewrite.normal_form.letters_per_s"] = (
        counts["rewrite.normal_form.letters"] / nf_s if nf_s else 0.0
    )
    values["trace.overhead_s"] = 0.0  # filled in by the caller
    return values, census


def write_spans(path, passes):
    with gzip.open(path, "wt") as out:
        out.write("pass\top\tname\tstart\tend\tparent\n")
        for p, spans in enumerate(passes):
            for name, start, end, parent, op in spans:
                out.write(f"{p}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
