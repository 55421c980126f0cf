"""Command line front door: load graph-map documents, analyze, report.

A map document is JSON::

    {
      "name": "qe_rose",
      "vertices": ["v"],
      "edges": [{"name": "E1", "from": "v", "to": "v"}, ...],
      "images": {"E1": "E1", "E2": "E2 E1 E1", ...},
      "filtration": [["E1"], ["E2"], ...],
      "nielsen_paths": ["E2 E1 E2'"],
      "options": {"nielsen_bound": 24}
    }

``name``, ``filtration``, ``nielsen_paths`` and ``options`` are optional.
Edge words are space-separated oriented edges, a trailing apostrophe marking
the reversed orientation.  A declared filtration or Nielsen path list is
recomputed and compared, never trusted; a mismatch is an input error.

Commands read documents from file arguments (or stdin when none are given)
and write a report per document; ``gen`` writes a fresh document instead.
``--json`` reports and written documents come from ``_dumps``, whose text
is byte-identical to that of ``json.dumps`` at an indent of 2.
Exit status: 0 when every analysis succeeded and every verification passed,
2 when some verification failed, 1 on malformed input (position-tagged),
2 on a usage error, with argparse's message (no command at all prints the
help and exits 1), and 141 (128 + SIGPIPE, the status a shell shows for a
tool that signal ends) when standard output is closed before the report is
written out, as by ``| head``: the rest of the report is dropped and nothing
is printed.
All output is deterministic; ``--seed`` is accepted for interface stability
and ignored.

The command line is parsed once: when its first word names a subcommand,
the rest goes to that subcommand's parser alone, which sets every option
and reports its own errors and help.  Anything else (no subcommand first,
or words that subcommand does not take) falls back to the full parser, so
every usage, help and error text is argparse's own, as before.

``nielsen --json`` writes each linear family E w^k Ebar once, under
``families``: ``{"edge", "body", "height", "k", "composite_k"}``, with
``k`` the runs ``[first, last]`` of the exponents of its indivisible
members and ``composite_k`` those of its composite members.  Every member
of a family shares one flag and a family holds for every k >= 1, so one of
the two is ``[[1, null]]``, null standing for no last k, and the other is
empty.  ``paths`` holds the other period-one Nielsen paths, then the
periodic ones, each with its word, period, indivisible flag (null on a
periodic path) and height; ``axes`` holds each axis word with its member
edges and exponents.  Families come in the order their members k = 1 take
among the paths by (length, order key).  The text report lists the
indivisible Nielsen paths in that one order: an indivisible family's line,
"for every k >= 1", stands among the generic iNps' lines where its member
k = 1 sorts.
"""

import argparse
import functools
import json
import os
import sys

from . import coords as coords_mod
from .ct import check_ct
from .disintegrate import build_fa, disintegrate, verify_commute
from .errors import InputError, TrainTrackError
from .maps import GraphMap, filtration
from .maxrank import classify_max_rank, detect_fps, gen_type_c, gen_type_e, rank_audit
from .nielsen import axes, build_catalog, is_nielsen_path
from .paths import MarkedGraph, inverse


# -- documents -------------------------------------------------------------------


class MapDocument:
    """A parsed input file: the validated map plus its options."""

    def __init__(self, graph_map, name, options, source):
        self.graph_map = graph_map
        self.name = name
        self.options = options
        self.source = source


def _require(cond, msg, position):
    if not cond:
        raise InputError(msg, position=position)


def _require_bound(val, position):
    """The one rule for ``nielsen_bound``, from a document's options or
    from the command line."""
    _require(isinstance(val, int) and val > 0,
             "option 'nielsen_bound' must be a positive integer", position)


def _parse_word(g, text, place, key):
    """The path of an edge word; an error is placed at ``place % key``."""
    tokens = text.split()
    try:
        if tokens:
            return g.path(tokens)
        msg = "empty edge word"
    except TrainTrackError as exc:
        msg = str(exc)
    raise InputError(msg, position=place % key)


_FIELDS = frozenset(("name", "vertices", "edges", "images", "filtration",
                     "nielsen_paths", "options"))


def parse_document(text, source="<input>"):
    """Parse and validate one JSON document into a MapDocument."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            "not valid JSON: %s" % exc.msg,
            position="%s line %d column %d" % (source, exc.lineno, exc.colno),
        )
    except RecursionError:
        raise InputError("JSON nested too deeply to parse", position=source) from None
    _require(isinstance(raw, dict), "document must be a JSON object", source)
    # messages and positions are formatted only for a check that fails
    for key in raw:
        if key not in _FIELDS:
            raise InputError("unknown field %r" % key, position=source)
    for key in ("vertices", "edges", "images"):
        if key not in raw:
            raise InputError("missing field %r" % key, position=source)
    _require(isinstance(raw.get("name", ""), str), "name must be a string", "name")

    vertices = raw["vertices"]
    _require(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        "vertices must be a list of strings", "vertices",
    )
    _require(isinstance(raw["edges"], list), "edges must be a list", "edges")
    triples = []
    for i, e in enumerate(raw["edges"]):
        if not isinstance(e, dict):
            raise InputError("edge entries are objects", position="edges[%d]" % i)
        for key in ("name", "from", "to"):
            if not isinstance(e.get(key), str):
                raise InputError("edge needs string %r" % key, position="edges[%d]" % i)
        triples.append((e["name"], e["from"], e["to"]))
    try:
        g = MarkedGraph(vertices, triples)
    except TrainTrackError as exc:
        raise InputError(str(exc), position="edges")

    images = raw["images"]
    _require(isinstance(images, dict), "images must be an object", "images")
    paths = {}
    for name, word in images.items():
        if not (g.has_edge(name) and not name.endswith("'")):
            raise InputError("image given for unknown edge %r" % name,
                             position="images.%s" % name)
        if not isinstance(word, str):
            raise InputError("image must be an edge word string",
                             position="images.%s" % name)
        paths[name] = _parse_word(g, word, "images.%s", name)
    try:
        m = GraphMap(g, paths, name=raw.get("name"))
    except TrainTrackError as exc:
        raise InputError(str(exc), position="images")

    if "filtration" in raw:
        declared = raw["filtration"]
        pos = "filtration"
        _require(
            isinstance(declared, list)
            and all(isinstance(s, list) and all(isinstance(e, str) for e in s)
                    for s in declared),
            "filtration must be a list of edge-name lists", pos,
        )
        computed = [sorted(s.edges) for s in filtration(m)]
        if [sorted(s) for s in declared] != computed:
            raise InputError(
                "declared filtration does not match the computed one: %s"
                % " | ".join(" ".join(s) for s in computed),
                position=pos,
            )
    if "nielsen_paths" in raw:
        _require(isinstance(raw["nielsen_paths"], list),
                 "nielsen_paths must be a list of edge words", "nielsen_paths")
        for i, word in enumerate(raw["nielsen_paths"]):
            if not isinstance(word, str):
                raise InputError("entries are edge words",
                                 position="nielsen_paths[%d]" % i)
            p = _parse_word(g, word, "nielsen_paths[%d]", i)
            if not is_nielsen_path(m, p):
                raise InputError(
                    "declared path %s is not a Nielsen path of the map" % word,
                    position="nielsen_paths[%d]" % i,
                )

    options = {}
    if "options" in raw:
        _require(isinstance(raw["options"], dict), "options must be an object",
                 "options")
        for key, val in raw["options"].items():
            if key != "nielsen_bound":
                raise InputError("unknown option %r" % key, position="options")
            _require_bound(val, "options")
            options[key] = val

    name = raw.get("name") or source
    return MapDocument(m, name, options, source)


def document_from_map(m, name=None):
    """The canonical JSON-ready document of a map (insertion-ordered)."""
    g = m.graph
    doc = {}
    if name or m.name:
        doc["name"] = name or m.name
    doc["vertices"] = list(g.vertices)
    doc["edges"] = [
        {"name": e, "from": g.init(e), "to": g.term(e)} for e in g.edge_names
    ]
    doc["images"] = {e: " ".join(m.edge_images[e].edges) for e in g.edge_names}
    return doc


def document_text(doc):
    return _dumps(doc) + "\n"


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj, indent="\n"):
    """The text json.dumps writes for ``obj`` at an indent of 2, byte for
    byte, after the newline and indentation ``indent``.  Dicts with str keys,
    lists, tuples, str, int, bool and None are written here, by exact class;
    any other value (a float, a subclass, a dict with other keys) by json
    itself, whose text holds no raw newline."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    if t is list or t is tuple:
        if not obj:
            return "[]"
        items = [_quote(v) if type(v) is str else _dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _dumps(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(obj, indent="  ").replace("\n", indent)


# -- small helpers ---------------------------------------------------------------


def _parse_tuple(text, position):
    try:
        return tuple(int(x.strip()) for x in text.split(","))
    except ValueError:
        raise InputError("tuple entries must be integers, got %r" % text,
                         position=position)


def _check_length(a, dis, position):
    """A tuple names one exponent per almost invariant subgraph."""
    if len(a) != dis.M:
        raise InputError("expected %d entries, one per almost invariant subgraph, got %d"
                         % (dis.M, len(a)), position=position)


def _bound(args, doc):
    """The catalog bound: ``--nielsen-bound``, else the document's option,
    else None (the default bound)."""
    bound = getattr(args, "nielsen_bound", None)
    if bound is None:
        return doc.options.get("nielsen_bound")
    _require_bound(bound, "--nielsen-bound")
    return bound


def _catalog(m, args, doc):
    return build_catalog(m, _bound(args, doc))


# -- command implementations -----------------------------------------------------


def _cmd_check_ct(m, doc, args):
    report = check_ct(m, bound=_bound(args, doc))
    data = {
        "passed": report.passed,
        "clauses": {
            key: {"passed": c.passed, "failures": list(c.failures)}
            for key, c in report.clauses.items()
        },
        "caveats": list(report.caveats),
    }
    return report.passed, report.lines(), data


def _cmd_nielsen(m, doc, args):
    # a linear family is one line and one object, for every k >= 1, and no
    # member is written out as a word
    cat = _catalog(m, args, doc)
    g = m.graph

    def listed_at(edges):
        # where a path sorts in NielsenCatalog.entries
        return len(edges), [g.order_key[x] for x in edges]

    # (place of the member k = 1, E, b, height, composite flag)
    families = sorted(
        (listed_at((e,) + b + (g.inverse_of[e],)), e, b, height, composite)
        for e, (b, height, composite) in cat.families.items()
    )
    # a family's line stands where its member k = 1 sorts among the iNps
    inps = [
        (at, "  %s (%s)^k %s  for every k >= 1" % (e, " ".join(b), inverse(e)))
        for at, e, b, _, composite in families
        if not composite
    ] + [
        (listed_at(x.path.edges), "  %s  [height %d]" % (" ".join(x.path.edges), x.height))
        for x in cat.generic
        if x.indivisible
    ]

    lines = ["catalog bound %d (period bound %d)" % (cat.bound, cat.period_bound)]
    lines.append("fixed edges: %s" % (" ".join(cat.fixed_edges) or "none"))
    lines.append("indivisible Nielsen paths:")
    lines.extend(line for _, line in sorted(inps))
    if not inps:
        lines.append("  none within bound")
    for entry in cat.periodic:
        lines.append(
            "periodic: %s  [period %d]" % (" ".join(entry.path.edges), entry.period)
        )
    lines.append("axes:")
    axs = axes(m)
    for ax in axs:
        lines.append(
            "  (%s): %s"
            % (" ".join(ax.word.edges),
               ", ".join("%s exponent %d" % (e, d) for e, d in ax.members))
        )
    if not axs:
        lines.append("  none")
    caveats = ["search budget hit: %s" % note for note in cat.budgets_hit]
    lines.extend("note: " + note for note in caveats)
    data = {
        "bound": cat.bound,
        "fixed_edges": list(cat.fixed_edges),
        "families": [
            {"edge": e, "body": " ".join(b), "height": height,
             "k": [] if composite else [[1, None]],
             "composite_k": [[1, None]] if composite else []}
            for _, e, b, height, composite in families
        ],
        "paths": [
            {
                "word": " ".join(x.path.edges),
                "period": x.period,
                "indivisible": x.indivisible,
                "height": x.height,
            }
            for x in cat.generic + cat.periodic
        ],
        "axes": [
            {"word": " ".join(ax.word.edges),
             "members": [{"edge": e, "exponent": d} for e, d in ax.members]}
            for ax in axs
        ],
    }
    if caveats:
        data["caveats"] = caveats
    return True, lines, data


def _strata_entries(m):
    filt = filtration(m)
    out = []
    for i, s in enumerate(filt):
        entry = {"index": i + 1, "kind": s.kind, "edges": list(s.edges)}
        if s.kind == "NEG":
            entry["linear"] = bool(s.linear)
            if s.linear:
                entry["axis"] = " ".join(s.axis.edges)
                entry["exponent"] = s.exponent
        out.append(entry)
    return out


def _cmd_strata(m, doc, args):
    entries = _strata_entries(m)
    lines = ["%d strata" % len(entries)]
    for e in entries:
        label = e["kind"]
        if e["kind"] == "NEG":
            label += " linear" if e["linear"] else " non-linear"
        line = "  %d. %s {%s}" % (e["index"], label, " ".join(e["edges"]))
        if e.get("axis") is not None:
            line += "  twisting (%s)^%d" % (e["axis"], e["exponent"])
        lines.append(line)
    return True, lines, {"strata": entries}


def _cmd_disintegrate(m, doc, args):
    dis = disintegrate(m, _catalog(m, args, doc))
    lines = ["M=%d classes" % dis.M]
    for i, (cls, sub) in enumerate(zip(dis.partition.classes, dis.partition.subgraphs)):
        lines.append(
            "  X_%d = {%s}  (strata %s)"
            % (i + 1, " ".join(sorted(sub)), " ".join(str(s + 1) for s in cls))
        )
    lines.append("relations (%d):" % len(dis.relations))
    for rel in dis.relations:
        lines.append("  %s" % (rel,))
    lines.append("lattice rank %d in Z^%d, basis:" % (dis.rank, dis.M))
    for vec in dis.lattice.basis:
        lines.append("  (%s)" % ", ".join(str(x) for x in vec))
    if not dis.lattice.basis:
        lines.append("  (empty)")
    data = {
        "M": dis.M,
        "classes": [sorted(sub) for sub in dis.partition.subgraphs],
        "relations": [rel.row(dis.M) for rel in dis.relations],
        "rank": dis.rank,
        "basis": [list(v) for v in dis.lattice.basis],
    }
    return True, lines, data


def _cmd_rank(m, doc, args):
    report = coords_mod.rank_report(m, disintegrate(m, _catalog(m, args, doc)))
    data = {
        "M": report.M,
        "K": report.K,
        "relations": report.relations,
        "rank": report.rank,
        "observed": report.observed,
        "injective": report.injective,
    }
    return True, report.lines(), data


def _cmd_fa(m, doc, args):
    a = _parse_tuple(args.tuple, "--tuple")
    dis = disintegrate(m, _catalog(m, args, doc))
    _check_length(a, dis, "--tuple")
    fa = build_fa(m, a, dis)
    if args.emit_document:
        name = "%s_fa_%s" % (m.name or "map", "_".join(str(x) for x in a))
        fa_doc = document_from_map(fa, name=name)
        return True, document_text(fa_doc).splitlines(), {"document": fa_doc}
    images = {e: " ".join(fa.edge_images[e].edges) for e in fa.graph.edge_names}
    lines = ["f_a for a=(%s):" % ", ".join(str(x) for x in a)]
    lines.extend("  %s -> %s" % (e, images[e]) for e in fa.graph.edge_names)
    return True, lines, {"tuple": list(a), "images": images}


def _cmd_verify_commute(m, doc, args):
    a = _parse_tuple(args.a, "--a")
    b = _parse_tuple(args.b, "--b")
    dis = disintegrate(m, _catalog(m, args, doc))
    _check_length(a, dis, "--a")
    _check_length(b, dis, "--b")
    ok = verify_commute(m, a, b, dis)
    lines = [
        "f_a f_b = f_b f_a = f_(a+b) for a=(%s), b=(%s): %s"
        % (", ".join(str(x) for x in a), ", ".join(str(x) for x in b),
           "pass" if ok else "FAIL")
    ]
    return ok, lines, {"a": list(a), "b": list(b), "commute": ok}


def _cmd_coords(m, doc, args):
    dis = disintegrate(m, _catalog(m, args, doc))
    cs = coords_mod.coordinate_system(m, dis)
    lines = cs.lines()
    data = {
        "K": cs.K,
        "coordinates": [c.describe() for c in cs.coordinates],
    }
    if args.tuple is not None:
        a = _parse_tuple(args.tuple, "--tuple")
        _check_length(a, dis, "--tuple")
        vec = coords_mod.evaluate(cs, dis.partition, a)
        lines.append("coordinates of f_a, a=(%s):" % ", ".join(str(x) for x in a))
        lines.extend(vec.lines())
        data["tuple"] = list(a)
        data["vector"] = list(vec.integer_vector())
    return True, lines, data


def _cmd_fps(m, doc, args):
    witnesses = detect_fps(m)
    lines = []
    for w in witnesses:
        lines.extend(w.lines())
    if not witnesses:
        lines.append("no FPS subgraphs found")
    data = {
        "witnesses": [
            {
                "kind": w.kind,
                "below": w.l,
                "strata": list(w.strata),
                "shape": w.shape,
                "eg_edges": list(w.eg_edges),
                "chi_drop": w.chi_drop,
                "linear": [
                    {"edge": e, "exponent": d, "vertex": v} for e, d, v in w.linear
                ],
            }
            for w in witnesses
        ]
    }
    return True, lines, data


def _cmd_classify(m, doc, args):
    report = classify_max_rank(m, args.mode, _catalog(m, args, doc))
    data = {
        "mode": report.mode,
        "rank": report.rank,
        "target": report.target,
        "ok": report.ok,
        "base": list(report.base) if report.matched else None,
        "stages": [[s[0], s[1]] for s in report.stages],
        "order": list(report.order) if report.order is not None else None,
        "obstruction": report.obstruction,
    }
    return report.ok, report.lines(), data


def _cmd_audit(m, doc, args):
    audit = rank_audit(m, _catalog(m, args, doc))
    data = {
        "order": list(audit.order) if audit.order is not None else None,
        "ranks": list(audit.ranks),
        "grouping": list(audit.grouping),
        "passed": audit.passed,
        "stages": [
            {
                "from": s.lo,
                "to": s.hi,
                "delta_r": s.delta_r,
                "delta_chi": s.delta_chi,
                "delta": s.delta,
                "equality": s.equality,
                "case": s.case,
                "ok": s.ok,
            }
            for s in audit.stages
        ],
    }
    return audit.passed, audit.lines(), data


_KIND_COLOR = {
    "fixed": "black",
    "zero": "gray",
    "NEG linear": "blue",
    "NEG non-linear": "darkorchid",
    "EG": "red",
}


def export_dot(m, name=None):
    """DOT digraph with edges colored by stratum classification."""
    filt = filtration(m)
    g = m.graph
    out = ["digraph \"%s\" {" % (name or m.name or "map")]
    out.append("  node [shape=circle fontsize=10];")
    for v in g.vertices:
        out.append("  \"%s\";" % v)
    for e in g.edge_names:
        i = filt.level(e)
        s = filt[i]
        if s.kind == "NEG":
            kind = "NEG linear" if s.linear else "NEG non-linear"
        else:
            kind = s.kind
        if kind == "NEG linear":
            label = "%s [%d: NEG linear ^%d]" % (e, i + 1, s.exponent)
        else:
            label = "%s [%d: %s]" % (e, i + 1, kind)
        out.append(
            "  \"%s\" -> \"%s\" [label=\"%s\" color=%s];"
            % (g.init(e), g.term(e), label, _KIND_COLOR[kind])
        )
    out.append("}")
    return "\n".join(out)


def _cmd_export_dot(m, doc, args):
    text = export_dot(m, name=doc.name if doc.name != doc.source else None)
    return True, text.splitlines(), {"dot": text}


_DISPATCH = {
    "check-ct": _cmd_check_ct,
    "nielsen": _cmd_nielsen,
    "strata": _cmd_strata,
    "disintegrate": _cmd_disintegrate,
    "rank": _cmd_rank,
    "fa": _cmd_fa,
    "verify-commute": _cmd_verify_commute,
    "coords": _cmd_coords,
    "fps": _cmd_fps,
    "classify": _cmd_classify,
    "audit": _cmd_audit,
    "export-dot": _cmd_export_dot,
}


# -- argument parsing -------------------------------------------------------------


def _build_parser():
    """The argument parser, built on first use and shared by later calls."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """The argument parser and its subcommand parsers by name, built on
    first use and shared by later calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("files", nargs="*", metavar="FILE",
                        help="map document files (default: stdin)")
    common.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
    common.add_argument("--nielsen-bound", type=int, dest="nielsen_bound",
                        metavar="N", help="Nielsen path search length bound")
    common.add_argument("--seed", type=int,
                        help="accepted and ignored; output is deterministic")
    common.add_argument("--jobs", type=int, default=1, metavar="J",
                        help="analyze multiple input files in parallel")

    parser = argparse.ArgumentParser(
        prog="traintrack",
        description="analyze self maps of marked graphs: structure checks, "
        "disintegration, lattice rank, maximal-rank classification",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("check-ct", parents=[common],
                   help="verify the structural conditions clause by clause")
    sub.add_parser("nielsen", parents=[common],
                   help="list the Nielsen path catalog and twist axes")
    sub.add_parser("strata", parents=[common],
                   help="print the maximal filtration with classifications")
    sub.add_parser("disintegrate", parents=[common],
                   help="partition, admissibility relations and lattice basis")
    sub.add_parser("rank", parents=[common],
                   help="lattice rank summary (M, relations, rank)")

    p = sub.add_parser("fa", parents=[common],
                       help="build the map f_a for an admissible tuple")
    p.add_argument("--tuple", required=True, metavar="a1,a2,...")
    p.add_argument("--emit-document", action="store_true",
                   help="print f_a as a loadable map document")

    p = sub.add_parser("verify-commute", parents=[common],
                       help="check f_a f_b = f_b f_a = f_(a+b)")
    p.add_argument("--a", required=True, metavar="a1,a2,...")
    p.add_argument("--b", required=True, metavar="b1,b2,...")

    p = sub.add_parser("coords", parents=[common],
                       help="coordinate system; optionally evaluate a tuple")
    p.add_argument("--tuple", metavar="a1,a2,...",
                   help="evaluate f_a at this tuple; write one with a negative "
                   "first entry as --tuple=-1,2")

    sub.add_parser("fps", parents=[common],
                   help="detect partial and full FPS subgraphs")

    p = sub.add_parser("classify", parents=[common],
                       help="match a maximal-rank map against the standard shapes")
    p.add_argument("--mode", choices=("general", "ia"), default="general")

    sub.add_parser("audit", parents=[common],
                   help="stage-by-stage Euler bound audit of the rank sequence")

    p = sub.add_parser("gen",
                       help="generate a standard twist family document")
    p.add_argument("family", choices=("type-e", "type-c"))
    p.add_argument("--n", type=int, required=True, help="rank of the free group")
    p.add_argument("--word", metavar="WORD",
                   help="twisting word for type-c (default: E1 E2 E1' E2')")
    p.add_argument("--generator", type=int, metavar="I",
                   help="emit the I-th single-twist generator instead of the "
                   "generic member (1-based)")
    p.add_argument("--json", action="store_true",
                   help="no effect; the document is already JSON")
    p.add_argument("--seed", type=int, help="accepted and ignored")

    sub.add_parser("export-dot", parents=[common],
                   help="DOT export with strata colored by classification")
    return parser, sub.choices


def _parse_args(argv):
    """The namespace of ``argv``, parsed once by the subcommand's own parser
    when ``argv[0]`` names one and it leaves nothing over; otherwise by the
    full parser, as the fallback that words every other outcome."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def _run_gen(args):
    if args.family == "type-e":
        if args.word is not None:
            raise InputError("--word only applies to type-c", position="--word")
        fam = gen_type_e(args.n)
    else:
        word = args.word.split() if args.word is not None else None
        fam = gen_type_c(args.n, word)
    if args.generator is not None:
        if not 1 <= args.generator <= len(fam.generators):
            raise InputError(
                "family has %d generators, asked for %d"
                % (len(fam.generators), args.generator),
                position="--generator",
            )
        m = fam.generators[args.generator - 1]
    else:
        m = fam.generic
    return document_text(document_from_map(m))


def _analyze_text(text, source, args):
    """Report for one document: (exit code, output text)."""
    try:
        doc = parse_document(text, source)
        ok, lines, data = _DISPATCH[args.command](doc.graph_map, doc, args)
    except InputError as exc:
        where = " (at %s)" % exc.position if exc.position else ""
        return 1, "error: %s%s" % (exc, where)
    except TrainTrackError as exc:
        return 2, "verification error: %s" % exc
    if args.json:
        payload = {"command": args.command, "name": doc.name, "ok": ok}
        payload.update(data)
        out = _dumps(payload)
    else:
        out = "\n".join(lines)
    return (0 if ok else 2), out


def _analyze_file(path, args):
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        return 1, "error: cannot read %s: %s" % (path, exc)
    except UnicodeDecodeError as exc:
        return 1, "error: document is not UTF-8 text: %s (at %s byte %d)" % (
            exc.reason, source, exc.start)
    return _analyze_text(text, source, args)


def _worker(item):
    path, args = item
    return _analyze_file(path, args)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.command is None:
        _build_parser().print_help()
        return 1
    if args.command == "gen":
        try:
            text = _run_gen(args)
        except InputError as exc:
            where = " (at %s)" % exc.position if exc.position else ""
            print("error: %s%s" % (exc, where), file=sys.stderr)
            return 1
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            return _closed_stdout()
        return 0

    files = args.files or ["-"]
    if args.jobs > 1 and len(files) > 1 and "-" not in files:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_worker, [(p, args) for p in files]))
    else:
        results = [_analyze_file(p, args) for p in files]

    worst = 0
    try:
        for path, (code, out) in zip(files, results):
            if len(files) > 1:
                print("-- %s" % path)
            print(out, file=sys.stderr if code == 1 else sys.stdout)
            if code == 1:
                worst = 1
            elif code == 2 and worst == 0:
                worst = 2
        sys.stdout.flush()
    except BrokenPipeError:
        return _closed_stdout()
    return worst


CLOSED_STDOUT = 141


def _closed_stdout():
    """The exit status for a reader that closed standard output early.  The
    unwritten rest is dropped, and standard output is pointed at the null
    device so that the flush at interpreter exit cannot fail again."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)
    return CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
