"""Command line front end.

Three subcommands: `accordion` builds the accordion complex of a dissection,
`silting` builds the 2-term silting complex of a gentle quiver (or of the
quiver of a dissection), `verify` runs the isomorphism checks, one instance
or exhaustively over a polygon.  Identical inputs produce byte-identical
outputs; exit codes are 0 pass, 1 verification failure, 2 input error
(including unreadable files, files that are not UTF-8 and invalid JSON),
3 unsupported algebra, 4 internal invariant broken (every other package
error).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .accordion import accordion_complex
from .complexes import LabeledComplex, complex_text, dual_graph, exchange_graph_dot
from .errors import AccordionTauError, EmptySubsetError, InputError, UnsupportedAlgebraError
from .geometry import Dissection, all_dissections, validate_dissection
from .quiver import GentleQuiver, quiver_from_json, quiver_of_dissection, vertex_label
from .rigidity import silting_complex
from .verify import (
    DRIVERS,
    additivity_spotcheck,
    verify_idempotent_reduction,
    verify_main,
    verify_nested,
)

DEFAULT_MAX_M = 9


def max_m_cap() -> int:
    raw = os.environ.get("ACCORDION_TAU_MAX_M")
    if raw is None:
        return DEFAULT_MAX_M
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"ACCORDION_TAU_MAX_M must be an integer, got {raw!r}") from None


def _check_cap(m: int):
    cap = max_m_cap()
    if m > cap:
        raise InputError(f"m={m} exceeds the safety cap {cap} (set ACCORDION_TAU_MAX_M)")


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Inline diagonal syntax: `0-2,0-3,0-4`."""
    pairs = []
    for token in text.split(","):
        parts = token.strip().split("-")
        if len(parts) != 2:
            raise InputError(f"cannot parse diagonal {token!r}, expected i-j")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(f"cannot parse diagonal {token!r}, expected i-j") from None
    return pairs


def _read_json(path: str):
    """The JSON value in a UTF-8 file; undecodable bytes, invalid JSON, an
    integer too long to convert and nesting too deep to parse are all
    InputErrors."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc


def load_dissection(config: argparse.Namespace) -> Dissection:
    inline = config.m is not None or config.diagonals is not None
    if config.input and inline:
        raise InputError("give either --input or --m/--diagonals, not both")
    if config.input:
        data = _read_json(config.input)
        try:
            m, diagonals = data["m"], data["diagonals"]
            if not isinstance(diagonals, list):
                raise InputError(
                    f"malformed dissection JSON: diagonals must be a list, got {diagonals!r}"
                )
            pairs = [tuple(p) for p in diagonals]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed dissection JSON: {exc}") from exc
        if isinstance(m, bool) or not isinstance(m, int):
            raise InputError(f"m must be an integer, got {m!r}")
    elif config.m is not None:
        m = config.m
        pairs = parse_pairs(config.diagonals) if config.diagonals else []
    else:
        raise InputError("no dissection given (use --m/--diagonals or --input)")
    _check_cap(m)
    return validate_dissection(m, pairs)


def load_quiver(config: argparse.Namespace) -> GentleQuiver:
    """The quiver from --quiver, or else the quiver of the dissection input."""
    if not config.quiver:
        return quiver_of_dissection(load_dissection(config))
    if config.m is not None or config.diagonals is not None or config.input:
        raise InputError("give either --quiver or a dissection, not both")
    return quiver_from_json(_read_json(config.quiver))


def resolve_subset(q: GentleQuiver, text: str | None) -> tuple:
    if not text:
        raise EmptySubsetError("--j is required and must be nonempty")
    by_label = {vertex_label(v): v for v in q.vertices}
    subset = []
    for token in text.split(","):
        token = token.strip()
        if token not in by_label:
            raise InputError(
                f"unknown vertex {token!r}; choose from {sorted(by_label)}"
            )
        if by_label[token] in subset:
            raise InputError(f"vertex {token!r} is named twice in --j")
        subset.append(by_label[token])
    return tuple(subset)


def emit(config: argparse.Namespace, payload: str) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_complex(
    config: argparse.Namespace, header_key: str, header_json: dict, cx: LabeledComplex
) -> int:
    """Render a complex and its dual graph; json output leads with the input."""
    graph = dual_graph(cx)
    if config.fmt == "dot":
        emit(config, exchange_graph_dot(graph, cx))
    elif config.fmt == "text":
        emit(
            config,
            complex_text(cx)
            + f"dual graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges\n",
        )
    else:
        emit(
            config,
            _json_dump(
                {
                    header_key: header_json,
                    "complex": cx.to_json(),
                    "dual_graph": graph.to_json(),
                }
            ),
        )
    return 0


def cmd_accordion(config: argparse.Namespace) -> int:
    d = load_dissection(config)
    return _emit_complex(config, "dissection", d.to_json(), accordion_complex(d))


def cmd_silting(config: argparse.Namespace) -> int:
    q = load_quiver(config)
    return _emit_complex(config, "quiver", q.to_json(), silting_complex(q))


# the optional verify flags each mode reads, besides --theorem, --format and --out
VERIFY_READS = {
    "exhaustive": {"--seed"},
    "main": {"--m", "--diagonals", "--input", "--seed"},
    "nested": {"--m", "--diagonals", "--input", "--sub-diagonals"},
    "idempotent": {"--m", "--diagonals", "--input", "--quiver", "--j"},
}


def _reject_unread_flags(config: argparse.Namespace, mode: str, who: str) -> None:
    """An InputError naming the first given flag that mode does not read."""
    for dest in ("m", "diagonals", "input", "quiver", "j", "sub_diagonals", "seed"):
        flag = "--" + dest.replace("_", "-")
        if getattr(config, dest) is not None and flag not in VERIFY_READS[mode]:
            raise InputError(f"{who} takes no {flag}")


def _verify_exhaustive(config: argparse.Namespace) -> tuple[dict, bool]:
    _reject_unread_flags(config, "exhaustive", "--exhaustive runs every dissection, so it")
    m = config.exhaustive
    if m < 4:
        raise InputError(
            f"--exhaustive needs M >= 4, got {m}: smaller polygons have no diagonals"
        )
    _check_cap(m)
    names = list(DRIVERS) if config.theorem == "all" else [config.theorem]
    summaries = [DRIVERS[name](m, structural=False) for name in names]
    report = {"summaries": [s.to_json() for s in summaries]}
    ok = all(s.ok for s in summaries)
    if config.seed is not None:
        rng = random.Random(config.seed)
        pool = all_dissections(m)
        picks = rng.sample(pool, min(3, len(pool)))
        failures = []
        for d in picks:
            failures.extend(additivity_spotcheck(quiver_of_dissection(d), config.seed))
        report["spot_checks"] = {"instances": len(picks), "failures": failures}
        ok = ok and not failures
    report["status"] = "pass" if ok else "fail"
    return report, ok


def _verify_single(config: argparse.Namespace) -> tuple[dict, bool]:
    if config.theorem in ("all", "consistency"):
        raise InputError(f"--theorem {config.theorem} needs --exhaustive")
    _reject_unread_flags(config, config.theorem, f"--theorem {config.theorem}")
    if config.theorem == "main":
        d = load_dissection(config)
        iso = verify_main(d)
        report = {"theorem": "main", "instance": d.to_json(), "report": iso.to_json()}
        ok = iso.passed
        if config.seed is not None:
            failures = additivity_spotcheck(quiver_of_dissection(d), config.seed)
            report["spot_checks"] = {"failures": failures}
            ok = ok and not failures
    elif config.theorem == "nested":
        big = load_dissection(config)
        if not config.sub_diagonals:
            raise InputError("--theorem nested needs --sub-diagonals")
        d = validate_dissection(big.cycle.m, parse_pairs(config.sub_diagonals))
        iso = verify_nested(d, big)
        report = {
            "theorem": "nested",
            "instance": {"ambient": big.to_json(), "sub": d.to_json()},
            "report": iso.to_json(),
        }
        ok = iso.passed
    else:
        q = load_quiver(config)
        J = resolve_subset(q, config.j)
        iso = verify_idempotent_reduction(q, J)
        report = {
            "theorem": "idempotent",
            "instance": {"quiver": q.to_json(), "j": [vertex_label(v) for v in J]},
            "report": iso.to_json(),
        }
        ok = iso.passed
    report["status"] = "pass" if ok else "fail"
    return report, ok


def cmd_verify(config: argparse.Namespace) -> int:
    if config.fmt == "dot":
        raise InputError("verify has no dot output; use json or text")
    if config.exhaustive is not None:
        report, ok = _verify_exhaustive(config)
    else:
        report, ok = _verify_single(config)
    if config.fmt == "text":
        lines = [f"status: {report['status']}"]
        for s in report.get("summaries", []):
            lines.append(
                f"  {s['theorem']}: {s['passed']}/{s['checked']} passed"
            )
            lines.extend(f"    {msg}" for msg in s["failures"][:10])
        if "report" in report:
            lines.extend(f"  {msg}" for msg in report["report"]["failures"])
        for msg in report.get("spot_checks", {}).get("failures", []):
            lines.append(f"  spot check: {msg}")
        emit(config, "\n".join(lines) + "\n")
    else:
        emit(config, _json_dump(report))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accordion-tau",
        description="Accordion complexes of polygon dissections vs 2-term "
        "silting complexes of gentle algebras, compared through g-vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--m", type=int, help="number of white vertices")
    shared.add_argument("--diagonals", help="inline diagonals, e.g. 0-2,0-3,0-4")
    shared.add_argument("--input", help="dissection JSON file")
    shared.add_argument(
        "--format",
        dest="fmt",
        choices=["json", "dot", "text"],
        default="json",
    )
    shared.add_argument("--out", help="write output to this file")

    sub.add_parser(
        "accordion", parents=[shared], help="accordion complex of a dissection"
    )

    p_silt = sub.add_parser(
        "silting", parents=[shared], help="silting complex of a gentle quiver"
    )
    p_silt.add_argument("--quiver", help="quiver JSON file")

    p_ver = sub.add_parser("verify", parents=[shared], help="run theorem checks")
    p_ver.add_argument("--quiver", help="quiver JSON file")
    p_ver.add_argument(
        "--theorem",
        choices=[*DRIVERS, "all"],
        default="main",
    )
    p_ver.add_argument(
        "--exhaustive",
        type=int,
        metavar="M",
        help="run over every nonempty dissection of the M-gon (M >= 4)",
    )
    p_ver.add_argument("--sub-diagonals", help="nested check: the smaller dissection")
    p_ver.add_argument("--j", help="idempotent check: vertex subset, e.g. 0-2,0-4")
    p_ver.add_argument("--seed", type=int, help="seed for additivity spot-checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "accordion": cmd_accordion,
        "silting": cmd_silting,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AccordionTauError as exc:
        # every other package error is a broken invariant: an impure
        # complex, mismatched labels or algebras, a size limit
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
