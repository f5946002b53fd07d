"""Command-line front end.

Subcommands: ``constant``, ``product``, ``restrict``, ``verify``,
``trace``, ``info``.  Groups are selected with ``--group``, taking either
a named type ("A3", "B2", ...) or a path to a JSON file containing
``{"cartan": [[...], ...]}`` (or just a type label).

Elements are written either in one-line permutation notation (type A
only: a digit string like ``2413`` for n <= 9, or a comma-separated list
covering 1..n), as words in the simple reflections (``s1 s3 s2``, or bare
indices like ``1 3 2`` when they do not form a permutation), or ``e`` for
the identity.

Exit codes are part of the contract: 0 success, 2 usage errors (a
``ValueError`` only while reading the group, the elements or ``--first-r``),
3 engine mismatches, 4 exact-division failures or violated internal
invariants (a ``ValueError`` raised by a computation among them).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from pathlib import Path

from . import billey, gkm, oracle, recurrence
from .errors import (
    EngineMismatchError,
    NonzeroResidualError,
    NotDivisibleError,
    SchubertError,
    UnknownTypeError,
)
from .polyring import Polynomial, poly_from_json, poly_to_json, render
from .rootsys import (
    RootSystem, WeylElement, _canonical_key, build, named, perm_to_element, word_to_element,
)

__all__ = ["main"]

USAGE_EXIT = 2
MISMATCH_EXIT = 3
INVARIANT_EXIT = 4


class UsageError(Exception):
    pass


def _read_input(fn, *args):
    """``fn(*args)`` on the user's input, where a ``ValueError`` is a usage error.

    Only the group, the elements and ``trace --first-r`` are read this way;
    a ``ValueError`` from a computation is an internal invariant failure.
    """
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_group(source: str) -> RootSystem:
    path = Path(source)
    if path.is_file():
        text = path.read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = text.strip().strip('"')
        if isinstance(data, dict):
            if "cartan" not in data:
                raise UsageError(f"{source}: JSON group file must contain a 'cartan' key")
            return build(data["cartan"], type_label=data.get("label"))
        if isinstance(data, str):
            return named(data)
        raise UsageError(f"{source}: unsupported group file contents")
    try:
        return named(source)
    except UnknownTypeError as exc:
        raise UsageError(str(exc)) from None


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    s = text.strip()
    if not s:
        raise UsageError("empty element")
    if s in ("e", "id", "identity"):
        return rs.identity
    n = rs.rank + 1
    if s.isdigit() and rs.one_line_labels and len(s) == n:
        digits = [int(c) for c in s]
        if sorted(digits) == list(range(1, n + 1)):
            return perm_to_element(rs, digits)
    tokens = s.replace("*", " ").replace(",", " ").split()
    if all(t.isdigit() for t in tokens):
        ints = [int(t) for t in tokens]
        if rs.is_type_a and len(ints) == n and sorted(ints) == list(range(1, n + 1)):
            return perm_to_element(rs, ints)
        if all(1 <= i <= rs.rank for i in ints):
            return word_to_element(rs, ints)
        raise UsageError(f"{text!r} is neither a permutation of 1..{n} nor a word in s1..s{rs.rank}")
    if all(t.startswith("s") and t[1:].isdigit() for t in tokens):
        ints = [int(t[1:]) for t in tokens]
        if not all(1 <= i <= rs.rank for i in ints):
            raise UsageError(f"simple index out of range in {text!r}")
        return word_to_element(rs, ints)
    raise UsageError(f"cannot parse element {text!r}")


def _default_basis(rs: RootSystem, basis: str | None) -> str:
    if basis is None:
        return "y" if rs.is_type_a else "alpha"
    if basis == "y" and not rs.is_type_a:
        raise UsageError("the y basis is only available for type A groups")
    return basis


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing never changes it)."""
    ap = argparse.ArgumentParser(
        prog="schubertcalc",
        description="Equivariant Schubert structure constants for finite Weyl groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, elems):
        p.add_argument("--group", required=True, help="named type (A3, B2, ...) or Cartan JSON file")
        for e in elems:
            p.add_argument(f"--{e}", required=True)
        p.add_argument("--output", choices=["text", "json"], default="text")
        p.add_argument("--basis", choices=["alpha", "y"], default=None)

    p = sub.add_parser("constant", help="one structure constant c_{wv}^u")
    add_common(p, ["w", "v", "u"])
    p.add_argument("--engine", choices=["recurrence", "oracle", "both"], default="recurrence")

    p = sub.add_parser("product", help="full Schubert expansion of S_w * S_v")
    add_common(p, ["w", "v"])
    p.add_argument("--engine", choices=["recurrence", "oracle", "both"], default="recurrence")

    p = sub.add_parser("restrict", help="fixed-point restriction S_v|_w")
    add_common(p, ["v", "w"])

    p = sub.add_parser("verify", help="run verification sweeps; nonzero exit on failure")
    p.add_argument("--group", required=True)
    p.add_argument("--suite", choices=["sweep", "cover", "props", "all"], default="all")
    p.add_argument("--force", action="store_true", help="override the oracle sweep size cap")
    p.add_argument("--output", choices=["text", "json"], default="text")

    p = sub.add_parser("trace", help="like constant, but print the derivation tree")
    add_common(p, ["w", "v", "u"])
    p.add_argument("--first-r", type=int, default=None, help="override the reflection at the root step")
    p.add_argument("--replay", action="store_true", help="re-evaluate the tree and confirm the root value")
    p.add_argument("--keep-equivariant", action="store_true", help="do not drop equivariant terms by degree")

    p = sub.add_parser("info", help="group data: rank, roots, order, longest element")
    p.add_argument("--group", required=True)
    p.add_argument("--output", choices=["text", "json"], default="text")

    return ap


CACHE_FORMAT = 2  # bump when the entry layout or the key changes


def _cache_key(rs: RootSystem, w, v, u, engine: str) -> str:
    return json.dumps(
        [list(map(list, rs.cartan)), w.describe(), v.describe(), u.describe(), engine]
    )


def _result_cache_path(key: str, engine: str) -> Path | None:
    """Optional persistent result cache, enabled by SCHUBERTCALC_CACHE_DIR.

    Caches are in-memory by default; this only stores final constants.
    The cache's own imports load only once it is enabled.
    """
    root = os.environ.get("SCHUBERTCALC_CACHE_DIR")
    if not root or engine == "both":
        return None
    import hashlib

    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return Path(root) / f"constant-{digest}.json"


# an entry's path is opened without following a symlink or waiting on a FIFO
_NO_FOLLOW = getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_NONBLOCK", 0)


def _entry_digest(key: str, value: list) -> str:
    import hashlib

    return hashlib.sha256(json.dumps([key, value]).encode()).hexdigest()


def _cache_read(path: Path, key: str, rank: int) -> Polynomial | None:
    """The cached value, or None unless the entry is intact and is this key's.

    A missing, truncated or edited entry, or one of another format, is a miss,
    and so is a symlink at the path.
    """
    try:
        with open(os.open(path, os.O_RDONLY | _NO_FOLLOW), "rb") as f:
            entry = json.loads(f.read())
        value = entry["value"]
        if (entry["format"], entry["key"], entry["sha256"]) != (
            CACHE_FORMAT, key, _entry_digest(key, value)
        ):
            return None
        return poly_from_json(value, rank)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_write(path: Path, key: str, data: list) -> None:
    """Write an entry for the JSON form ``data`` of a value in place, in one write,
    and only into a regular file with no other link; the directory is made on the
    first write.  A torn entry (a crash, a concurrent writer) fails the reader's
    check, so it is a miss and gets rewritten."""
    entry = {"format": CACHE_FORMAT, "key": key, "value": data, "sha256": _entry_digest(key, data)}
    flags = os.O_WRONLY | os.O_CREAT | _NO_FOLLOW
    try:
        try:
            fd = os.open(path, flags, 0o600)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, flags, 0o600)
        with open(fd, "wb") as f:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:  # truncate nothing else
                f.truncate()
                f.write(json.dumps(entry).encode())
    except OSError:
        pass  # the cache is best-effort


def _emit(args, text: str, /, **fields) -> None:
    """Print ``fields`` as one JSON object under ``--output json``, else ``text``."""
    print(json.dumps(fields) if args.output == "json" else text)


def _cmd_constant(args, rs, basis, w, v, u) -> int:
    key = _cache_key(rs, w, v, u, args.engine)
    cache_path = _result_cache_path(key, args.engine)
    value = None
    if cache_path is not None:
        value = _cache_read(cache_path, key, rs.rank)
    write = value is None and cache_path is not None
    if value is None:
        if args.engine in ("recurrence", "both"):
            value = recurrence.structure_constant(w, v, u)
        else:
            value = oracle.oracle_constant(w, v, u)
    data = poly_to_json(value)
    if write:
        _cache_write(cache_path, key, data)
    if args.engine == "both":
        other = oracle.oracle_constant(w, v, u)
        if other != value:
            raise EngineMismatchError(w, v, u, value, other)
    value_str = render(value, basis)
    _emit(args, value_str, group=rs.type_label, w=w.describe(), v=v.describe(), u=u.describe(),
          engine=args.engine, value=data, value_str=value_str)
    return 0


def _cmd_product(args, rs, basis, w, v) -> int:
    if args.engine == "oracle":
        exp = oracle.oracle_product(w, v)
    else:
        exp = recurrence.product_expansion(w, v)
    if args.engine == "both":
        other = oracle.oracle_product(w, v)
        # name the first element, in canonical order, where the two differ
        for u in sorted(exp.coeffs.keys() | other.coeffs.keys(), key=_canonical_key):
            if exp.coeff(u) != other.coeff(u):
                raise EngineMismatchError(w, v, u, exp.coeff(u), other.coeff(u))
    text = "\n".join(f"S[{u.describe()}] : {render(c, basis)}" for u, c in exp.items())
    _emit(args, text or "0", group=rs.type_label, w=w.describe(), v=v.describe(), engine=args.engine,
          terms=[{"element": u.describe(), "coeff": poly_to_json(c)} for u, c in exp.items()])
    return 0


def _cmd_restrict(args, rs, basis, v, w) -> int:
    value = billey.restrict(v, w)
    value_str = render(value, basis)
    _emit(args, value_str, group=rs.type_label, v=v.describe(), w=w.describe(),
          value=poly_to_json(value), value_str=value_str)
    return 0


def _run_props(rs: RootSystem) -> list[str]:
    """Quick operator property suite; returns a list of violations."""
    bad = []
    classes = [billey.schubert_class(w) for w in rs.elements()]
    for w, s in zip(rs.elements(), classes):
        if not gkm.is_gkm(s):
            bad.append(f"GKM fails for the Schubert class of {w.describe()}")
    for i in range(1, rs.rank + 1):
        alpha = rs.simple_root(i)
        if not gkm.is_gkm(gkm.chern_class(rs, alpha)):
            bad.append(f"GKM fails for the Chern class of alpha_{i}")
        for w, s in zip(rs.elements(), classes):
            for op, side in ((gkm.left_dd, "left"), (gkm.right_dd, "right")):
                out = op(alpha, s)
                if not gkm.is_gkm(out):
                    bad.append(f"GKM fails for {side} dd_{i} of S_{w.describe()}")
        for w in rs.elements():
            exp = gkm.chern_times_schubert(rs, alpha, w)
            direct = oracle.expand_in_schubert(gkm.chern_class(rs, alpha) * billey.schubert_class(w))
            if exp != direct:
                bad.append(f"Chern expansion mismatch at alpha_{i}, {w.describe()}")
    for w in rs.elements()[: min(6, rs.order())]:
        for v in rs.elements()[: min(6, rs.order())]:
            for i in range(1, rs.rank + 1):
                if not gkm.leibniz_check(
                    rs.simple_root(i), billey.schubert_class(w), billey.schubert_class(v)
                ):
                    bad.append(f"Leibniz fails at alpha_{i}, ({w.describe()}, {v.describe()})")
    return bad


def _cmd_verify(args, rs, basis) -> int:
    oracle._check_sweep_cap(rs, args.force)  # every suite walks the whole group
    payload = {}
    lines = []
    mismatch = False
    invariant_bad = False
    if args.suite in ("sweep", "all"):
        rep = oracle.verify_sweep(rs, force=args.force)
        payload["sweep"] = rep.to_json()
        lines += rep.text_lines()
        mismatch = mismatch or not rep.ok
        invariant_bad = invariant_bad or bool(rep.ordinary_violations or rep.coeff_violations)
    if args.suite in ("cover", "all"):
        rep = oracle.lemma_cover_sweep(rs)
        payload["cover"] = rep.to_json()
        lines += rep.text_lines()
        invariant_bad = invariant_bad or not rep.ok
    if args.suite in ("props", "all"):
        bad = _run_props(rs)
        payload["props"] = {"violations": bad}
        lines.append(f"props {oracle._group_name(rs)}: {len(bad)} violations")
        lines += [f"  {b}" for b in bad]
        invariant_bad = invariant_bad or bool(bad)
    _emit(args, "\n".join(lines), **payload)
    return MISMATCH_EXIT if mismatch else INVARIANT_EXIT if invariant_bad else 0


def _cmd_trace(args, rs, basis, w, v, u) -> int:
    if args.first_r is not None:
        _read_input(recurrence._check_first_r, w, args.first_r)
    node = recurrence.trace_constant(
        w, v, u,
        drop_equivariant=not args.keep_equivariant,
        first_r=args.first_r,
    )
    if args.output == "json":
        def to_json(n):
            return {
                "w": n.key.w.describe(), "v": n.key.v.describe(), "u": n.key.u.describe(),
                "rule": n.rule, "r": n.chosen_r,
                "value": poly_to_json(n.value),
                "children": [
                    {"weight": poly_to_json(wt), "node": to_json(ch)} for wt, ch in n.children
                ],
            }
        print(json.dumps(to_json(node)))
    else:
        print("\n".join(recurrence.format_trace(node, basis)))
    if args.replay:
        recurrence.replay_trace(node)
        print(f"replay ok: root value = {render(node.value, basis)}")
    return 0


def _cmd_info(args, rs, basis) -> int:
    label, order, w0 = rs.type_label, rs.order(), rs.longest_element().describe()
    text = (
        f"group      : {label or 'custom'}\n"
        f"rank       : {rs.rank}\n"
        f"|Delta_+|  : {len(rs.positive_roots)}\n"
        f"|W|        : {order}\n"
        f"w0         : {w0}"
    )
    _emit(args, text, label=label, rank=rs.rank, cartan=[list(row) for row in rs.cartan],
          positive_roots=len(rs.positive_roots), order=order, w0=w0)
    return 0


# each command, with the elements it reads, in command-line order
_COMMANDS = {
    "constant": (_cmd_constant, "wvu"),
    "product": (_cmd_product, "wv"),
    "restrict": (_cmd_restrict, "vw"),
    "verify": (_cmd_verify, ""),
    "trace": (_cmd_trace, "wvu"),
    "info": (_cmd_info, ""),
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    cmd, names = _COMMANDS[args.command]
    try:
        rs = _read_input(load_group, args.group)
        basis = _default_basis(rs, getattr(args, "basis", None))
        return cmd(args, rs, basis, *[_read_input(parse_element, rs, getattr(args, x)) for x in names])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except EngineMismatchError as exc:
        print(f"engine mismatch: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except (NotDivisibleError, NonzeroResidualError, AssertionError, ValueError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return INVARIANT_EXIT
    except SchubertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
