"""Shared pieces of the workloads: the operation record, CLI calls captured
in memory, cache clearing, and the check failures a workload can raise."""
from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An output disagrees with the benchmark's oracle or a required property."""


class CertificationFault(CheckFailed):
    """certified=True on a Monte-Carlo estimate although the exact norm of f2
    exceeds gowers_bound: the program's known fault, counted as failed."""


@dataclass
class Op:
    """One timed operation.

    run() is the timed call; prepare(), when set, runs just before the timing
    starts.  collect(ret) turns the return value and any files the op wrote
    into a record, after the round; records of every round must be
    byte-identical.  check(record) raises CheckFailed on a wrong output.
    shows_fault marks an op kept because it shows the known fault on every
    run; any op may raise CertificationFault.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    collect: Callable[[object], object] = lambda ret: ret
    shows_fault: bool = False
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    cold_each_op: bool = False  # clear the library caches before every op


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    files: tuple[tuple[str, bytes], ...] = ()

    def file(self, name: str) -> bytes:
        return dict(self.files)[name]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.code, self.stdout, self.stderr)).encode())
        for name, data in self.files:
            h.update(name.encode() + b"\0" + data)
        return h.hexdigest()


def cli_op(name: str, argv, outputs: list[Path], check, shows_fault=False, prepare=None) -> Op:
    """An in-process `affinetest.cli.main(argv)` call; `outputs` are the
    files and directories it writes.  argv may be a callable, evaluated at
    call time, for arguments that depend on an earlier op's output."""
    from affinetest import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv() if callable(argv) else argv))
        return code, out.getvalue(), err.getvalue()

    def collect(ret):
        # Outputs are removed once read, so a file left by an earlier round
        # can never pass for this round's output.
        files = []
        for path in outputs:
            if path.is_dir():
                files += [(str(q.relative_to(path.parent)), q.read_bytes()) for q in sorted(path.iterdir())]
                shutil.rmtree(path)
            elif path.exists():
                files.append((path.name, path.read_bytes()))
                path.unlink()
        return CliResult(*ret, tuple(files))

    return Op(name, run, check, collect, shows_fault, prepare)


def clear_caches() -> None:
    """Empty every functools cache and memo dict of the library, so each
    round (or op) starts as cold as a fresh process would."""
    import affinetest
    from affinetest import field as fld, forms, gowers, poly, factor

    for mod in (fld, forms, gowers, poly, factor, affinetest):
        for obj in list(vars(mod).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    forms._kernel_cache.clear()


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)
