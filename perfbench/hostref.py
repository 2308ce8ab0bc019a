"""The host-speed reference task: fixed work that does not touch ``src/``.

Run as ``python3 -I perfbench/hostref.py``; it prints one checksum.  It
does in small what an artifact process does at large - start an
interpreter, import modules, compile and run generated code, interpret
a small instruction stream, round-trip data through ``json`` and
``pickle`` - using the standard library only, so its wall time tracks
how fast the host runs this kind of work at the moment and nothing
else.  ``hostspeed.py`` times it between the measured operations.
"""

import ast  # noqa: F401  (imports are part of the work)
import asyncio  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import difflib  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import inspect  # noqa: F401
import json
import logging  # noqa: F401
import pickle
import random
import sqlite3  # noqa: F401
import statistics  # noqa: F401
import tarfile  # noqa: F401
import unittest  # noqa: F401
import xml.dom.minidom  # noqa: F401
import zipfile  # noqa: F401


def main() -> int:
    rng = random.Random(7)
    # Straight-line generated code, compiled and run, as a code generator's
    # output is.
    lines = ["def f(r):"] + [
        f"    r[{i % 97}] = (r[{(i * 7) % 97}] + {i}) & 0xffff"
        for i in range(3000)
    ] + ["    return r"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<generated>", "exec"), namespace)
    regs = [0] * 97
    for _ in range(15):
        regs = namespace["f"](regs)
    # A dispatch loop over decoded tuples, as an instruction interpreter is.
    prog = [(rng.randrange(4), rng.randrange(16), rng.randrange(16))
            for _ in range(256)]
    r = [1] * 16
    mem: dict[int, int] = {}
    for _ in range(150):
        for op, a, b in prog:
            if op == 0:
                r[a] = (r[a] + r[b]) & 0xFFFFFFFF
            elif op == 1:
                r[a] = (r[a] ^ (r[b] << 1)) & 0xFFFFFFFF
            elif op == 2:
                mem[r[b] & 1023] = r[a]
            else:
                r[a] = mem.get(r[b] & 1023, 0)
    # Serialisation round trips, as on-disk caches make.
    blob = {str(i): [i, i * 0.5, str(i)] for i in range(8000)}
    for _ in range(2):
        blob = pickle.loads(pickle.dumps(json.loads(json.dumps(blob))))
    print(sum(regs) + sum(r) + len(blob))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
