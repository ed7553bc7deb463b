"""Count the generic C-API calls the compiled plane makes per delivered packet.

The script copies ``src/repro/sim/_accelcore.c`` to a temporary directory,
wraps every call into the CPython C API that is a real function call (dict
lookups, int boxing, tuple packing, attribute and method calls by name, ...)
in a counting macro keyed by the source line, and builds that copy there.
A subprocess then runs one observatory workload body at trace seed
``SEED`` on the instrumented build and reports the calls per delivered
data packet by call site, with the C function around each site.  The
source tree is never written to, and ``src/`` knows nothing of the
instrumentation.

Usage::

    python benchmarks/capi_census.py                        # collective_ring, small
    python benchmarks/capi_census.py --workload incast_dcqcn --top 40
    python benchmarks/capi_census.py --quick                # tiny scale

What is counted: each call site of a ``Py*`` function of the C API in the
file, except reference counting, the ``*_Check``/``*_GET_*`` macros, memory
allocation, error reporting and module set-up; ``PyObject_TypeCheck`` counts
only when the type is not the exact one (the ``PyType_IsSubtype`` call).
Calls made inside CPython on the file's behalf (a dict's own hashing, a
Python callback's frame) are not counted, so the figure measures how often
the compiled plane leaves its own C for the interpreter's, not the time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro" / "sim" / "_accelcore.c"
OBSERVATORY = ROOT / "benchmarks" / "observatory"
#: The trace seed of the body every census figure is taken at.
SEED = 7000

#: Names matched by the call pattern that are not calls into the interpreter.
_NOT_CALLS = re.compile(
    r"^(Py_(INCREF|DECREF|XINCREF|XDECREF|CLEAR|VISIT|NewRef|XNewRef|SETREF|XSETREF|TYPE|"
    r"IS_TYPE|SIZE|UNUSED|RETURN_\w+)|PyVarObject_HEAD_INIT|PyModuleDef_HEAD_INIT|"
    r"Py\w+_Check(Exact)?|Py\w+_GET_\w+|Py\w+_SET_ITEM|PyFloat_AS_DOUBLE|PyMem_\w+|PyErr_\w+|"
    r"PyObject_GC_\w+|PyType_Ready|PyModule_\w+|PyImport_\w+|PyInit_\w+|"
    r"PyUnicode_InternFromString|PyArg_\w+|PyObject_TypeCheck)$"
)
_CALL = re.compile(r"\b(Py[A-Za-z]*_[A-Za-z0-9_]+)\s*\(")
_FUNC_DEF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(")
MAX_LINES = 1 << 15


def api_names(text: str) -> List[str]:
    """The C-API functions the census wraps, in a stable order."""
    defined = set(re.findall(r"#define\s+(Py\w+)", text))
    return sorted(
        name for name in set(_CALL.findall(text)) if not _NOT_CALLS.match(name) and name not in defined
    )


def instrument(text: str) -> str:
    """The source with every wrapped call counted at its line."""
    lines = text.splitlines(keepends=True)
    last_include = max(i for i, line in enumerate(lines) if line.startswith("#include"))
    names = api_names(text)
    block = [
        "/* -- C-API census (benchmarks/capi_census.py) -- */\n",
        f"#define CENSUS_LINES {MAX_LINES}\n",
        "unsigned long long census_counts[CENSUS_LINES];\n",
        "int census_api[CENSUS_LINES];\n",
        "static inline void census_hit(int line, int api)\n",
        "{ if (line < CENSUS_LINES) { census_counts[line] += 1; census_api[line] = api; } }\n",
    ]
    for k, name in enumerate(names):
        block += [
            f"#ifndef {name}\n",
            f"#define {name}(...) (census_hit(__LINE__, {k}), ({name})(__VA_ARGS__))\n",
            "#endif\n",
        ]
    block += [
        "#undef PyObject_TypeCheck\n",
        "#define PyObject_TypeCheck(o, t) (Py_IS_TYPE((o), (t)) || "
        f"(census_hit(__LINE__, {len(names)}), (PyType_IsSubtype)(Py_TYPE(o), (t))))\n",
        f'#line {last_include + 2} "_accelcore.c"\n',
    ]
    return "".join(lines[: last_include + 1] + block + lines[last_include + 1 :])


def build(workdir: Path) -> Path:
    """Compile the instrumented copy in workdir; the shared object's path."""
    source = workdir / "_accelcore.c"
    source.write_text(instrument(SOURCE.read_text()))
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = workdir / f"_accelcore_census{suffix}"
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        cc = "cc"
    include = sysconfig.get_paths()["include"]
    cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{include}", str(source), "-o", str(target)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"instrumented build failed:\n{done.stderr[-3000:]}")
    return target


# Runs in the subprocess: the instrumented core stands in for the built one.
_CHILD = r"""
import ctypes, json, sys, tempfile
so, workload, seed, quick, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]
import importlib.util
from pathlib import Path
# Load the build helper before its package, so the package's own import of
# the core already finds the stand-in.
spec = importlib.util.spec_from_file_location("repro.sim.accel_build", BUILDER)
accel_build = importlib.util.module_from_spec(spec)
spec.loader.exec_module(accel_build)
sys.modules["repro.sim.accel_build"] = accel_build
accel_build.build = lambda force=False: Path(so)
from repro.sim import engine_accel
if engine_accel._accelcore is None or engine_accel._accelcore.__file__ != so:
    raise SystemExit("the instrumented core did not load: " + str(accel_build.last_error))
from workloads import WORKLOADS
lib = ctypes.CDLL(so)
counts = (ctypes.c_ulonglong * LINES).in_dll(lib, "census_counts")
apis = (ctypes.c_int * LINES).in_dll(lib, "census_api")
with tempfile.TemporaryDirectory() as workdir:
    run = WORKLOADS[workload].body(seed, quick, workdir, True)
packets = sum(r.host_counters.get("data_packets_received", 0) for r in run.results)
sites = {i: [counts[i], apis[i]] for i in range(LINES) if counts[i]}
with open(out, "w") as handle:
    json.dump({"packets": packets, "sites": sites}, handle)
"""


def enclosing_functions(text: str) -> Dict[int, str]:
    """Line number -> the C function (or block) it lies in."""
    owner, current = {}, "(file scope)"
    for number, line in enumerate(text.splitlines(), start=1):
        match = _FUNC_DEF.match(line)
        if match:
            current = match.group(1)
        owner[number] = current
    return owner


def census(workload: str, quick: bool) -> Dict[str, object]:
    """Run the census; the per-site table and the total per packet."""
    text = SOURCE.read_text()
    names = api_names(text) + ["PyType_IsSubtype"]
    with tempfile.TemporaryDirectory(prefix="capi-census-") as tmp:
        workdir = Path(tmp)
        so = build(workdir)
        out = workdir / "census.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(OBSERVATORY)])
        env.pop("REPRO_ENGINE", None)
        child = _CHILD.replace("LINES", str(MAX_LINES)).replace(
            "BUILDER", repr(str(SOURCE.parent / "accel_build.py"))
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(so), workload, str(SEED), "1" if quick else "0", str(out)],
            env=env,
            cwd=tmp,
        )
        if done.returncode != 0:
            raise SystemExit(f"the workload run failed (exit {done.returncode})")
        raw = json.loads(out.read_text())
    packets = raw["packets"]
    owner = enclosing_functions(text)
    sites: List[Tuple[int, str, str, float]] = []
    for line, (count, api) in raw["sites"].items():
        line = int(line)
        sites.append((line, owner.get(line, "?"), names[api], count / packets if packets else 0.0))
    sites.sort(key=lambda site: (-site[3], site[0]))
    return {
        "workload": workload,
        "scale": "tiny" if quick else "small",
        "packets": packets,
        "calls_per_packet": sum(site[3] for site in sites),
        "sites": [
            {"line": line, "function": func, "api": api, "per_packet": per}
            for line, func, api, per in sites
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="collective_ring",
                        choices=["incast_bfc", "incast_dcqcn", "collective_ring", "openloop_spill"])
    parser.add_argument("--quick", action="store_true", help="tiny scale")
    parser.add_argument("--top", type=int, default=30, help="call sites to print")
    args = parser.parse_args(argv)
    result = census(args.workload, args.quick)
    print(f"{result['workload']} ({result['scale']}, trace seed {SEED}): "
          f"{result['packets']} delivered data packets")
    print(f"{'line':>6}  {'function':<28} {'api':<32} {'per packet':>10}")
    for site in result["sites"][: args.top]:
        print(f"{site['line']:>6}  {site['function']:<28} {site['api']:<32} {site['per_packet']:>10.2f}")
    print(f"total: {result['calls_per_packet']:.1f} C-API calls per delivered packet "
          f"over {len(result['sites'])} call sites")
    return 0 if result["packets"] else 1


if __name__ == "__main__":
    sys.exit(main())
