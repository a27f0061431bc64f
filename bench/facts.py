"""Machine and library facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import re


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    """CPU count and model, cache sizes and the interpreter build."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = _read(f"{index}/size")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "machine": platform.machine(),
    }


def _openblas_libraries() -> list:
    """Paths of the OpenBLAS builds mapped into this process."""
    found = []
    for line in _read("/proc/self/maps").splitlines():
        match = re.search(r"(/\S*openblas\S*\.so[\w.]*)$", line)
        if match and match.group(1) not in found:
            found.append(match.group(1))
    return found


def _call(lib, names, restype):
    for name in names:
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def process_facts() -> dict:
    """Library versions and BLAS builds with thread counts, as this process sees them."""
    import numpy
    import scipy

    blas = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        prefixes = ("openblas", "scipy_openblas")
        suffixes = ("", "64_")
        config = _call(lib, [f"{p}_get_config{s}" for p in prefixes for s in suffixes],
                       ctypes.c_char_p)
        threads = _call(lib, [f"{p}_get_num_threads{s}" for p in prefixes for s in suffixes],
                        ctypes.c_int)
        blas.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": threads,
        })
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
