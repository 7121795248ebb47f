"""The block loop keeps its freed memory in the process.

``suites.run_suite`` sets glibc's malloc thresholds once per process, so the
arrays of one block are served from the heap that the previous block freed,
and a warm pass faults no page back in.  Importing ``octoweak`` alone leaves
the allocator as it is, and a C library without ``mallopt`` changes nothing.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import octoweak
from octoweak import suites


def _glibc_version():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


def _run_child(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(octoweak.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


#: The field-degree3 benchmark workload, one warm-up pass and the warm passes counted.
_WARM_PASSES = """
import resource
from octoweak import suites
cfg = suites.SuiteConfig(field_degree=3, suites=("prop1-A", "prop1-B", "prop2"))

def one_pass():
    suites.render_json([suites.run_suite(sid, cfg) for sid in cfg.suites], cfg)

one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one_pass()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not _glibc_version(), reason="the malloc policy is glibc's mallopt")
def test_warm_field_passes_fault_no_block_memory_back_in():
    # with glibc's default thresholds, each warm pass faults about 900 pages back in
    assert float(_run_child(_WARM_PASSES)) <= 16


def test_the_policy_is_set_once_per_process_and_not_on_import():
    script = """
import ctypes, json
calls, open_handles = [], ctypes.CDLL

class Libc:
    def mallopt(self, param, value):
        calls.append([param, value])
        return 1

ctypes.CDLL = lambda name, *a, **k: Libc() if name is None else open_handles(name, *a, **k)
import octoweak
on_import = list(calls)
from octoweak import suites
suites.run_all(suites.SuiteConfig(samples_per_suite=2))
suites.run_all(suites.SuiteConfig(samples_per_suite=2, seed=1))
print(json.dumps([on_import, calls]))
"""
    on_import, calls = json.loads(_run_child(script))
    assert on_import == []
    assert calls == [list(p) for p in suites._MALLOC_POLICY]


class _NoMallopt:
    pass


def _refuse(name, *args, **kwargs):
    raise OSError("no C library")


@pytest.fixture
def fresh_policy():
    suites._keep_block_memory.cache_clear()
    yield
    suites._keep_block_memory.cache_clear()


@pytest.mark.parametrize("handle", [lambda name: _NoMallopt(), _refuse],
                         ids=["no-mallopt", "no-library"])
def test_a_c_library_without_the_policy_gives_the_same_report(monkeypatch, fresh_policy, handle):
    cfg = suites.SuiteConfig(samples_per_suite=16, field_degree=3,
                             suites=("prop1-A", "prop3", "alternativity"))
    expected = suites.render_json(suites.run_all(cfg)[0], cfg)
    suites._keep_block_memory.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", handle)
    assert suites.render_json(suites.run_all(cfg)[0], cfg) == expected
