"""Probe-cache correctness (PR: parallel scheduler + probe cache).

The cache's contract: answers are pure functions of (target fingerprint,
verb, probe content), so

* two architectures sharing one store never see each other's entries;
* changing a toolchain flag changes the fingerprint and invalidates
  every prior answer;
* a corrupted persisted entry degrades to a live probe, never to a
  wrong answer or a failed run;
* ``--no-cache`` means exactly that: no reads, no writes, no files;
* a warm rerun of full discovery touches the target zero times and
  reproduces the identical machine description.
"""

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys

import repro
from repro.discovery import cache as cache_module
from repro.discovery.cache import CachingMachine, ProbeCache, target_fingerprint
from repro.discovery.driver import ArchitectureDiscovery
from repro.machines.machine import RemoteMachine


def test_fingerprints_isolate_architectures(tmp_path):
    """One shared store, two targets: neither ever hits on the other's
    entries (the fingerprint prefixes every key)."""
    cache = ProbeCache(tmp_path)
    x86 = CachingMachine(RemoteMachine("x86"), cache)
    mips = CachingMachine(RemoteMachine("mips"), cache)
    assert x86.fingerprint != mips.fingerprint

    source = "main(){int a=1235;}"
    asm_x86 = x86.compile_c(source)
    assert cache.stats.misses == 1
    asm_mips = mips.compile_c(source)  # same source, different machine
    assert cache.stats.misses == 2 and cache.stats.hits == 0
    assert asm_x86 != asm_mips
    assert x86.compile_c(source) == asm_x86  # now it hits
    assert cache.stats.hits == 1
    cache.close()


def test_toolchain_flag_change_invalidates(tmp_path):
    """The same target behind a different compiler flag is a different
    oracle; its fingerprint must differ so stale answers cannot leak."""
    plain = RemoteMachine("x86")
    flagged = RemoteMachine(
        "x86", toolchain=dataclasses.replace(plain.toolchain, cc="cc -S -O2 %o %i")
    )
    assert target_fingerprint(plain) != target_fingerprint(flagged)

    cache = ProbeCache(tmp_path)
    CachingMachine(plain, cache).compile_c("main(){}")
    hits_before = cache.stats.hits
    CachingMachine(flagged, cache).compile_c("main(){}")
    assert cache.stats.hits == hits_before  # flag change: no reuse
    cache.close()


def test_corrupted_entries_fall_back_to_live_probes(tmp_path):
    """A torn or tampered shard line is counted, skipped, and re-probed
    live -- persistence failures degrade to slowness, not wrongness."""
    cache = ProbeCache(tmp_path)
    machine = CachingMachine(RemoteMachine("x86"), cache)
    source = "main(){int a=7;}"
    asm = machine.compile_c(source)
    cache.close()

    shard = next(tmp_path.glob("probes-*.jsonl"))
    good_line = shard.read_text().splitlines()[0]
    shard.write_text(
        "this is not json\n"  # torn write
        + good_line[: len(good_line) // 2]  # truncated entry
        + "\n"
        + '{"unexpected": "schema"}\n'  # wrong shape
    )

    fresh = ProbeCache(tmp_path)
    reopened = CachingMachine(RemoteMachine("x86"), fresh)
    assert reopened.compile_c(source) == asm  # live probe, right answer
    assert fresh.stats.corrupt_entries >= 3
    assert fresh.stats.hits == 0

    # close() compacts the shard: a third open sees only clean entries.
    fresh.close()
    third = ProbeCache(tmp_path)
    again = CachingMachine(RemoteMachine("x86"), third)
    assert again.compile_c(source) == asm
    assert third.stats.corrupt_entries == 0 and third.stats.hits == 1


def test_lru_eviction_bounds_the_store(tmp_path):
    cache = ProbeCache(tmp_path, max_entries=2)
    for n in range(3):
        cache.put("fp", "compile", f"h{n}", {"asm": str(n)})
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get("fp", "compile", "h0") is None  # oldest went first
    assert cache.get("fp", "compile", "h2") == {"asm": "2"}
    cache.close()
    # Compaction rewrote the shard without the evicted entry.
    reopened = ProbeCache(tmp_path)
    assert reopened.get("fp", "compile", "h0") is None
    assert reopened.get("fp", "compile", "h1") == {"asm": "1"}


def test_entries_survive_a_kill_without_close(tmp_path):
    """Each put is flushed to the OS before it returns: a process killed
    without :meth:`ProbeCache.close` loses none of the entries it put."""
    script = (
        "import os, signal, sys\n"
        "from repro.discovery.cache import ProbeCache\n"
        "cache = ProbeCache(sys.argv[1])\n"
        "for n in range(20):\n"
        "    cache.put('fp', 'compile', f'h{n}', {'asm': str(n)})\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env)
    assert child.returncode == -signal.SIGKILL

    reopened = ProbeCache(tmp_path)
    for n in range(20):
        assert reopened.get("fp", "compile", f"h{n}") == {"asm": str(n)}
    assert reopened.stats.loaded == 20 and reopened.stats.corrupt_entries == 0


def _on_disk(directory, fingerprint):
    shard = directory / f"probes-{fingerprint}.jsonl"
    return [json.loads(line)["k"] for line in shard.read_text().splitlines()]


def test_put_after_shard_eviction_reaches_disk(tmp_path):
    """GC closes an evicted shard's handle: the next put to that
    fingerprint reopens the file rather than writing to the deleted one."""
    cache = ProbeCache(tmp_path)
    cache.put("fp", "compile", "h0", {"asm": "0"})
    report = cache.gc(max_age_s=0, now=cache._wall_now() + 60)
    assert report["evicted_shards"] == ["fp"]
    assert not (tmp_path / "probes-fp.jsonl").exists()

    cache.put("fp", "compile", "h1", {"asm": "1"})
    assert _on_disk(tmp_path, "fp") == ["fp:compile:h1"]
    cache.close()


def test_store_holds_one_shard_handle_however_many_shards(tmp_path, monkeypatch):
    """A service takes fingerprints from its clients, so the number of
    shards one store writes has no bound: it keeps only the handle of
    the shard written last open, and every entry still reaches disk."""
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cache_module, "open", tracking_open, raising=False)
    cache = ProbeCache(tmp_path)
    shards = 2000
    for n in range(2 * shards):  # every shard is written, left and reopened
        cache.put(f"fp{n % shards}", "compile", f"h{n}", {"asm": str(n)})
        assert not opened[-1].closed and all(h.closed for h in opened[-2:-1])
    assert sum(not h.closed for h in opened) == 1
    cache.close()
    assert all(h.closed for h in opened)
    for n in range(shards):
        keys = [f"fp{n}:compile:h{n}", f"fp{n}:compile:h{n + shards}"]
        assert _on_disk(tmp_path, f"fp{n}") == keys


def test_put_after_close_reaches_disk(tmp_path):
    cache = ProbeCache(tmp_path)
    cache.put("fp", "compile", "h0", {"asm": "0"})
    cache.close()
    cache.put("fp", "compile", "h1", {"asm": "1"})
    assert _on_disk(tmp_path, "fp") == ["fp:compile:h0", "fp:compile:h1"]
    cache.close()


def test_no_cache_flag_bypasses_reads_and_writes(tmp_path, capsys):
    """``discover --cache-dir PATH --no-cache`` must neither read nor
    write PATH (and the report carries no cache section)."""
    from repro.__main__ import main

    cache_dir = tmp_path / "probes"
    cache_dir.mkdir()
    status = main(
        [
            "discover",
            "x86",
            "--cache-dir",
            str(cache_dir),
            "--no-cache",
            "--workers",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert list(cache_dir.iterdir()) == []
    assert "  cache:" not in out.splitlines()


def test_warm_rerun_issues_zero_remote_verbs(tmp_path):
    """The acceptance criterion: a repeat discovery over a populated
    cache never contacts the target, and still reproduces the identical
    machine description."""
    cold = ArchitectureDiscovery(RemoteMachine("x86"), cache=str(tmp_path)).run()
    assert cold.cache_stats.writes > 0
    assert sorted(p.name for p in tmp_path.iterdir())  # persisted shards

    warm = ArchitectureDiscovery(RemoteMachine("x86"), cache=str(tmp_path)).run()
    stats = warm.machine_stats
    assert stats.compilations == 0
    assert stats.assemblies == 0
    assert stats.links == 0
    assert stats.executions == 0
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits > 10_000
    assert warm.spec.render_beg() == cold.spec.render_beg()

    summary = warm.summary()
    assert summary["cache"]["hit_rate"] == 1.0
    assert summary["machine"]["executions"] == 0
    assert summary["machine"]["total_verbs"] == 0
    # no phase of the warm run contacts the target
    assert {t["verbs"] for t in summary["phase_timings"].values()} == {0}
