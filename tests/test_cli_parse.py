"""Golden test of the ``repro`` command line.

Every command line the repository runs itself -- in the tests, in CI,
in the README and in the campaign supervisor's worker launches -- and
one minimal and one all-flags line per parser must parse to exactly the
namespace recorded here.  The values were recorded from the hand-written
argparse code that the tables in :mod:`repro.__main__` replaced, so an
edit to a table that changes a flag, a default, a choice set or a type
fails here before any handler runs.
"""

import argparse
import sys

import pytest

from repro.__main__ import build_parser, main
from repro.discovery.supervisor import CampaignPolicy, CampaignSupervisor
from repro.machines.crashes import FleetKillPlan

URL = "http://127.0.0.1:8097"

#: what the minimal line of each parser (below) parses to
DEFAULTS = {
    "targets": {"command": "targets", "json": False},
    "discover": {
        "cache_dir": None,
        "cache_url": None,
        "checkpoint_every": None,
        "command": "discover",
        "crash_at": None,
        "crash_kill": False,
        "extract_procs": None,
        "fault_seed": 64023,
        "flaky": 0.0,
        "heartbeat_every": None,
        "latency": 0.0,
        "max_retries": 4,
        "no_cache": False,
        "out": None,
        "resume": None,
        "run_dir": None,
        "seed": 1997,
        "target": None,
        "verify": False,
        "votes": None,
        "workers": None,
    },
    "campaign": {
        "backoff": 0.5,
        "cache_dir": None,
        "cache_url": None,
        "chaos_kills": 0,
        "chaos_seed": 50336,
        "command": "campaign",
        "deadline": None,
        "escalate_after": 2,
        "escalate_votes": None,
        "fleet": 2,
        "heartbeat_every": 0.5,
        "lease_timeout": 10.0,
        "max_attempts": 5,
        "root": "R",
        "seed": 1997,
        "targets": ["vax"],
        "workers": None,
    },
    "cache-info": {"command": "cache-info", "directory": "D", "json": False},
    "serve": {
        "cache_dir": None,
        "cache_max_age": None,
        "cache_max_bytes": None,
        "clients": None,
        "command": "serve",
        "drain_timeout": 15.0,
        "fleet": 2,
        "gc_interval": 60.0,
        "heartbeat_every": 0.5,
        "host": "127.0.0.1",
        "lease_timeout": 10.0,
        "max_backlog": None,
        "poll_interval": 0.2,
        "port": 0,
        "root": "R",
    },
    "client submit": {
        "action": "submit",
        "command": "client",
        "deadline_s": None,
        "escalate_votes": None,
        "max_attempts": None,
        "priority": None,
        "seed": None,
        "targets": ["vax"],
        "timeout": None,
        "token": None,
        "url": "U",
        "wait": False,
        "workers": None,
    },
    "client status": {
        "action": "status",
        "command": "client",
        "job": "J",
        "token": None,
        "url": "U",
    },
    "client wait": {
        "action": "wait",
        "command": "client",
        "job": "J",
        "timeout": None,
        "token": None,
        "url": "U",
    },
    "client spec": {
        "action": "spec",
        "command": "client",
        "job": "J",
        "out": None,
        "token": None,
        "url": "U",
    },
    "client cancel": {
        "action": "cancel",
        "command": "client",
        "job": "J",
        "token": None,
        "url": "U",
    },
    "client stats": {"action": "stats", "command": "client", "token": None, "url": "U"},
    "client jobs": {"action": "jobs", "command": "client", "token": None, "url": "U"},
    "client readyz": {"action": "readyz", "command": "client", "token": None, "url": "U"},
    "retarget": {"command": "retarget", "program": "P", "seed": 1997, "targets": ["vax"]},
    "run": {
        "command": "run",
        "emit_asm": False,
        "program": "P",
        "seed": 1997,
        "target": "vax",
    },
    "lint": {
        "command": "lint",
        "fail_on": "error",
        "format": "text",
        "jobs": 1,
        "model": False,
        "out": None,
        "seed": 1997,
        "source": [],
        "targets": [],
    },
    "verify-spec": {
        "command": "verify-spec",
        "diff": None,
        "fail_on": "error",
        "format": "text",
        "jobs": 1,
        "out": None,
        "seed": 1997,
        "targets": [],
    },
}

#: (parser, argv, the values that differ from DEFAULTS[parser])
LINES = [
    # tests/ (main() calls and subprocess launches)
    ("targets", ["targets"], {}),
    ("run", ["run", "mips", "--program", "prog.a"], {"program": "prog.a", "target": "mips"}),
    (
        "run",
        ["run", "vax", "--program", "prog.a", "--emit-asm"],
        {"emit_asm": True, "program": "prog.a"},
    ),
    (
        "retarget",
        ["retarget", "alpha", "--program", "prog.a"],
        {"program": "prog.a", "targets": ["alpha"]},
    ),
    ("lint", ["lint", "x86"], {"targets": ["x86"]}),
    (
        "lint",
        ["lint", "mips", "--fail-on", "warning"],
        {"fail_on": "warning", "targets": ["mips"]},
    ),
    ("lint", ["lint", "mips", "--format", "json"], {"format": "json", "targets": ["mips"]}),
    (
        "lint",
        ["lint", "--source", "probe.py", "--format", "sarif", "--out", "lint.sarif"],
        {"format": "sarif", "out": "lint.sarif", "source": ["probe.py"]},
    ),
    (
        "lint",
        ["lint", "--source", "probe.py", "--fail-on", "never"],
        {"fail_on": "never", "source": ["probe.py"]},
    ),
    ("lint", ["lint", "vax", "m68k", "--jobs", "1"], {"targets": ["vax", "m68k"]}),
    ("lint", ["lint", "vax", "m68k", "--jobs", "2"], {"jobs": 2, "targets": ["vax", "m68k"]}),
    (
        "discover",
        ["discover", "x86", "--cache-dir", "probes", "--no-cache", "--workers", "2"],
        {"cache_dir": "probes", "no_cache": True, "target": "x86", "workers": 2},
    ),
    (
        "discover",
        ["discover", "vax", "--verify", "--out", "out"],
        {"out": "out", "target": "vax", "verify": True},
    ),
    ("verify-spec", ["verify-spec", "x86"], {"targets": ["x86"]}),
    (
        "verify-spec",
        ["verify-spec", "vax", "--format", "json"],
        {"format": "json", "targets": ["vax"]},
    ),
    ("verify-spec", ["verify-spec", "pdp11"], {"targets": ["pdp11"]}),
    (
        "verify-spec",
        ["verify-spec", "vax", "--fail-on", "warning"],
        {"fail_on": "warning", "targets": ["vax"]},
    ),
    (
        "verify-spec",
        ["verify-spec", "vax", "m68k", "--jobs", "1"],
        {"targets": ["vax", "m68k"]},
    ),
    (
        "verify-spec",
        ["verify-spec", "vax", "m68k", "--jobs", "2"],
        {"jobs": 2, "targets": ["vax", "m68k"]},
    ),
    (
        "verify-spec",
        ["verify-spec", "vax", "--format", "sarif", "--out", "findings.sarif"],
        {"format": "sarif", "out": "findings.sarif", "targets": ["vax"]},
    ),
    (
        "verify-spec",
        ["verify-spec", "--diff", "run-a", "run-b"],
        {"diff": ["run-a", "run-b"]},
    ),
    (
        "discover",
        [
            "discover", "vax", "--run-dir", "run", "--cache-dir", "cache", "--crash-at",
            "sample:mutation_analysis:2", "--crash-kill",
        ],
        {
            "cache_dir": "cache",
            "crash_at": "sample:mutation_analysis:2",
            "crash_kill": True,
            "run_dir": "run",
            "target": "vax",
        },
    ),
    (
        "discover",
        ["discover", "vax", "--run-dir", "plain", "--cache-dir", "cache"],
        {"cache_dir": "cache", "run_dir": "plain", "target": "vax"},
    ),
    (
        "discover",
        [
            "discover", "vax", "--run-dir", "beating", "--cache-dir", "cache",
            "--heartbeat-every", "0.05",
        ],
        {
            "cache_dir": "cache",
            "heartbeat_every": 0.05,
            "run_dir": "beating",
            "target": "vax",
        },
    ),
    (
        "discover",
        [
            "discover", "vax", "--run-dir", "run", "--cache-dir", "cache", "--crash-at",
            "after:synthesis", "--crash-kill",
        ],
        {
            "cache_dir": "cache",
            "crash_at": "after:synthesis",
            "crash_kill": True,
            "run_dir": "run",
            "target": "vax",
        },
    ),
    ("discover", ["discover", "--resume", "run"], {"resume": "run"}),
    (
        "discover",
        ["discover", "vax", "--cache-dir", "cache"],
        {"cache_dir": "cache", "target": "vax"},
    ),
    (
        "serve",
        [
            "serve", "--root", "root", "--port", "0", "--fleet", "1", "--cache-dir", "cache",
            "--heartbeat-every", "0.2", "--lease-timeout", "30", "--poll-interval", "0.05",
        ],
        {
            "cache_dir": "cache",
            "fleet": 1,
            "heartbeat_every": 0.2,
            "lease_timeout": 30.0,
            "poll_interval": 0.05,
            "root": "root",
        },
    ),
    # .github/workflows/ci.yml and README.md, shell variables fixed
    (
        "run",
        ["run", "x86", "--program", "examples/programs/gcd.a"],
        {"program": "examples/programs/gcd.a", "target": "x86"},
    ),
    (
        "discover",
        ["discover", "mips", "--flaky", "0.1", "--fault-seed", "7", "--out", "/tmp/report"],
        {"fault_seed": 7, "flaky": 0.1, "out": "/tmp/report", "target": "mips"},
    ),
    (
        "discover",
        [
            "discover", "x86", "--workers", "4", "--cache-dir", "/tmp/probe-cache", "--out",
            "/tmp/report-cold",
        ],
        {
            "cache_dir": "/tmp/probe-cache",
            "out": "/tmp/report-cold",
            "target": "x86",
            "workers": 4,
        },
    ),
    (
        "campaign",
        [
            "campaign", "vax", "mips", "--root", "/tmp/campaign-cli", "--fleet", "2",
            "--cache-dir", "/tmp/campaign-cli-cache", "--chaos-kills", "1", "--backoff",
            "0.1",
        ],
        {
            "backoff": 0.1,
            "cache_dir": "/tmp/campaign-cli-cache",
            "chaos_kills": 1,
            "root": "/tmp/campaign-cli",
            "targets": ["vax", "mips"],
        },
    ),
    (
        "serve",
        [
            "serve", "--root", "/tmp/service-cli/state", "--fleet", "2", "--poll-interval",
            "0.05", "--heartbeat-every", "0.2",
        ],
        {"heartbeat_every": 0.2, "poll_interval": 0.05, "root": "/tmp/service-cli/state"},
    ),
    (
        "client submit",
        [
            "client", "--url", "http://127.0.0.1:8097", "submit", "vax", "--workers", "auto",
            "--wait", "--timeout", "600",
        ],
        {"timeout": 600.0, "url": "http://127.0.0.1:8097", "wait": True, "workers": "auto"},
    ),
    (
        "client spec",
        [
            "client", "--url", "http://127.0.0.1:8097", "spec", "job-000001", "--out",
            "/tmp/service-cli/specs",
        ],
        {
            "job": "job-000001",
            "out": "/tmp/service-cli/specs",
            "url": "http://127.0.0.1:8097",
        },
    ),
    (
        "client stats",
        ["client", "--url", "http://127.0.0.1:8097", "stats"],
        {"url": "http://127.0.0.1:8097"},
    ),
    (
        "cache-info",
        ["cache-info", "/tmp/service-cli/state/cache"],
        {"directory": "/tmp/service-cli/state/cache"},
    ),
    (
        "serve",
        [
            "serve", "--root", "/tmp/drain-cli/state", "--fleet", "1", "--cache-dir",
            "/tmp/drain-cli/cache", "--poll-interval", "0.05", "--heartbeat-every", "0.2",
            "--cache-max-bytes", "50000000", "--gc-interval", "5",
        ],
        {
            "cache_dir": "/tmp/drain-cli/cache",
            "cache_max_bytes": 50000000,
            "fleet": 1,
            "gc_interval": 5.0,
            "heartbeat_every": 0.2,
            "poll_interval": 0.05,
            "root": "/tmp/drain-cli/state",
        },
    ),
    (
        "client readyz",
        ["client", "--url", "http://127.0.0.1:8097", "readyz"],
        {"url": "http://127.0.0.1:8097"},
    ),
    (
        "client submit",
        ["client", "--url", "http://127.0.0.1:8097", "submit", "vax", "--priority", "5"],
        {"priority": 5, "url": "http://127.0.0.1:8097"},
    ),
    (
        "client wait",
        [
            "client", "--url", "http://127.0.0.1:8097", "wait", "job-000001", "--timeout",
            "600",
        ],
        {"job": "job-000001", "timeout": 600.0, "url": "http://127.0.0.1:8097"},
    ),
    (
        "client spec",
        [
            "client", "--url", "http://127.0.0.1:8097", "spec", "job-000001", "--out",
            "/tmp/drain-cli/specs",
        ],
        {"job": "job-000001", "out": "/tmp/drain-cli/specs", "url": "http://127.0.0.1:8097"},
    ),
    ("verify-spec", ["verify-spec", "--fail-on", "error", "--jobs", "4"], {"jobs": 4}),
    (
        "verify-spec",
        [
            "verify-spec", "--format", "sarif", "--fail-on", "never", "--jobs", "4", "--out",
            "repro-verify.sarif",
        ],
        {"fail_on": "never", "format": "sarif", "jobs": 4, "out": "repro-verify.sarif"},
    ),
    ("lint", ["lint"], {}),
    (
        "lint",
        [
            "lint", "--source", "src/repro/discovery", "--source", "src/repro/analysis",
            "--fail-on", "warning",
        ],
        {"fail_on": "warning", "source": ["src/repro/discovery", "src/repro/analysis"]},
    ),
    (
        "lint",
        [
            "lint", "--source", "src/repro/discovery", "--source", "src/repro/analysis",
            "--format", "sarif", "--fail-on", "never", "--out", "repro-lint.sarif",
        ],
        {
            "fail_on": "never",
            "format": "sarif",
            "out": "repro-lint.sarif",
            "source": ["src/repro/discovery", "src/repro/analysis"],
        },
    ),
    (
        "discover",
        ["discover", "mips", "--flaky", "0.2", "--fault-seed", "7"],
        {"fault_seed": 7, "flaky": 0.2, "target": "mips"},
    ),
    ("discover", ["discover", "x86", "--workers", "4"], {"target": "x86", "workers": 4}),
    (
        "discover",
        ["discover", "x86", "--cache-dir", "/tmp/probes"],
        {"cache_dir": "/tmp/probes", "target": "x86"},
    ),
    (
        "discover",
        ["discover", "x86", "--latency", "0.002", "--workers", "4"],
        {"latency": 0.002, "target": "x86", "workers": 4},
    ),
    (
        "discover",
        ["discover", "x86", "--extract-procs", "4"],
        {"extract_procs": 4, "target": "x86"},
    ),
    (
        "discover",
        ["discover", "x86", "--workers", "4", "--extract-procs", "4"],
        {"extract_procs": 4, "target": "x86", "workers": 4},
    ),
    (
        "discover",
        ["discover", "vax", "--run-dir", "/tmp/vax-run"],
        {"run_dir": "/tmp/vax-run", "target": "vax"},
    ),
    ("discover", ["discover", "--resume", "/tmp/vax-run"], {"resume": "/tmp/vax-run"}),
    (
        "campaign",
        [
            "campaign", "vax", "mips", "sparc", "--root", "/tmp/fleet", "--fleet", "2",
            "--cache-dir", "/tmp/probe-cache",
        ],
        {
            "cache_dir": "/tmp/probe-cache",
            "root": "/tmp/fleet",
            "targets": ["vax", "mips", "sparc"],
        },
    ),
    (
        "campaign",
        [
            "campaign", "vax", "mips", "sparc", "--root", "/tmp/fleet2", "--fleet", "3",
            "--cache-dir", "/tmp/probe-cache", "--chaos-kills", "2",
        ],
        {
            "cache_dir": "/tmp/probe-cache",
            "chaos_kills": 2,
            "fleet": 3,
            "root": "/tmp/fleet2",
            "targets": ["vax", "mips", "sparc"],
        },
    ),
    (
        "serve",
        ["serve", "--root", "/tmp/svc", "--port", "8097", "--fleet", "2"],
        {"port": 8097, "root": "/tmp/svc"},
    ),
    (
        "client submit",
        [
            "client", "--url", "http://127.0.0.1:8097", "submit", "vax", "mips", "--workers",
            "auto", "--wait",
        ],
        {
            "targets": ["vax", "mips"],
            "url": "http://127.0.0.1:8097",
            "wait": True,
            "workers": "auto",
        },
    ),
    (
        "discover",
        ["discover", "vax", "--cache-url", "http://127.0.0.1:8097"],
        {"cache_url": "http://127.0.0.1:8097", "target": "vax"},
    ),
    ("targets", ["targets", "--json"], {"json": True}),
    ("cache-info", ["cache-info", "/tmp/svc/cache"], {"directory": "/tmp/svc/cache"}),
    (
        "client submit",
        [
            "client", "--url", "http://127.0.0.1:8097", "submit", "vax", "--priority", "10",
            "--deadline-s", "3600",
        ],
        {"deadline_s": 3600.0, "priority": 10, "url": "http://127.0.0.1:8097"},
    ),
    (
        "serve",
        [
            "serve", "--root", "/tmp/svc", "--fleet", "2", "--max-backlog", "32",
            "--cache-max-bytes", "500000000", "--cache-max-age", "604800",
        ],
        {
            "cache_max_age": 604800.0,
            "cache_max_bytes": 500000000,
            "max_backlog": 32,
            "root": "/tmp/svc",
        },
    ),
    ("lint", ["lint", "x86", "--format", "json"], {"format": "json", "targets": ["x86"]}),
    (
        "lint",
        ["lint", "--fail-on", "warning", "--format", "sarif", "--out", "lint.sarif"],
        {"fail_on": "warning", "format": "sarif", "out": "lint.sarif"},
    ),
    (
        "lint",
        ["lint", "--source", "src/repro/discovery"],
        {"source": ["src/repro/discovery"]},
    ),
    ("verify-spec", ["verify-spec"], {}),
    (
        "verify-spec",
        ["verify-spec", "vax", "--format", "json", "--jobs", "4"],
        {"format": "json", "jobs": 4, "targets": ["vax"]},
    ),
    (
        "discover",
        ["discover", "mips", "--verify", "--out", "/tmp/report"],
        {"out": "/tmp/report", "target": "mips", "verify": True},
    ),
    (
        "verify-spec",
        ["verify-spec", "--diff", "/tmp/run-a", "/tmp/run-b"],
        {"diff": ["/tmp/run-a", "/tmp/run-b"]},
    ),
    # one minimal line per parser: pins every default
    ("discover", ["discover"], {}),
    ("discover", ["discover", "vax"], {"target": "vax"}),
    ("campaign", ["campaign", "vax", "--root", "R"], {}),
    ("cache-info", ["cache-info", "D"], {}),
    ("serve", ["serve", "--root", "R"], {}),
    ("client submit", ["client", "--url", "U", "submit", "vax"], {}),
    ("client status", ["client", "--url", "U", "status", "J"], {}),
    ("client wait", ["client", "--url", "U", "wait", "J"], {}),
    ("client spec", ["client", "--url", "U", "spec", "J"], {}),
    ("client cancel", ["client", "--url", "U", "cancel", "J"], {}),
    ("client stats", ["client", "--url", "U", "stats"], {}),
    ("client jobs", ["client", "--url", "U", "jobs"], {}),
    ("client readyz", ["client", "--url", "U", "readyz"], {}),
    ("retarget", ["retarget", "vax", "--program", "P"], {}),
    ("run", ["run", "vax", "--program", "P"], {}),
    # every flag of every parser at once
    (
        "discover",
        [
            "discover", "x86", "--out", "O", "--seed", "3", "--flaky", "0.5", "--fault-seed",
            "9", "--max-retries", "2", "--workers", "auto", "--extract-procs", "2",
            "--cache-dir", "C", "--cache-url", "http://h:1", "--no-cache", "--latency",
            "0.01", "--run-dir", "D", "--resume", "RD", "--checkpoint-every", "3",
            "--crash-at", "before:synthesis", "--crash-kill", "--heartbeat-every", "1.5",
            "--verify", "--votes", "5",
        ],
        {
            "cache_dir": "C",
            "cache_url": "http://h:1",
            "checkpoint_every": 3,
            "crash_at": "before:synthesis",
            "crash_kill": True,
            "extract_procs": 2,
            "fault_seed": 9,
            "flaky": 0.5,
            "heartbeat_every": 1.5,
            "latency": 0.01,
            "max_retries": 2,
            "no_cache": True,
            "out": "O",
            "resume": "RD",
            "run_dir": "D",
            "seed": 3,
            "target": "x86",
            "verify": True,
            "votes": 5,
            "workers": "auto",
        },
    ),
    (
        "campaign",
        [
            "campaign", "x86", "sparc", "--root", "R", "--fleet", "4", "--seed", "3",
            "--cache-dir", "C", "--cache-url", "http://h:1", "--workers", "2",
            "--max-attempts", "7", "--backoff", "0.25", "--escalate-after", "3",
            "--escalate-votes", "5", "--heartbeat-every", "0", "--lease-timeout", "20",
            "--deadline", "100", "--chaos-kills", "2", "--chaos-seed", "11",
        ],
        {
            "backoff": 0.25,
            "cache_dir": "C",
            "cache_url": "http://h:1",
            "chaos_kills": 2,
            "chaos_seed": 11,
            "deadline": 100.0,
            "escalate_after": 3,
            "escalate_votes": 5,
            "fleet": 4,
            "heartbeat_every": 0.0,
            "lease_timeout": 20.0,
            "max_attempts": 7,
            "seed": 3,
            "targets": ["x86", "sparc"],
            "workers": 2,
        },
    ),
    (
        "serve",
        [
            "serve", "--root", "R", "--host", "0.0.0.0", "--port", "1234", "--fleet", "3",
            "--cache-dir", "C", "--heartbeat-every", "1", "--lease-timeout", "5",
            "--poll-interval", "0.1", "--clients", "F", "--max-backlog", "9",
            "--cache-max-bytes", "1000", "--cache-max-age", "60.5", "--gc-interval", "2",
            "--drain-timeout", "4",
        ],
        {
            "cache_dir": "C",
            "cache_max_age": 60.5,
            "cache_max_bytes": 1000,
            "clients": "F",
            "drain_timeout": 4.0,
            "fleet": 3,
            "gc_interval": 2.0,
            "heartbeat_every": 1.0,
            "host": "0.0.0.0",
            "lease_timeout": 5.0,
            "max_backlog": 9,
            "poll_interval": 0.1,
            "port": 1234,
        },
    ),
    (
        "client submit",
        [
            "client", "--url", "U", "--token", "T", "submit", "alpha", "m68k", "--seed", "4",
            "--workers", "3", "--max-attempts", "2", "--escalate-votes", "3", "--priority",
            "-5", "--deadline-s", "9.5", "--wait", "--timeout", "30",
        ],
        {
            "deadline_s": 9.5,
            "escalate_votes": 3,
            "max_attempts": 2,
            "priority": -5,
            "seed": 4,
            "targets": ["alpha", "m68k"],
            "timeout": 30.0,
            "token": "T",
            "wait": True,
            "workers": 3,
        },
    ),
    (
        "lint",
        [
            "lint", "x86", "vax", "--source", "a", "--source", "b", "--format", "json",
            "--fail-on", "never", "--out", "F", "--seed", "2", "--jobs", "3", "--model",
        ],
        {
            "fail_on": "never",
            "format": "json",
            "jobs": 3,
            "model": True,
            "out": "F",
            "seed": 2,
            "source": ["a", "b"],
            "targets": ["x86", "vax"],
        },
    ),
    (
        "verify-spec",
        [
            "verify-spec", "x86", "--diff", "A", "B", "--format", "text", "--fail-on",
            "warning", "--out", "F", "--seed", "2", "--jobs", "3",
        ],
        {
            "diff": ["A", "B"],
            "fail_on": "warning",
            "jobs": 3,
            "out": "F",
            "seed": 2,
            "targets": ["x86"],
        },
    ),
    (
        "retarget",
        ["retarget", "x86", "mips", "--program", "-", "--seed", "5"],
        {"program": "-", "seed": 5, "targets": ["x86", "mips"]},
    ),
    (
        "run",
        ["run", "sparc", "--program", "-", "--emit-asm", "--seed", "5"],
        {"emit_asm": True, "program": "-", "seed": 5, "target": "sparc"},
    ),
    ("cache-info", ["cache-info", "D", "--json"], {"json": True}),
]

#: CampaignSupervisor._worker_argv launches: argv after "-m repro", and
#: the values that differ from DEFAULTS["discover"]
WORKER_LINES = {
    "fresh": (
        [
            "discover", "vax", "--run-dir", "root/vax/run", "--seed", "7", "--cache-dir",
            "cache", "--cache-url", "http://127.0.0.1:8097", "--out", "root/vax/out",
            "--workers", "auto", "--heartbeat-every", "0.5",
        ],
        {
            "cache_dir": "cache",
            "cache_url": "http://127.0.0.1:8097",
            "heartbeat_every": 0.5,
            "out": "root/vax/out",
            "run_dir": "root/vax/run",
            "seed": 7,
            "target": "vax",
            "workers": "auto",
        },
    ),
    "adopted": (
        [
            "discover", "--resume", "root/vax/run", "--out", "root/vax/out", "--workers",
            "auto", "--heartbeat-every", "0.5",
        ],
        {
            "heartbeat_every": 0.5,
            "out": "root/vax/out",
            "resume": "root/vax/run",
            "workers": "auto",
        },
    ),
    "escalated": (
        [
            "discover", "vax", "--run-dir", "root/vax/run", "--seed", "7", "--cache-dir",
            "cache", "--cache-url", "http://127.0.0.1:8097", "--out", "root/vax/out",
            "--workers", "4", "--heartbeat-every", "0.5", "--workers", "1", "--no-cache",
            "--votes", "5",
        ],
        {
            "cache_dir": "cache",
            "cache_url": "http://127.0.0.1:8097",
            "heartbeat_every": 0.5,
            "no_cache": True,
            "out": "root/vax/out",
            "run_dir": "root/vax/run",
            "seed": 7,
            "target": "vax",
            "votes": 5,
            "workers": 1,
        },
    ),
    "chaos": (
        [
            "discover", "vax", "--run-dir", "root/vax/run", "--seed", "7", "--cache-dir",
            "cache", "--cache-url", "http://127.0.0.1:8097", "--out", "root/vax/out",
            "--workers", "auto", "--heartbeat-every", "0.5", "--crash-at",
            "sample:mutation_analysis:2", "--crash-kill",
        ],
        {
            "cache_dir": "cache",
            "cache_url": "http://127.0.0.1:8097",
            "crash_at": "sample:mutation_analysis:2",
            "crash_kill": True,
            "heartbeat_every": 0.5,
            "out": "root/vax/out",
            "run_dir": "root/vax/run",
            "seed": 7,
            "target": "vax",
            "workers": "auto",
        },
    ),
}

#: option strings and positionals of every parser
HELP = {
    "targets": (["--help", "--json", "-h"], []),
    "discover": (
        [
            "--cache-dir", "--cache-url", "--checkpoint-every", "--crash-at", "--crash-kill",
            "--extract-procs", "--fault-seed", "--flaky", "--heartbeat-every", "--help",
            "--latency", "--max-retries", "--no-cache", "--out", "--resume", "--run-dir",
            "--seed", "--verify", "--votes", "--workers", "-h",
        ],
        ["target"],
    ),
    "campaign": (
        [
            "--backoff", "--cache-dir", "--cache-url", "--chaos-kills", "--chaos-seed",
            "--deadline", "--escalate-after", "--escalate-votes", "--fleet",
            "--heartbeat-every", "--help", "--lease-timeout", "--max-attempts", "--root",
            "--seed", "--workers", "-h",
        ],
        ["targets"],
    ),
    "cache-info": (["--help", "--json", "-h"], ["directory"]),
    "serve": (
        [
            "--cache-dir", "--cache-max-age", "--cache-max-bytes", "--clients",
            "--drain-timeout", "--fleet", "--gc-interval", "--heartbeat-every", "--help",
            "--host", "--lease-timeout", "--max-backlog", "--poll-interval", "--port",
            "--root", "-h",
        ],
        [],
    ),
    "client": (["--help", "--token", "--url", "-h"], ["action"]),
    "client submit": (
        [
            "--deadline-s", "--escalate-votes", "--help", "--max-attempts", "--priority",
            "--seed", "--timeout", "--wait", "--workers", "-h",
        ],
        ["targets"],
    ),
    "client status": (["--help", "-h"], ["job"]),
    "client wait": (["--help", "--timeout", "-h"], ["job"]),
    "client spec": (["--help", "--out", "-h"], ["job"]),
    "client cancel": (["--help", "-h"], ["job"]),
    "client stats": (["--help", "-h"], []),
    "client jobs": (["--help", "-h"], []),
    "client readyz": (["--help", "-h"], []),
    "retarget": (["--help", "--program", "--seed", "-h"], ["targets"]),
    "run": (["--emit-asm", "--help", "--program", "--seed", "-h"], ["target"]),
    "lint": (
        [
            "--fail-on", "--format", "--help", "--jobs", "--model", "--out", "--seed",
            "--source", "-h",
        ],
        ["targets"],
    ),
    "verify-spec": (
        ["--diff", "--fail-on", "--format", "--help", "--jobs", "--out", "--seed", "-h"],
        ["targets"],
    ),
}

ERRORS = [
    ["discover", "pdp11"],
    ["lint", "x86", "--format", "xml"],
    ["discover", "x86", "--flaky", "2"],
    ["discover", "x86", "--workers", "many"],
    ["client", "--url", "U"],
]

def _parse(argv):
    return vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "parser, argv, changed", LINES, ids=[" ".join(argv) for _, argv, _ in LINES]
)
def test_line_parses_as_recorded(parser, argv, changed):
    assert _parse(argv) == {**DEFAULTS[parser], **changed}


def _worker_argv(kind):
    supervisor = CampaignSupervisor(
        ["vax"],
        "root",
        seed=7,
        cache_dir="cache",
        cache_url=URL,
        workers=4 if kind == "escalated" else "auto",
        heartbeat_every=0.5,
        policy=CampaignPolicy(escalate_votes=5),
        kill_plan=FleetKillPlan.explicit({"vax": ["sample:mutation_analysis:2"]})
        if kind == "chaos"
        else None,
    )
    campaign = supervisor.campaigns[0]
    campaign.attempts = 1
    if kind == "adopted":
        campaign.run_dir.mkdir(parents=True)
        (campaign.run_dir / "run.json").write_text("{}")
    if kind == "escalated":
        campaign.failures = [{}, {}]  # policy.escalate_after
    return supervisor._worker_argv(campaign)


@pytest.mark.parametrize("kind", list(WORKER_LINES))
def test_worker_launch_parses_as_recorded(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative run directories: literal paths
    argv, changed = WORKER_LINES[kind]
    assert _worker_argv(kind) == [sys.executable, "-m", "repro", *argv]
    assert _parse(argv) == {**DEFAULTS["discover"], **changed}


@pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
def test_bad_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"repro {argv[0]}: error:" in capsys.readouterr().err


def test_handler_usage_errors_return_2(capsys):
    assert main(["verify-spec", "pdp11"]) == 2
    assert capsys.readouterr().err.startswith("unknown target(s): pdp11 (choose from ")
    assert main(["discover"]) == 2
    assert "a target (or --resume RUNDIR) is required" in capsys.readouterr().err


def _subparsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                label = f"{prefix} {name}".strip()
                yield label, sub
                yield from _subparsers(sub, label)


def test_every_parser_renders_help_with_the_recorded_options():
    parser = build_parser()
    assert parser.format_help()
    seen = {}
    for label, sub in _subparsers(parser):
        assert sub.format_help()
        seen[label] = (
            sorted(flag for action in sub._actions for flag in action.option_strings),
            [action.dest for action in sub._actions if not action.option_strings],
        )
    assert seen == HELP
