"""Shared fixtures: one RemoteMachine per target, cached per session."""

import tempfile

import pytest

from repro.machines.machine import RemoteMachine, target_names

TARGETS = target_names()


@pytest.fixture(scope="session", autouse=True)
def system_tempdir(tmp_path_factory):
    """Point :mod:`tempfile`'s default directory into pytest's temporary
    directories for the session: an interrupted discovery started
    without ``run_dir`` persists its checkpoint in a fresh fallback run
    directory there, and pytest removes old ones."""
    saved = tempfile.tempdir
    tempfile.tempdir = str(tmp_path_factory.mktemp("tempdir"))
    yield tempfile.tempdir
    tempfile.tempdir = saved


@pytest.fixture(scope="session")
def machines():
    """Mapping of target name -> RemoteMachine (shared; stats accumulate)."""
    return {name: RemoteMachine(name) for name in TARGETS}


@pytest.fixture(params=TARGETS, scope="session")
def any_machine(request, machines):
    """Parametrized fixture running a test once per simulated target."""
    return machines[request.param]


def run_c(machine, source, headers=None):
    """Compile, assemble, link and execute a single C source."""
    asm = machine.compile_c(source, headers)
    return machine.run_asm([asm])
