"""Shared fixtures for the test suite.

The expensive objects (full XCBC builds, XNIT-integrated Limulus) are
module-scoped where tests only read them; tests that mutate state build
their own instances.
"""

from __future__ import annotations

import pytest

from repro.core.machines import ExistingCluster, build_limulus_cluster
from repro.core.xcbc import XcbcBuildReport, build_xcbc_cluster
from repro.core.xnit import build_xnit_repository, integrate_host, setup_via_manual_repo_file
from repro.distro import CENTOS_6_5, Host
from repro.hardware import (
    build_limulus_hpc200,
    build_littlefe_modified,
    build_littlefe_original,
)
from repro.network import build_cluster_network


@pytest.fixture
def littlefe_machine():
    """A fresh modified-LittleFe machine (mutable per test)."""
    return build_littlefe_modified().machine


@pytest.fixture
def limulus_machine():
    """A fresh Limulus HPC200 machine (mutable per test)."""
    return build_limulus_hpc200().machine


@pytest.fixture
def littlefe_quote():
    return build_littlefe_modified()


@pytest.fixture
def limulus_quote():
    return build_limulus_hpc200()


@pytest.fixture
def original_littlefe_quote():
    return build_littlefe_original()


@pytest.fixture
def frontend_host(littlefe_machine):
    """A bare CentOS 6.5 host on the LittleFe head node."""
    return Host(littlefe_machine.head, CENTOS_6_5)


@pytest.fixture
def littlefe_network(littlefe_machine):
    return build_cluster_network(littlefe_machine)


@pytest.fixture(scope="session")
def xcbc_littlefe() -> XcbcBuildReport:
    """One full XCBC build, shared by read-only tests."""
    return build_xcbc_cluster(build_littlefe_modified().machine)


@pytest.fixture(scope="session")
def xnit_limulus() -> ExistingCluster:
    """One Limulus fully integrated via XNIT, shared by read-only tests."""
    cluster = build_limulus_cluster()
    repo = build_xnit_repository()
    for client in cluster.all_clients():
        setup_via_manual_repo_file(client, repo)
        integrate_host(client, full_toolkit=True)
    return cluster


@pytest.fixture(scope="session")
def flow_run(tmp_path_factory):
    """``flow_run(flow)``: the ``(outcome, jsonl)`` of one run of a
    ``tools/flows.py`` row, run once per session and shared by the tests
    that read it."""
    runs = {}

    def run(flow):
        if flow.name not in runs:
            runs[flow.name] = flow.run(tmp_path_factory.mktemp("flow"))
        return runs[flow.name]

    return run
