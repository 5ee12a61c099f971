"""Session fixtures: the operating points most tests share, and the console script."""

import os
import shutil
import sys

import pytest
from hypothesis import settings

import zenocavity as zc

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def space1():
    return zc.full_space(1)


@pytest.fixture(scope="session")
def st_model(space1):
    # canonical single-branch point: g = lam = 1, omega1/g = 0.01
    params = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01)
    return zc.build_branch_model(params, zc.Branch.LEFT, space=space1)


@pytest.fixture(scope="session")
def combined_model(space1):
    params = zc.UniformParams(g=1.0, lam=1.0, omega1=0.01, omega2=0.01, omega3=0.01)
    return zc.build_branch_model(params, zc.Branch.COMBINED, space=space1)


@pytest.fixture(scope="session")
def console_script(tmp_path_factory):
    """The ``zenocavity`` script on ``PATH``: the installed one, or else a stand-in for the
    script pip writes for ``[project.scripts]``, which calls ``zenocavity.cli:entry``."""
    script = shutil.which("zenocavity")
    if script is not None:
        yield script
        return
    bin_dir = tmp_path_factory.mktemp("bin")
    stand_in = bin_dir / "zenocavity"
    stand_in.write_text(f"#!{sys.executable}\nimport sys\nfrom zenocavity.cli import entry\n"
                        "sys.exit(entry())\n")
    stand_in.chmod(0o755)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield shutil.which("zenocavity")
