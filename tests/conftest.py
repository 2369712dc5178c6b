import importlib.util
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, PlatformError

KERNEL_C = Path(__file__).resolve().parent.parent / "src" / "secdom" / "_kernel.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The `_kernel` extension, built from src/secdom/_kernel.c into a
    temporary directory and loaded from there.  Nothing is written under
    src/, so `import secdom` keeps selecting whatever backend it would
    without the tests.  Skips when no C compiler works."""
    out = tmp_path_factory.mktemp("kernel")
    dist = Distribution(
        {"ext_modules": [Extension("secdom._kernel", [str(KERNEL_C)])]}
    )
    cmd = build_ext(dist)
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    try:
        cmd.run()
    except (CCompilerError, PlatformError) as exc:
        pytest.skip(f"no working C compiler: {exc}")
    spec = importlib.util.spec_from_file_location(
        "secdom._kernel", cmd.get_ext_fullpath("secdom._kernel")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
