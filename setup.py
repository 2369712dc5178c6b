import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the kernel extension if possible; the package falls back to the
    pure-Python kernel at import time when it is missing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(
                f"warning: skipping compiled kernel ({exc}); "
                "the package uses the pure-Python kernel",
                file=sys.stderr,
            )


setup(
    ext_modules=[Extension("secdom._kernel", ["src/secdom/_kernel.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
