from setuptools import Extension, setup

# optional: a failed build (no compiler, etc.) only warns, and the package
# falls back to the pure-Python kernel at import time.
setup(
    ext_modules=[
        Extension("secdom._kernel", ["src/secdom/_kernel.c"], optional=True)
    ],
)
