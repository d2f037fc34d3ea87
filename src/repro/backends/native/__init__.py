"""Runtime bridge for the native C kernel tier.

Imported from one place outside this package: the compiled backend's
``prepare``, when it runs under the registry name ``native``.  Three small
modules with a strict division of labor:

* :mod:`repro.backends.native.toolchain` -- compiler detection,
  fingerprinting and shared-object compilation (no loading);
* :mod:`repro.backends.native.bridge` -- the *only* module in the
  backends tree that loads shared objects (enforced by ``make
  lint-arch``);
* :mod:`repro.backends.native.kernels` -- :class:`KernelTier`, the object
  a program prepared under ``native`` holds: emit, compile (or reload),
  probe, load, and ``try_run`` per scope.

The C code itself is produced by the ``native-c`` emitter in the codegen
layer (:mod:`repro.backends.codegen.native_c`); this package only builds,
loads and invokes it.
"""

from repro.backends.native.kernels import KernelTier
from repro.backends.native.toolchain import (
    CC_ENV,
    NATIVE_CFLAGS,
    Toolchain,
    detect_toolchain,
)

__all__ = [
    "KernelTier",
    "CC_ENV",
    "NATIVE_CFLAGS",
    "Toolchain",
    "detect_toolchain",
]
