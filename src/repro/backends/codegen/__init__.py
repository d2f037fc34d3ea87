"""Code generators (the *codegen* layer of backend lowering).

Backend lowering is a three-stage pipeline (see :mod:`repro.backends`):

    analyze  ->  codegen  ->  execute

The modules here are imported directly by the layer that needs them:

* :mod:`~repro.backends.codegen.numpy_eager` -- the lowering records the
  analyzer builds and the runtime executes (scopes with compiled code
  objects), and the composition of a fused chain's tasklets into one
  kernel;
* :mod:`~repro.backends.codegen.python_driver` -- the whole-program Python
  control-flow driver, one state-dispatch loop per program (the interstate
  tier; the driver alone is generated after analysis).

Layering rule (enforced by ``make lint-arch``): nothing here imports from
:mod:`repro.backends.execute`.
"""
