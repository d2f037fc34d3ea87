"""Code generators (the *codegen* layer of backend lowering).

Backend lowering is a four-stage pipeline (see :mod:`repro.backends`):

    analyze  ->  plan  ->  codegen  ->  execute

The modules here consume the plan IR
(:mod:`repro.backends.plan`) and bind it to a concrete program; the execute
layer imports the one it needs directly:

* :mod:`~repro.backends.codegen.numpy_eager` -- eager NumPy scope kernels
  (plans bound to compiled code objects, fused chains composed);
* :mod:`~repro.backends.codegen.python_driver` -- the whole-program Python
  control-flow driver (the interstate tier).

Layering rule (enforced by ``make lint-arch``): nothing here imports from
:mod:`repro.backends.execute`.
"""
