"""Structure-preserving simulation and well-posedness checking for
boundary-damped beam models written as first-order evolutionary systems.

The state is trace-augmented: boundary values ride along as extra unknowns,
the spatial operator is skew-adjoint by construction in the discrete inner
product, and dissipation enters only through the symmetric part of the
zeroth-order material law.  A theta time scheme then reproduces the energy
balance to machine precision at theta = 1/2.

Every public name is imported from its module: ``core``, ``discretize``,
``scenarios``, ``wellposed``, ``integrate`` or ``cli``.
"""

__version__ = "0.1.0"
