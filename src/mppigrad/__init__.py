"""Sampling-based trajectory optimization as preconditioned gradient descent.

The package splits into: `problems` (dynamics, costs, feasibility),
`qp` (the lifted quadratic program and its verified reference solver),
`sampling` (Gaussian draws and self-normalized weights), `optimizer`
(the preconditioned iteration, exact mode, receding horizon), `analysis`
(exact oracles, smoothness certificates, probes), and `bench` (the CLI
harness).
"""

__version__ = "0.1.0"
