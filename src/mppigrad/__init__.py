"""Sampling-based trajectory optimization as preconditioned gradient descent.

The package splits into: `problems` (costs, feasibility and the specs'
stepwise dynamics), `qp` (the lifted quadratic program and its verified
reference solver), `sampling` (Gaussian draws and self-normalized weights),
`optimizer` (the sampled preconditioned iteration and exact mode), `analysis`
(exact oracles, smoothness certificates, probes), and `bench` (the CLI
harness).
"""

__version__ = "0.1.0"
