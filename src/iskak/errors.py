"""Failure modes shared across the solvers."""


class DepthTooSmallError(ValueError):
    """Total depth dropped below the configured floor."""

    def __init__(self, min_depth: float, floor: float):
        self.min_depth = min_depth
        self.floor = floor
        # shortest round-trip digits: 0.09999999999999998 must not print as the floor 0.1
        super().__init__(f"min depth {min_depth!r} below floor {floor!r}")


class NonConvergenceError(RuntimeError):
    """Iterative solve hit its iteration cap; carries the final residual."""

    def __init__(self, what: str, iterations: int, residual: float, tol: float):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"{what}: no convergence in {iterations} iterations "
            f"(residual {residual:.3e}, tol {tol:.3e})"
        )


class BlowUpError(RuntimeError):
    """A field exceeded the max-norm guard during time stepping."""

    def __init__(self, time: float, max_norm: float, guard: float):
        self.time = time
        self.max_norm = max_norm
        self.guard = guard
        super().__init__(f"blow-up at t={time:.6g}: max norm {max_norm:.3e} > {guard:.3e}")


class SingularSystemError(RuntimeError):
    """A linear system is numerically singular (a flat strip mode, a GMRES breakdown)."""


# what a run reports as aborted and the CLI as a failed experiment
SOLVER_ERRORS = (BlowUpError, DepthTooSmallError, NonConvergenceError, SingularSystemError,
                 FloatingPointError)
