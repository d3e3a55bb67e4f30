package linalg

import (
	"context"
	"fmt"
	"math"
)

// NotConvergedError reports an eigensolve that ran out of its iteration
// budget. Converged carries whatever ascending prefix of the requested
// spectrum did lock before the budget expired — diagnostics for callers
// that degrade gracefully (core escalates to another solver; the prefix
// itself is NOT guaranteed to be the true smallest eigenvalues, so it must
// not be fed back into a lower bound).
type NotConvergedError struct {
	// Solver names the method that gave up ("Lanczos", "Chebyshev").
	Solver string
	// Requested and Converged count the wanted and locked eigenpairs.
	Requested, Converged int
	// Partial holds the locked eigenvalues, ascending (may be empty).
	Partial []float64
	// Reason is a one-line diagnosis of why the solve stalled.
	Reason string
}

func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("linalg: %s did not converge: locked %d of %d requested eigenpairs (%s)",
		e.Solver, e.Converged, e.Requested, e.Reason)
}

// NonFiniteError reports NaN or ±Inf contamination detected at a phase
// boundary: a poisoned operator, an overflowed recurrence, or corrupted
// input. It turns silent numerical corruption into a typed, matchable
// failure instead of letting garbage propagate into a "bound".
type NonFiniteError struct {
	// Where locates the check that fired (e.g. "lanczos step", "input diag").
	Where string
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("linalg: non-finite value detected at %s", e.Where)
}

// CheckFinite returns a *NonFiniteError located at where if any element of
// x is NaN or ±Inf, and nil otherwise.
func CheckFinite(where string, x []float64) error {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NonFiniteError{Where: where}
		}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// ctxErr wraps a context cancellation or deadline error with the solver
// name; it returns nil while ctx is live. Solvers call it at iteration and
// sweep boundaries, where abandoning the run is safe.
func ctxErr(ctx context.Context, solver string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("linalg: %s interrupted: %w", solver, err)
	}
	return nil
}
