package sim

import "fmt"

// ErrMaxCycles reports a simulation that ran past its configured cycle
// budget. It carries the kernel name and the limit so callers (the
// nymbled daemon in particular) can attribute the overrun to a specific
// request and map it to a client error instead of a server fault.
type ErrMaxCycles struct {
	// Kernel is the name of the kernel that overran.
	Kernel string
	// Limit is the MaxCycles budget that was exceeded.
	Limit int64
}

func (e *ErrMaxCycles) Error() string {
	return fmt.Sprintf("sim: kernel %q exceeded MaxCycles=%d", e.Kernel, e.Limit)
}

// ErrCanceled reports a simulation stopped by its context (cancellation
// or deadline). Cause is the context's error, so errors.Is works against
// context.Canceled and context.DeadlineExceeded.
type ErrCanceled struct {
	// Kernel is the name of the kernel that was interrupted.
	Kernel string
	// Cycle is the simulated cycle at which the engine observed the
	// cancellation.
	Cycle int64
	// Cause is ctx.Err(): context.Canceled or context.DeadlineExceeded.
	Cause error
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("sim: kernel %q stopped at cycle %d: %v", e.Kernel, e.Cycle, e.Cause)
}

func (e *ErrCanceled) Unwrap() error { return e.Cause }

// ErrDeadlock reports a simulation that stopped making progress with
// threads still unfinished and no pending event left to wake them.
type ErrDeadlock struct {
	// Kernel is the name of the kernel that deadlocked.
	Kernel string
	// Cycle is the simulated cycle at which no progress was possible.
	Cycle int64
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d (no progress and no pending events)", e.Cycle)
}
