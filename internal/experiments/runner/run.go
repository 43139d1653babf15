package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// PanicError transports a panic captured inside a governed run as an error
// value, so containment code can treat crashes and failures uniformly. The
// message is stable (the panic value only — no stack, no addresses); the
// stack is retained separately for diagnostics.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

// Error renders the panic value without the stack, keeping failure reasons
// deterministic across runs and job counts.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// protect runs f, converting a panic into a *PanicError.
func protect[V any](f func() (V, error)) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return f()
}

// Bounded runs f under a deadline. When timeout is positive (or ctx already
// carries a deadline/cancellation), f executes on its own goroutine and
// Bounded returns early with a wrapped ctx error if the deadline expires
// first — the abandoned computation keeps running to completion in the
// background (the simulator has no preemption points) but its result is
// discarded. Panics inside f surface as a *PanicError.
func Bounded[V any](ctx context.Context, timeout time.Duration, f func() (V, error)) (V, error) {
	var zero V
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if ctx.Done() == nil {
		return protect(f)
	}
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("run refused: %w", err)
	}
	type outcome struct {
		v   V
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := protect(f)
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		return zero, fmt.Errorf("run abandoned: %w", ctx.Err())
	}
}
