package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
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

// RunResult is the structured outcome of one governed run: how it ended,
// how many attempts it took, and how long it ran. A run either succeeded
// (Err == nil), failed (Err != nil), or crashed (Err wraps a *PanicError,
// also surfaced in Panic) — failures are captured here instead of
// propagating, so one bad run degrades a sweep rather than killing it.
type RunResult struct {
	// Err is the final attempt's failure (nil on success). Context
	// cancellation and deadline expiry surface here wrapped around
	// context.Canceled / context.DeadlineExceeded.
	Err error
	// Panic is the recovered panic value when the final failure was a
	// crash, nil otherwise.
	Panic any
	// Attempts is how many attempts executed (≥1 unless the context was
	// already canceled before the first attempt, which records 1 refused
	// attempt).
	Attempts int
	// Elapsed is the wall time across all attempts, including backoff.
	Elapsed time.Duration
}

// The retry policy is fixed: three attempts, with a 5ms backoff before the
// first retry that doubles before the second. The jitter keeps retrying runs
// from stampeding.
const (
	maxAttempts = 3
	baseDelay   = 5 * time.Millisecond
)

// backoff is the sleep before retry number retry (1-based): d = baseDelay
// doubled per earlier retry, jittered into [d/2, d) by a sample u in [0, 1).
// With maxAttempts 3 the two sleeps fall in [2.5, 5) and [5, 10) ms.
func backoff(retry int, u float64) time.Duration {
	half := (baseDelay << (retry - 1)) / 2
	return half + time.Duration(float64(half)*u)
}

// transientClass is the verdict of an explicit Transient() classification
// found while walking an error chain.
type transientClass int

const (
	classUnknown   transientClass = iota // no Transient() anywhere in the chain
	classPermanent                       // some error said Transient() == false
	classTransient                       // some error said Transient() == true
)

// classifyTransient walks the full wrap chain — fmt.Errorf("…: %w", err),
// errors.Join and custom Unwrap() []error trees included — looking for an
// explicit Transient() classification. A transient verdict anywhere in the
// chain wins: wrapping a retryable fault in context ("cache read …: %w")
// must not silently turn it permanent. An explicit permanent verdict is
// remembered so structural heuristics (fs.PathError) cannot override a
// deliberate classification.
func classifyTransient(err error) transientClass {
	if err == nil {
		return classUnknown
	}
	cls := classUnknown
	if tr, ok := err.(interface{ Transient() bool }); ok {
		if tr.Transient() {
			return classTransient
		}
		cls = classPermanent
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		if c := classifyTransient(u.Unwrap()); c == classTransient {
			return classTransient
		} else if c == classPermanent {
			cls = classPermanent
		}
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			if c := classifyTransient(e); c == classTransient {
				return classTransient
			} else if c == classPermanent {
				cls = classPermanent
			}
		}
	}
	return cls
}

// IsRetryable classifies an error as transient (worth retrying) or
// permanent. Injected transient faults (anything implementing
// Transient() bool, at any depth of the wrap chain), filesystem errors and
// truncated reads are transient; panics, context cancellation/expiry,
// explicit permanent classifications, determinism violations and every
// other failure are permanent. Wrapping — fmt.Errorf("…: %w", err),
// errors.Join, nested chains — never changes the verdict of the underlying
// cause.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return false
	}
	switch classifyTransient(err) {
	case classTransient:
		return true
	case classPermanent:
		return false
	}
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF)
}

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

// Execute runs f under ctx with the fixed retry budget: transient failures
// (IsRetryable) are retried after a jittered, doubling backoff; permanent
// failures, panics and context cancellation end the loop immediately. The
// outcome — including a captured panic, the attempt count and the elapsed
// time — is returned as a RunResult, never propagated.
func Execute(ctx context.Context, f func(ctx context.Context) error) RunResult {
	start := time.Now()
	rr := RunResult{}
	for attempt := 1; ; attempt++ {
		rr.Attempts = attempt
		if err := ctx.Err(); err != nil {
			rr.Err = fmt.Errorf("run refused: %w", err)
			break
		}
		_, err := protect(func() (struct{}, error) { return struct{}{}, f(ctx) })
		rr.Err = err
		if err == nil || !IsRetryable(err) || attempt >= maxAttempts {
			break
		}
		t := time.NewTimer(backoff(attempt, rand.Float64()))
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	var pe *PanicError
	if errors.As(rr.Err, &pe) {
		rr.Panic = pe.Value
	}
	rr.Elapsed = time.Since(start)
	return rr
}
