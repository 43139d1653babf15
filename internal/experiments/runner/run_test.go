package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// A successful run is executed exactly once, on both the deadline and the
// inline path: there is no second attempt.
func TestExecuteSucceedsFirstAttempt(t *testing.T) {
	for _, timeout := range []time.Duration{time.Second, 0} {
		calls := 0
		v, err := Bounded(context.Background(), timeout, func() (int, error) {
			calls++
			return 7, nil
		})
		if v != 7 || err != nil || calls != 1 {
			t.Errorf("timeout %v: Bounded = (%d, %v), calls = %d", timeout, v, err, calls)
		}
	}
}

// A panicking run is executed once and its panic is returned as a
// *PanicError whose message carries the value only, no stack, so failure
// reasons stay byte-identical across runs; the stack is kept separately.
func TestExecuteCapturesPanic(t *testing.T) {
	for _, timeout := range []time.Duration{time.Second, 0} {
		calls := 0
		_, err := Bounded(context.Background(), timeout, func() (int, error) {
			calls++
			panic("boom")
		})
		if calls != 1 {
			t.Errorf("timeout %v: calls = %d", timeout, calls)
		}
		if err == nil || err.Error() != "panic: boom" {
			t.Errorf("timeout %v: err = %v", timeout, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Errorf("timeout %v: PanicError = %+v", timeout, pe)
		}
	}
}

func TestBoundedCompletesInTime(t *testing.T) {
	v, err := Bounded(context.Background(), time.Second, func() (int, error) { return 41, nil })
	if v != 41 || err != nil {
		t.Errorf("Bounded = (%d, %v)", v, err)
	}
	// No deadline at all: inline fast path.
	v, err = Bounded(context.Background(), 0, func() (int, error) { return 42, nil })
	if v != 42 || err != nil {
		t.Errorf("unbounded = (%d, %v)", v, err)
	}
}

func TestBoundedDeadlineAbandonsRun(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	start := time.Now()
	_, err := Bounded(context.Background(), 20*time.Millisecond, func() (int, error) {
		<-block
		return 1, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

func TestBoundedPanicBecomesError(t *testing.T) {
	_, err := Bounded(context.Background(), time.Second, func() (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Errorf("err = %v", err)
	}
	// Same on the inline (no-deadline) path.
	_, err = Bounded(context.Background(), 0, func() (int, error) { panic("kaboom") })
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Errorf("inline err = %v", err)
	}
}

func TestBoundedRefusesCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Bounded(ctx, 0, func() (int, error) {
		calls++
		return 1, nil
	})
	if calls != 0 {
		t.Errorf("canceled context still ran %d times", calls)
	}
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "run refused") {
		t.Errorf("err = %v", err)
	}
}
