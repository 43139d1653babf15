package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// transientErr is a test double for an injected transient failure.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// permanentErr is a test double for an explicitly permanent failure.
type permanentErr struct{ msg string }

func (e *permanentErr) Error() string   { return e.msg }
func (e *permanentErr) Transient() bool { return false }

func TestExecuteSucceedsFirstAttempt(t *testing.T) {
	rr := Execute(context.Background(), func(ctx context.Context) error { return nil })
	if rr.Err != nil || rr.Panic != nil || rr.Attempts != 1 {
		t.Errorf("RunResult = %+v", rr)
	}
	if rr.Elapsed < 0 {
		t.Errorf("Elapsed = %v", rr.Elapsed)
	}
}

func TestExecuteRetriesTransientToSuccess(t *testing.T) {
	calls := 0
	rr := Execute(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return &transientErr{"flaky"}
		}
		return nil
	})
	if rr.Err != nil || rr.Attempts != 3 || calls != 3 {
		t.Errorf("RunResult = %+v, calls = %d", rr, calls)
	}
}

func TestExecuteExhaustsRetryBudget(t *testing.T) {
	// A persistent transient failure gets exactly three attempts, and the
	// gaps between them are at least the two backoff floors (2.5ms, 5ms).
	var starts []time.Time
	rr := Execute(context.Background(), func(ctx context.Context) error {
		starts = append(starts, time.Now())
		return &transientErr{"never heals"}
	})
	if rr.Err == nil || rr.Attempts != 3 || len(starts) != 3 {
		t.Fatalf("RunResult = %+v, calls = %d", rr, len(starts))
	}
	for i, floor := range []time.Duration{2500 * time.Microsecond, 5 * time.Millisecond} {
		if gap := starts[i+1].Sub(starts[i]); gap < floor {
			t.Errorf("backoff before attempt %d = %v, want ≥ %v", i+2, gap, floor)
		}
	}
	if rr.Elapsed < 7500*time.Microsecond {
		t.Errorf("Elapsed = %v, want ≥ 7.5ms of backoff", rr.Elapsed)
	}
}

func TestExecutePermanentErrorNotRetried(t *testing.T) {
	calls := 0
	rr := Execute(context.Background(), func(ctx context.Context) error {
		calls++
		return errors.New("determinism violation")
	})
	if rr.Err == nil || rr.Attempts != 1 || calls != 1 {
		t.Errorf("RunResult = %+v, calls = %d", rr, calls)
	}
}

func TestExecuteCapturesPanic(t *testing.T) {
	calls := 0
	rr := Execute(context.Background(), func(ctx context.Context) error {
		calls++
		panic("boom")
	})
	if rr.Panic != "boom" || rr.Attempts != 1 || calls != 1 {
		t.Errorf("RunResult = %+v, calls = %d", rr, calls)
	}
	if rr.Err == nil || !strings.Contains(rr.Err.Error(), "panic: boom") {
		t.Errorf("Err = %v", rr.Err)
	}
	var pe *PanicError
	if !errors.As(rr.Err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %+v", pe)
	}
}

func TestExecuteCanceledContextRefusesRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	rr := Execute(ctx, func(ctx context.Context) error {
		calls++
		return nil
	})
	if calls != 0 {
		t.Errorf("canceled context still ran %d attempts", calls)
	}
	if !errors.Is(rr.Err, context.Canceled) {
		t.Errorf("Err = %v", rr.Err)
	}
}

func TestExecuteCancelStopsRetrying(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	rr := Execute(ctx, func(ctx context.Context) error {
		calls++
		cancel()
		return &transientErr{"flaky"}
	})
	if calls != 1 {
		t.Errorf("kept retrying after cancel: %d calls", calls)
	}
	if !errors.Is(rr.Err, context.Canceled) {
		t.Errorf("Err = %v, want the cancellation", rr.Err)
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
	if IsRetryable(err) {
		t.Error("deadline expiry classified retryable")
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

func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{&transientErr{"x"}, true},
		{fmt.Errorf("wrap: %w", &transientErr{"x"}), true},
		{&fs.PathError{Op: "open", Path: "/x", Err: errors.New("io")}, true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("run refused: %w", context.Canceled), false},
		{&PanicError{Value: "boom"}, false},

		// Wrapping must never change the verdict of the underlying cause.
		// A *fs.PathError buried under the disk cache's error prefix is the
		// exact shape Disk.Load/Store produce on I/O failure.
		{fmt.Errorf("runner: cache read %q: %w", "/c/abc.json",
			&fs.PathError{Op: "read", Path: "/c/abc.json", Err: errors.New("input/output error")}), true},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w",
			&fs.PathError{Op: "open", Path: "/x", Err: errors.New("io")})), true},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", &transientErr{"deep"})), true},
		{fmt.Errorf("wrap: %w", io.ErrUnexpectedEOF), true},

		// errors.Join trees: a transient branch anywhere makes the whole
		// failure worth retrying; all-permanent branches do not.
		{errors.Join(errors.New("plain"), &transientErr{"joined"}), true},
		{errors.Join(errors.New("plain"), fmt.Errorf("wrap: %w", &transientErr{"deep joined"})), true},
		{errors.Join(errors.New("plain"), errors.New("also plain")), false},

		// An explicit permanent classification is deliberate: it beats the
		// structural fs.PathError heuristic even when both are in the chain.
		{&permanentErr{"gave up"}, false},
		{fmt.Errorf("wrap: %w", &permanentErr{"gave up"}), false},
		{errors.Join(&permanentErr{"gave up"},
			&fs.PathError{Op: "open", Path: "/x", Err: errors.New("io")}), false},
		// …but an explicit transient verdict elsewhere still wins.
		{errors.Join(&permanentErr{"gave up"}, &transientErr{"retry me"}), true},

		// Cancellation/expiry stay permanent no matter how deeply wrapped or
		// what they are joined with.
		{fmt.Errorf("a: %w", fmt.Errorf("b: %w", context.DeadlineExceeded)), false},
		{errors.Join(&transientErr{"x"}, context.Canceled), false},
		// A panic wrapped in a transient join is still a crash, not a retry.
		{errors.Join(&transientErr{"x"}, &PanicError{Value: "boom"}), false},
	}
	for i, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("case %d (%v): IsRetryable = %v, want %v", i, c.err, got, c.want)
		}
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	// The jitter sample u in [0, 1) scales each sleep into [d/2, d): the
	// first retry waits [2.5, 5) ms, the second [5, 10) ms.
	cases := []struct {
		retry  int
		lo, hi time.Duration
	}{
		{1, 2500 * time.Microsecond, 5 * time.Millisecond},
		{2, 5 * time.Millisecond, 10 * time.Millisecond},
	}
	for _, c := range cases {
		if d := backoff(c.retry, 0); d != c.lo {
			t.Errorf("retry %d, u=0: backoff %v, want %v", c.retry, d, c.lo)
		}
		if d := backoff(c.retry, math.Nextafter(1, 0)); d < c.lo || d >= c.hi {
			t.Errorf("retry %d, u→1: backoff %v outside [%v, %v)", c.retry, d, c.lo, c.hi)
		}
		for i := 0; i < 100; i++ {
			if d := backoff(c.retry, rand.Float64()); d < c.lo || d >= c.hi {
				t.Errorf("retry %d: backoff %v outside [%v, %v)", c.retry, d, c.lo, c.hi)
			}
		}
	}
}
