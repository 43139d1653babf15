package simserver

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for admission tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBucketBurstThenShed(t *testing.T) {
	clock := newFakeClock()
	b := newBucket(10, 3, 0) // 3 burst, no waiter queue
	b.now = clock.Now
	b.tokens = 3
	b.last = clock.Now()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Acquire(ctx); err != nil {
			t.Fatalf("burst acquire %d: %v", i, err)
		}
	}
	err := b.Acquire(ctx)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("4th acquire: got %v, want *ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want positive", shed.RetryAfter)
	}
}

func TestBucketRefillsAtRate(t *testing.T) {
	clock := newFakeClock()
	b := newBucket(10, 5, 0) // 10 tokens/sec
	b.now = clock.Now
	b.tokens = 0
	b.last = clock.Now()
	ctx := context.Background()
	if err := b.Acquire(ctx); !errors.As(err, new(*ShedError)) {
		t.Fatalf("empty bucket admitted: %v", err)
	}
	clock.Advance(250 * time.Millisecond) // 2.5 tokens accrue
	for i := 0; i < 2; i++ {
		if err := b.Acquire(ctx); err != nil {
			t.Fatalf("post-refill acquire %d: %v", i, err)
		}
	}
	if err := b.Acquire(ctx); !errors.As(err, new(*ShedError)) {
		t.Fatalf("over-refill admitted: %v", err)
	}
	// Refill never exceeds the burst.
	clock.Advance(time.Hour)
	b.mu.Lock()
	b.refill()
	if b.tokens > b.burst {
		t.Errorf("tokens %v exceed burst %v", b.tokens, b.burst)
	}
	b.mu.Unlock()
}

func TestBucketQueuedAcquireAdmitsWhenTokensAccrue(t *testing.T) {
	b := newBucket(200, 1, 8) // fast real-time refill
	ctx := context.Background()
	if err := b.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Bucket is now empty; this acquire must queue and then be admitted as
	// real time passes (5ms per token at rate 200).
	done := make(chan error, 1)
	go func() { done <- b.Acquire(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire never admitted")
	}
	if w := b.Waiters(); w != 0 {
		t.Errorf("Waiters() = %d after queue drained", w)
	}
}

func TestBucketCanceledWaiterReturnsCtxError(t *testing.T) {
	b := newBucket(0.001, 1, 8) // glacial refill: waiters park
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Acquire(ctx) }()
	// Give the waiter time to park, then abandon it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
}

func TestBucketQueueBoundSheds(t *testing.T) {
	b := newBucket(0.001, 1, 2)
	ctx := context.Background()
	if err := b.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Fill the waiter queue.
	ctxWait, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go b.Acquire(ctxWait)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Waiters() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The queue is full: the next acquire sheds instead of queuing.
	err := b.Acquire(ctx)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-bound acquire: got %v, want *ShedError", err)
	}
}
