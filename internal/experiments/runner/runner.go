// Package runner provides the concurrency and fault-tolerance machinery
// behind the experiment suite: a worker pool that bounds how many
// simulations run at once, a keyed in-memory cache with single-flight
// semantics (concurrent requests for the same run share one execution), a
// bounded executor that contains panics and enforces deadlines (run.go),
// and an optional checksummed on-disk result store keyed by canonical
// run-key hashes so interrupted or overlapping sweeps resume instead of
// recomputing (disk.go).
//
// The package is deliberately generic: it knows nothing about the simulator.
// Experiments describe each simulation with a Key (workloads, seeds, trace
// length and the fully-resolved machine configuration) and the cache
// guarantees that one Key maps to at most one execution per process — and,
// with a Disk attached, at most one execution per cache directory lifetime.
// A run is deterministic, so its failure is memoized like its result; only
// a failure caused by the caller's context (cancellation or a deadline)
// leaves the key to compute again. The disk stores successes only.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Pool bounds the number of concurrently executing simulations. It is a
// counting semaphore: Run blocks until a slot is free, so any number of
// goroutines may request work while at most Jobs() simulations make
// progress.
type Pool struct {
	sem chan struct{}
}

// NewPool creates a pool running at most jobs tasks at once. A non-positive
// jobs defaults to runtime.NumCPU().
func NewPool(jobs int) *Pool {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &Pool{sem: make(chan struct{}, jobs)}
}

// Jobs returns the pool's concurrency bound.
func (p *Pool) Jobs() int { return cap(p.sem) }

// Run executes f once a worker slot is available, blocking until then. The
// slot is released when f returns (or panics).
func (p *Pool) Run(f func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	f()
}

// call is one in-flight or completed computation in a Cache.
type call[V any] struct {
	done     chan struct{}
	val      V
	err      error
	panicked any
}

// Cache is a concurrency-safe memoization map with single-flight semantics:
// the first Do for a key runs the compute function, concurrent Dos for the
// same key wait for that computation, and later Dos return the stored value
// immediately.
//
// Failures are results: a compute is a deterministic function of its key,
// so an error or panic is memoized like a value and every later Do returns
// the same error (or re-raises the same panic) without computing again.
// The one exception is an error wrapping context.Canceled or
// context.DeadlineExceeded: it depends on the caller's context, not on the
// key, so it is delivered to the callers already waiting and the entry is
// re-armed (removed) for the next Do to compute afresh.
type Cache[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// NewCache creates an empty cache.
func NewCache[V any]() *Cache[V] {
	return &Cache[V]{m: make(map[string]*call[V])}
}

// Do returns the outcome for key, computing it via compute at most once per
// cache unless it fails on a context error. fresh reports whether this call
// performed the computation (false for memoization hits and for callers
// that waited on another goroutine's computation). A compute panic is
// re-raised in the computing caller and in every waiting caller.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (val V, fresh bool, err error) {
	c.mu.Lock()
	if cl, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-cl.done
		if cl.panicked != nil {
			panic(cl.panicked)
		}
		return cl.val, false, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	c.m[key] = cl
	c.mu.Unlock()

	defer func() {
		cl.panicked = recover()
		if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded) {
			// The caller's context failed, not the key: deliver the failure
			// to everyone already waiting, but re-arm the entry.
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(cl.done)
		if cl.panicked != nil {
			panic(cl.panicked)
		}
	}()
	cl.val, cl.err = compute()
	return cl.val, true, cl.err
}

// Len returns the number of keys resident in the cache (completed or in
// flight).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
