package telemetry

import (
	"sync"
	"testing"
)

func TestHealthConcurrentCounting(t *testing.T) {
	h := new(Health)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Runs.Add(1)
				h.Failures.Add(2)
			}
		}()
	}
	wg.Wait()
	if runs, failures := h.Runs.Load(), h.Failures.Load(); runs != 800 || failures != 1600 {
		t.Errorf("runs=%d failures=%d, want 800 and 1600", runs, failures)
	}
}
