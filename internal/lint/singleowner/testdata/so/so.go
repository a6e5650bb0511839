// Package so exercises the singleowner analyzer: a device model that
// guards its state with a mutex and an atomic counter, the per-device
// hardening the single-owner rule replaces.
package so

import (
	"math"
	"sync"        // want `node-model package imports sync; its devices are owned by the stepping goroutine`
	"sync/atomic" // want `node-model package imports sync/atomic`
)

// Fan guards its rotor with its own mutex: flagged through the import.
type Fan struct {
	mu    sync.Mutex
	rpm   float64
	steps atomic.Uint64
}

// Step advances the rotor.
func (f *Fan) Step(target float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rpm += 0.5 * (target - f.rpm)
	f.steps.Add(1)
}

// RPM is a plain owner-side read: nothing to flag on its own.
func (f *Fan) RPM() float64 { return math.Round(f.rpm) }
