// Package hwsem models the hardware semaphore of the paper's architecture
// template ("the hardware semaphore connected to the Avalon bus is used to
// handle OpenMP synchronization constructs (critical and barrier)").
// Threads acquire by polling over the bus: a failed attempt retries after a
// fixed round-trip, which is the Spinning state the profiler records.
package hwsem

import "fmt"

// Semaphore is one binary hardware lock.
type Semaphore struct {
	holder int // -1 when free

	// Acquisitions counts successful acquires; Contended counts acquire
	// attempts that found the lock taken.
	Acquisitions int64
	Contended    int64
}

// NewSemaphore returns a free semaphore.
func NewSemaphore() *Semaphore { return &Semaphore{holder: -1} }

// TryAcquire attempts to take the lock for a thread. It returns true on
// success. Re-acquiring while holding is an error (the compiler never emits
// nested unnamed criticals).
func (s *Semaphore) TryAcquire(thread int) (bool, error) {
	if thread < 0 {
		return false, fmt.Errorf("hwsem: invalid thread %d", thread)
	}
	if s.holder == thread {
		return false, fmt.Errorf("hwsem: thread %d re-acquiring held lock", thread)
	}
	if s.holder >= 0 {
		s.Contended++
		return false, nil
	}
	s.holder = thread
	s.Acquisitions++
	return true, nil
}

// Release frees the lock; only the holder may release.
func (s *Semaphore) Release(thread int) error {
	if s.holder != thread {
		return fmt.Errorf("hwsem: thread %d releasing lock held by %d", thread, s.holder)
	}
	s.holder = -1
	return nil
}

// Holder returns the current holder, or -1.
func (s *Semaphore) Holder() int { return s.holder }

// Barrier is an all-thread rendezvous. Threads arrive and block until the
// expected count is reached, at which point the generation advances and all
// waiters are released.
type Barrier struct {
	expected int
	arrived  int
	gen      int64

	// Waits counts total arrivals; Releases counts barrier completions.
	Waits    int64
	Releases int64
}

// NewBarrier creates a barrier for n threads.
func NewBarrier(n int) *Barrier { return &Barrier{expected: n} }

// Arrive registers a thread at the barrier and returns the generation to
// wait for. The thread is released once Generation() exceeds it.
func (b *Barrier) Arrive() int64 {
	b.Waits++
	gen := b.gen
	b.arrived++
	if b.arrived >= b.expected {
		b.arrived = 0
		b.gen++
		b.Releases++
	}
	return gen
}

// Generation returns the current barrier generation.
func (b *Barrier) Generation() int64 { return b.gen }
