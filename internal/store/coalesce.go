package store

import (
	"errors"
	"sync"
	"time"
)

// ErrSaturated is returned by Coalescer.Join when a flight already has
// MaxWaiters requests attached: the caller should shed load (the daemon
// maps it to 429 + Retry-After).
var ErrSaturated = errors.New("store: too many requests coalesced on one flight")

// Coalescer extends content-addressed single-flighting with a time and
// size window: concurrent joins of the same key share one leader's
// execution, a completed flight's result lingers for Window so
// immediately repeated keys still coalesce without re-executing, and at
// most MaxWaiters requests may attach to one flight (beyond that Join
// fails fast with ErrSaturated instead of queueing unbounded).
//
// Failed flights never linger: the error is shared with the requests
// already attached, then the key is forgotten so the next joiner retries.
//
// The split Join/Finish API lets an async server attach a job to an
// in-flight execution and return immediately.
type Coalescer struct {
	// Window is how long a successful result stays joinable after the
	// flight finishes (0 = flights are dropped at completion).
	Window time.Duration
	// MaxWaiters caps how many requests may share one flight, the leader
	// included (0 = unlimited).
	MaxWaiters int

	mu        sync.Mutex
	flights   map[string]*Flight
	coalesced int64
	rejected  int64
}

// Flight is one in-flight (or Window-recent) execution of a key.
type Flight struct {
	c    *Coalescer
	key  string
	done chan struct{}
	val  any
	err  error

	waiters  int  // guarded by c.mu
	finished bool // guarded by c.mu
}

// CoalesceStats is a snapshot of the coalescer counters.
type CoalesceStats struct {
	InFlight  int   `json:"in_flight"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
}

// Join attaches the caller to key's flight. leader reports whether the
// caller must execute the work and call Finish; otherwise the caller
// waits on the returned flight's Done, then reads its Result.
// ErrSaturated means the flight's size window is full.
func (c *Coalescer) Join(key string) (f *Flight, leader bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flights == nil {
		c.flights = map[string]*Flight{}
	}
	if f, ok := c.flights[key]; ok {
		// A finished flight lingering in its Window is a free read: the
		// result is already published, so joining costs nothing and the
		// size window no longer applies (only executing flights queue
		// waiters).
		if f.finished {
			c.coalesced++
			return f, false, nil
		}
		if c.MaxWaiters > 0 && f.waiters >= c.MaxWaiters {
			c.rejected++
			return nil, false, ErrSaturated
		}
		f.waiters++
		c.coalesced++
		return f, false, nil
	}
	f = &Flight{c: c, key: key, done: make(chan struct{}), waiters: 1}
	c.flights[key] = f
	return f, true, nil
}

// Finish publishes the leader's result to every attached request and
// starts the linger window (failures are forgotten immediately so the
// next joiner retries).
func (f *Flight) Finish(v any, err error) {
	f.val, f.err = v, err
	f.c.mu.Lock()
	f.finished = true
	f.c.mu.Unlock()
	close(f.done)
	if err != nil || f.c.Window <= 0 {
		f.c.forget(f.key, f)
	} else {
		time.AfterFunc(f.c.Window, func() { f.c.forget(f.key, f) })
	}
}

// Detach removes one attached request from the flight and returns how
// many remain. A request that abandons its flight (client disconnect,
// cancel) detaches so the remaining count reflects who still wants the
// result — the leader uses it to decide whether canceling its work
// would strand anyone.
func (f *Flight) Detach() int {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	if f.waiters > 0 {
		f.waiters--
	}
	return f.waiters
}

// Done is closed once the leader has called Finish.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the published result; valid only after Done is closed.
func (f *Flight) Result() (any, error) { return f.val, f.err }

// forget drops the flight, unless a newer one already took the key.
func (c *Coalescer) forget(key string, f *Flight) {
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	c.mu.Unlock()
}

// Stats snapshots the coalescer counters.
func (c *Coalescer) Stats() CoalesceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoalesceStats{InFlight: len(c.flights), Coalesced: c.coalesced, Rejected: c.rejected}
}
