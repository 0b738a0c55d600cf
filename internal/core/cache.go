package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paravis/internal/area"
	"paravis/internal/schedule"
)

// Cache is a content-addressed compile cache: programs are keyed by a
// digest of everything that determines the compilation result — the
// source text, the macro defines, the vector-lane override, the schedule
// configuration and the area coefficients. Compiled programs are
// immutable (the simulator only reads them), so one instance is safely
// shared across concurrent runs. Concurrent requests for the same key
// are single-flighted: the first caller compiles, the rest wait and
// share the result.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type cacheEntry struct {
	done chan struct{} // closed when p/err are set
	p    *Program
	err  error
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*cacheEntry{}}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// Stats snapshots the hit/miss counters and the entry count.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// Key returns the content address of a compilation: a hex SHA-256 over a
// canonical serialization of the source and every option that affects
// the build output.
func Key(src string, opts BuildOptions) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr(src)
	names := make([]string, 0, len(opts.Defines))
	for k := range opts.Defines {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		writeStr(k)
		writeStr(opts.Defines[k])
	}
	writeStr(fmt.Sprint(opts.VectorLanes))
	// The schedule latencies and the area cost model are fixed, but their
	// printed forms stay in the key so digests (and artifact stores)
	// written by builds that could override them remain valid.
	writeStr(fmt.Sprintf("%+v", schedule.DefaultConfig()))
	writeStr(fmt.Sprintf("%+v", area.DefaultCoefficients()))
	return hex.EncodeToString(h.Sum(nil))
}

// Build returns the cached program for (src, opts), compiling it on
// first use. The second result reports whether the program came from the
// cache. Compile errors are cached too (compilation is deterministic),
// but context errors are not: a build abandoned because its requester
// went away is retried by the next caller.
func (c *Cache) Build(ctx context.Context, src string, opts BuildOptions) (*Program, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := Key(src, opts)
	c.mu.Lock()
	ent, ok := c.entries[key]
	if !ok {
		ent = &cacheEntry{done: make(chan struct{})}
		c.entries[key] = ent
	}
	c.mu.Unlock()

	if !ok {
		c.misses.Add(1)
		ent.p, ent.err = Build(ctx, src, opts)
		if ent.err != nil && errors.Is(ent.err, ctx.Err()) {
			// Abandoned build: drop the entry so a later caller retries.
			c.mu.Lock()
			if c.entries[key] == ent {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(ent.done)
		return ent.p, false, ent.err
	}

	c.hits.Add(1)
	select {
	case <-ent.done:
		return ent.p, true, ent.err
	case <-ctx.Done():
		return nil, false, fmt.Errorf("core: build canceled: %w", ctx.Err())
	}
}
