package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strconv"
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
// share the result. The cache holds at most maxCacheEntries finished
// programs; past that it drops the oldest finished one.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	seq     uint64 // insertion counter; orders entries by age
	hits    atomic.Int64
	misses  atomic.Int64
}

// maxCacheEntries bounds the programs a Cache keeps. The documented
// daemon traffic (the benchmark's serve_mix) compiles eight distinct
// sources — two run kernels and six perf units — so the bound holds
// eight times that: such traffic never evicts, while a daemon fed an
// unbounded stream of distinct sources keeps a fixed number of programs.
const maxCacheEntries = 64

type cacheEntry struct {
	done chan struct{} // closed when p/err are set
	seq  uint64
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
	d := NewDigest()
	d.Str(src)
	DigestMap(d, opts.Defines, d.Str)
	d.Str(strconv.Itoa(opts.VectorLanes))
	sched, coeffs := fixedKey()
	d.Str(sched)
	d.Str(coeffs)
	return d.Sum()
}

// fixedKey prints the schedule latencies and the area cost model once per
// process. Both are fixed, but their printed forms stay in the key so
// digests (and artifact stores) written by builds that could override
// them remain valid.
var fixedKey = sync.OnceValues(func() (string, string) {
	return fmt.Sprintf("%+v", schedule.DefaultConfig()), fmt.Sprintf("%+v", area.DefaultCoefficients())
})

// Digest is the one encoder behind every content address of the tool
// family (Key, api.RunKey): a SHA-256 over little-endian 64-bit words
// and length-prefixed strings, with maps written in sorted key order
// (DigestMap). Writes are staged in a fixed buffer, so hashing
// allocates nothing per value.
type Digest struct {
	h   hash.Hash
	buf [512]byte
	n   int
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Uint writes v as 8 little-endian bytes.
func (d *Digest) Uint(v uint64) {
	if d.n+8 > len(d.buf) {
		d.flush()
	}
	binary.LittleEndian.PutUint64(d.buf[d.n:], v)
	d.n += 8
}

// Bool writes b as the word 1 or 0.
func (d *Digest) Bool(b bool) {
	if b {
		d.Uint(1)
	} else {
		d.Uint(0)
	}
}

// Str writes len(s) as a word, then the bytes of s.
func (d *Digest) Str(s string) {
	d.Uint(uint64(len(s)))
	for len(s) > 0 {
		if d.n == len(d.buf) {
			d.flush()
		}
		k := copy(d.buf[d.n:], s)
		d.n += k
		s = s[k:]
	}
}

func (d *Digest) flush() {
	d.h.Write(d.buf[:d.n])
	d.n = 0
}

// Sum returns the hex SHA-256 of everything written.
func (d *Digest) Sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(d.buf[:0]))
}

// DigestMap writes m's entries in sorted key order: each key as a
// Str, then its value through put.
func DigestMap[V any](d *Digest, m map[string]V, put func(V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		d.Str(k)
		put(m[k])
	}
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
		if len(c.entries) >= maxCacheEntries {
			c.evictOldest()
		}
		c.seq++
		ent = &cacheEntry{done: make(chan struct{}), seq: c.seq}
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

// evictOldest drops the oldest finished entry. An in-flight entry is
// never dropped, since its waiters hold it; when every entry is in
// flight the cache briefly exceeds its bound. The caller holds c.mu.
func (c *Cache) evictOldest() {
	var oldest string
	var oldestSeq uint64
	for k, e := range c.entries {
		select {
		case <-e.done:
		default:
			continue
		}
		if oldest == "" || e.seq < oldestSeq {
			oldest, oldestSeq = k, e.seq
		}
	}
	if oldest != "" {
		delete(c.entries, oldest)
	}
}
