package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		hit := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) error {
			hit[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range hit {
			if got := hit[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 2, 16} {
		err := ForEach(workers, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
	}
}

func TestForEachRunsLaterIndicesAfterError(t *testing.T) {
	var ran atomic.Int32
	err := ForEach(4, 20, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d of 20 indices; pool must not cancel on error", got)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEach(workers, 200, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(4, 0, func(i int) error { t.Fatal("must not run"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersOverride(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(5)
	if got := DefaultWorkers(); got != 5 {
		t.Fatalf("DefaultWorkers = %d, want 5", got)
	}
	if got := Resolve(0); got != 5 {
		t.Fatalf("Resolve(0) = %d, want 5", got)
	}
	if got := Resolve(2); got != 2 {
		t.Fatalf("Resolve(2) = %d, want 2", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got <= 0 {
		t.Fatalf("DefaultWorkers = %d after reset", got)
	}
}
