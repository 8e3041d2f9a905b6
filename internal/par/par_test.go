package par

import (
	"sync"
	"testing"
)

// TestRangeCoversAll verifies every index is visited exactly once for a
// spread of sizes, including edge cases around the inline threshold.
func TestRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000, 4096, 100001} {
		seen := make([]int32, n)
		var mu sync.Mutex
		Range(n, 64, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestRangeDeterministicSplit verifies two runs with the same inputs produce
// identical chunk boundaries.
func TestRangeDeterministicSplit(t *testing.T) {
	collect := func() [][2]int {
		var mu sync.Mutex
		var chunks [][2]int
		Range(10000, 64, func(lo, hi int) {
			mu.Lock()
			chunks = append(chunks, [2]int{lo, hi})
			mu.Unlock()
		})
		return chunks
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	inA := make(map[[2]int]bool, len(a))
	for _, c := range a {
		inA[c] = true
	}
	for _, c := range b {
		if !inA[c] {
			t.Fatalf("chunk %v only in second run", c)
		}
	}
}

// TestSetMaxWorkers verifies the cap is honored and restorable.
func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if got := maxWorkers(); got != 1 {
		t.Fatalf("maxWorkers() = %d after SetMaxWorkers(1)", got)
	}
	if got := Workers(1_000_000, 1); got != 1 {
		t.Fatalf("Workers = %d with cap 1", got)
	}
	calls := 0
	Range(10000, 1, func(lo, hi int) { calls++ }) // cap 1 => inline, no races
	if calls != 1 {
		t.Fatalf("expected 1 inline call with cap 1, got %d", calls)
	}
	SetMaxWorkers(0)
	if maxWorkers() < 1 {
		t.Fatalf("maxWorkers() < 1 after reset")
	}
}
