package par

import (
	"sync/atomic"
	"testing"
)

// TestChunksCoversEveryIndexOnce checks that every index is visited exactly
// once, for lengths around the chunk boundaries and any worker count.
func TestChunksCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 16} {
			seen := make([]int32, n)
			var calls atomic.Int32
			Chunks(n, workers, 8, func(lo, hi int) {
				calls.Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
			if n < 16 && calls.Load() != 1 {
				t.Fatalf("n=%d workers=%d: %d chunks, want 1 below two minimum chunks", n, workers, calls.Load())
			}
		}
	}
}
