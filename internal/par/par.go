// Package par runs index-range loops on a bounded number of goroutines.
package par

import (
	"runtime"
	"sync"
)

// Chunks splits [0,n) into one contiguous chunk per worker and runs body on
// each concurrently, returning when all are done. workers <= 0 means
// GOMAXPROCS; a range too short to give every worker minChunk indices runs
// on fewer workers, down to a plain call of body(0, n). body must write only
// state owned by its own indices.
func Chunks(n, workers, minChunk int, body func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n/max(minChunk, 1))
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}
