package core

// MemoCounts reports the work LoadAnalysis's memo has done since the last
// ResetMemo: definitions parsed by range parses, function bodies
// re-checked, full type checks of a spliced program and cold loads.
func MemoCounts() (forms, bodies, coldChecks, coldLoads int) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	c := memo.counts
	return c.forms, c.bodies, c.coldChecks, c.coldLoads
}

// ResetMemo empties LoadAnalysis's memo and zeroes its counters.
func ResetMemo() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.set("", "", nil, nil, nil, 0)
	memo.counts = memoCounts{}
}
