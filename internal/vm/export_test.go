package vm

// SetHeapBudget lowers the per-request heap budget to n bytes for a test,
// so a small string-append can reach it; the returned func restores it.
func SetHeapBudget(n uint64) (restore func()) {
	old := heapBudget
	heapBudget = n
	return func() { heapBudget = old }
}
