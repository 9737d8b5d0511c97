package combine

// Test-only exports for the external pid-space test, which also drives
// topk (an import the combine package's own tests cannot make).
var (
	BuildTestDBPids    = buildTestDBPids
	BaseQuery          = baseQuery
	MaterializeProfile = materializeProfile
)

// FarLen reports how many pids sit in the dictionary's far map.
func (d *PidDict) FarLen() int { return len(d.far) }

// RefreshWaiting reports whether a refresh, remap or invalidation holds or
// waits for the evaluator's refresh lock.
func (ev *Evaluator) RefreshWaiting() bool {
	if ev.refresh.TryRLock() {
		ev.refresh.RUnlock()
		return false
	}
	return true
}
