package combine

// MemStats is the evaluator-level rollup of bitset.SizeBytes across the
// resident predicate sets, plus the pid dictionary they share.
type MemStats struct {
	// Preds is the number of resident predicate sets.
	Preds int
	// DictEntries is the dense dictionary size (the sets' domain).
	DictEntries int
	// DictBytes estimates the pid dictionary's memory (PidDict.SizeBytes).
	DictBytes int64
	// CompressedBytes covers every resident set.
	CompressedBytes int64
}

// MemStats reports the footprint of the current version of the
// evaluator's predicate store, without a lock.
func (ev *Evaluator) MemStats() MemStats {
	v := ev.cur.Load()
	st := MemStats{DictEntries: len(v.pids), DictBytes: v.dictBytes}
	for _, b := range v.bits {
		if b != nil {
			st.Preds++
			st.CompressedBytes += b.SizeBytes()
		}
	}
	return st
}
