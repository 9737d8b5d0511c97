package combine

// MemStats is the evaluator-level rollup of bitset.SizeBytes across the
// cached predicate bitmaps, against the footprint the dense word-vector
// representation (one word per 64 dense indices up to the highest set bit)
// would have paid — the before/after of the compressed-container refactor.
//
// A predicate counts as sparse when its cardinality is at most 1/16 of the
// dense dictionary domain: those are the sets the dense representation
// sized by the domain anyway, so they carry the compression win the
// bitmapmem experiment tracks.
type MemStats struct {
	// Preds is the number of cached predicate bitmaps.
	Preds int
	// DictEntries is the dense dictionary size (the bitmaps' domain).
	DictEntries int
	// DictBytes estimates the pid dictionary's memory (PidDict.SizeBytes).
	DictBytes int64
	// CompressedBytes / DenseBytes cover every cached bitmap.
	CompressedBytes int64
	DenseBytes      int64
	// SparsePreds and the Sparse* byte totals cover only the sparse subset.
	SparsePreds           int
	SparseCompressedBytes int64
	SparseDenseBytes      int64
}

// MemStats reports the footprint of the current version of the
// evaluator's bitmap cache, without a lock.
func (ev *Evaluator) MemStats() MemStats {
	v := ev.cur.Load()
	st := MemStats{DictEntries: len(v.pids), DictBytes: v.dictBytes}
	sparseCap := len(v.pids) / 16
	for _, b := range v.bits {
		if b == nil {
			continue
		}
		st.Preds++
		cb, db := b.SizeBytes(), b.DenseSizeBytes()
		st.CompressedBytes += cb
		st.DenseBytes += db
		if b.Len() <= sparseCap {
			st.SparsePreds++
			st.SparseCompressedBytes += cb
			st.SparseDenseBytes += db
		}
	}
	return st
}
