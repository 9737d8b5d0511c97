package graphdb

// slabShift sets the chunk size of a slab: 1024 records.
const slabShift = 10

const slabChunk = 1 << slabShift

// slab is an append-only array of records addressed by position. Past its
// first chunk it grows a fixed-size chunk at a time, so an append never
// copies more than that chunk and never leaves a large array behind for
// the collector.
type slab[T any] struct {
	chunks [][]T
	n      int
}

func (s *slab[T]) len() int { return s.n }

// at returns record i, which must be below len.
func (s *slab[T]) at(i int) *T { return &s.chunks[i>>slabShift][i&(slabChunk-1)] }

// push appends v and returns its position.
func (s *slab[T]) push(v T) int {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == slabChunk {
		var c []T // the first chunk grows by append: small graphs stay small
		if last >= 0 {
			c = make([]T, 0, slabChunk)
		}
		s.chunks = append(s.chunks, c)
		last++
	}
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
	return s.n - 1
}
