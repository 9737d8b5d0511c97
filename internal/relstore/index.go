package relstore

import "hypre/internal/predicate"

// hashIndex is the equality index on one column: each indexKey-canonical
// value maps to its posting list, the int32 ids of the rows holding it.
// Integer keys (Int, and the integral floats indexKey folds onto them) live
// in a map keyed by the bare int64; every other key (strings, non-integral
// floats, NULL) lives in a map keyed by the Value. Neither map is presized:
// the maps grow with the number of distinct keys, not with the row count.
//
// Postings are ascending at build; insert and a moving update append, a
// moving update removes from the old key, and deletes are lazy (dead ids
// stay in their list until the next build, and every consumer filters
// them). A list returned by rows aliases the index: callers read it under
// the table's shared state lock and never write it, since commits repair
// indexes only under the exclusive one.
type hashIndex struct {
	ints  map[int64][]int32
	other map[predicate.Value][]int32
}

func newHashIndex() *hashIndex {
	return &hashIndex{ints: make(map[int64][]int32)}
}

// rows returns the posting list of v's key (nil when absent).
func (x *hashIndex) rows(v predicate.Value) []int32 {
	k := indexKey(v)
	if k.Kind() == predicate.KindInt {
		return x.ints[k.AsInt()]
	}
	return x.other[k]
}

// add appends id to v's posting list.
func (x *hashIndex) add(v predicate.Value, id int) {
	k := indexKey(v)
	if k.Kind() == predicate.KindInt {
		x.ints[k.AsInt()] = append(x.ints[k.AsInt()], int32(id))
		return
	}
	if x.other == nil {
		x.other = make(map[predicate.Value][]int32)
	}
	x.other[k] = append(x.other[k], int32(id))
}

// remove drops id from v's posting list in place, keeping the order of the
// rest; a key whose list empties is deleted.
func (x *hashIndex) remove(v predicate.Value, id int) {
	k := indexKey(v)
	if k.Kind() == predicate.KindInt {
		i := k.AsInt()
		if ids := removeID(x.ints[i], int32(id)); len(ids) > 0 {
			x.ints[i] = ids
		} else {
			delete(x.ints, i)
		}
		return
	}
	if ids := removeID(x.other[k], int32(id)); len(ids) > 0 {
		x.other[k] = ids
	} else {
		delete(x.other, k)
	}
}

// size reports the number of distinct keys and the summed posting-list
// lengths (tombstoned ids that lazy deletion left behind included).
func (x *hashIndex) size() (keys, postings int) {
	for _, ids := range x.ints {
		postings += len(ids)
	}
	for _, ids := range x.other {
		postings += len(ids)
	}
	return len(x.ints) + len(x.other), postings
}

// removeID drops id from a posting list in place.
func removeID(ids []int32, id int32) []int32 {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
