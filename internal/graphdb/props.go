package graphdb

import (
	"math"

	"hypre/internal/predicate"
)

// keyID names a property key by its position in Graph.keys.
type keyID uint32

// prop is one stored property in 32 bytes: the key as a keyID and the value
// unboxed, with an int64 or float64 payload in num and a string payload in
// str.
type prop struct {
	key  keyID
	kind predicate.Kind
	num  uint64
	str  string
}

func makeProp(k keyID, v predicate.Value) prop {
	p := prop{key: k, kind: v.Kind()}
	switch p.kind {
	case predicate.KindInt:
		p.num = uint64(v.AsInt())
	case predicate.KindFloat:
		p.num = math.Float64bits(v.AsFloat())
	case predicate.KindString:
		p.str = v.AsString()
	}
	return p
}

func (p prop) value() predicate.Value {
	switch p.kind {
	case predicate.KindInt:
		return predicate.Int(int64(p.num))
	case predicate.KindFloat:
		return predicate.Float(math.Float64frombits(p.num))
	case predicate.KindString:
		return predicate.String(p.str)
	default:
		return predicate.Null()
	}
}

// propList is a record's properties in insertion order. A record carries a
// handful, so a linear scan beats a map and costs no per-record header.
type propList []prop

func (ps propList) find(k keyID) int {
	for i := range ps {
		if ps[i].key == k {
			return i
		}
	}
	return -1
}

func (ps propList) get(k keyID) (predicate.Value, bool) {
	if i := ps.find(k); i >= 0 {
		return ps[i].value(), true
	}
	return predicate.Null(), false
}

// set stores v under k and returns the updated list and the value it
// replaced, if any. A full list grows by half, and by at least two slots.
func (ps propList) set(k keyID, v predicate.Value) (propList, predicate.Value, bool) {
	if i := ps.find(k); i >= 0 {
		old := ps[i].value()
		ps[i] = makeProp(k, v)
		return ps, old, true
	}
	if len(ps) == cap(ps) {
		grown := make(propList, len(ps), len(ps)+max(2, len(ps)/2))
		copy(grown, ps)
		ps = grown
	}
	return append(ps, makeProp(k, v)), predicate.Null(), false
}

// internKey returns the id of a key name, assigning the next one on first
// sight. Callers hold mu exclusively.
func (g *Graph) internKey(name string) keyID {
	if k, ok := g.keyIDs[name]; ok {
		return k
	}
	k := keyID(len(g.keys))
	g.keys = append(g.keys, name)
	g.keyIDs[name] = k
	return k
}

// propsFrom copies p with room for spare more properties. Callers hold mu
// exclusively.
func (g *Graph) propsFrom(p Props, spare int) propList {
	if len(p)+spare == 0 {
		return nil
	}
	ps := make(propList, 0, len(p)+spare)
	for name, v := range p {
		ps = append(ps, makeProp(g.internKey(name), v))
	}
	return ps
}

// exportProps returns a record's properties as a fresh bag. Callers hold mu.
func (g *Graph) exportProps(ps propList) Props {
	out := make(Props, len(ps))
	for _, p := range ps {
		out[g.keys[p.key]] = p.value()
	}
	return out
}
