// Command fixture is the dead-API checker's test input. Each symbol's
// comment says whether the checker must find it dead.
package main

import (
	"fmt"
	"sort"

	"fixture/sub"
)

// Counter is live: main builds one.
type Counter struct{ n int }

// Inc is live: main calls it.
func (c *Counter) Inc() { c.n++ }

// Reset is dead: an exported method nothing calls.
func (c *Counter) Reset() { c.n = 0 }

// String is live only because *Counter satisfies fmt.Stringer.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// byLen is live: main sorts with it.
type byLen []string

// Len, Less and Swap are live only through sort.Interface.
func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Stack is live: main instantiates it.
type Stack[T any] struct{ items []T }

// Push is live through the instantiation Stack[int].
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Pop is dead: no instantiation calls it.
func (s *Stack[T]) Pop() T {
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// ghost is dead: nothing names it.
type ghost struct{}

// unusedHelper is dead: nothing calls it.
func unusedHelper() int { return 1 }

// chainHead is dead, and so is chainTail, which only it calls.
func chainHead() int { return chainTail() + 1 }

func chainTail() int { return 2 }

// keptByBlank is live through a blank declaration.
func keptByBlank() int { return 3 }

var _ = keptByBlank

// kind is live: the var below names it, and vars are roots.
type kind int

// first is live: the var below names it.
const first kind = 1

var current = first

func init() { initOnly() }

// initOnly is live: init calls it.
func initOnly() {}

func main() {
	c := &Counter{}
	c.Inc()
	fmt.Println(c, current)
	names := byLen{"ccc", "a", "bb"}
	sort.Sort(names)
	var s Stack[int]
	s.Push(1)
	var b sub.Bump
	b.Up()
	fmt.Println(names, s.items, b)
}
