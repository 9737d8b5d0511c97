// Package sub is an imported package of the dead-API checker's fixture.
package sub

import "fmt"

// Bump is live: the fixture's main uses it.
type Bump struct{ n int }

// Up is live: main calls it.
func (b *Bump) Up() { b.n++ }

// Unused is dead: an exported method of a live type that nothing calls.
func (b *Bump) Unused() {}

// NeverCalled is dead: exported, but nothing imports it.
func NeverCalled() {}

// Limit is dead: nothing names it.
const Limit = 10

// orphanStringer is dead: its String method satisfies fmt.Stringer, but
// nothing makes one.
type orphanStringer struct{}

func (orphanStringer) String() string { return fmt.Sprint("orphan") }
