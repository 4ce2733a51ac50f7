// Package lib is the reach fixture's library: the functions a program
// uses, those only the seed package's init reaches, and dead code.
package lib

// Shape is called through by the program, never on a concrete type.
type Shape interface{ Area() int }

// T implements Shape and fmt.Stringer.
type T struct{}

// Area is live: the program calls it through Shape.
func (T) Area() int { return 1 }

// String is live: the standard library calls it through fmt.Stringer.
func (T) String() string { return "T" }

// PerfMethod is reached only from the seed's init.
func (*T) PerfMethod() {}

// Used is called by the program.
func Used() {}

// Valued is referenced, not called, by the program.
func Valued() {}

// InitVar initializes a package-level variable of the program.
func InitVar() int { return 1 }

// PerfOnly is reached only from the seed's init, and so is its callee.
func PerfOnly() { perfHelper() }

func perfHelper() {}

// Dead is reached from nowhere: not the seed's concern.
func Dead() {}
