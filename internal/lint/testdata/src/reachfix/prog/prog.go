// Command prog is the reach fixture's program root.
package main

import "repro/internal/lint/testdata/src/reachfix/lib"

var n = lib.InitVar()

func main() {
	var s lib.Shape = lib.T{}
	f := lib.Valued
	f()
	lib.Used()
	println(s.Area() + n)
}
