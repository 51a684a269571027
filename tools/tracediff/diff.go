package main

import (
	"fmt"
	"io"

	"rcast/internal/trace"
)

// report prints the divergence with up to context common events leading
// into it, so the reader sees what both runs agreed on last.
func report(w io.Writer, a, b []trace.Event, d trace.Divergence, context int) {
	lo := d.Index - context
	if lo < 0 {
		lo = 0
	}
	if lo < d.Index {
		fmt.Fprintf(w, "common prefix (last %d of %d events):\n", d.Index-lo, d.Index)
		for i := lo; i < d.Index; i++ {
			fmt.Fprintf(w, "    %s\n", a[i])
		}
	}
	fmt.Fprintf(w, "first divergence at event %d:\n", d.Index)
	sideA, sideB := d.Sides()
	fmt.Fprintf(w, "  A: %s\n", sideA)
	fmt.Fprintf(w, "  B: %s\n", sideB)
	fmt.Fprintf(w, "totals: A=%d events, B=%d events\n", len(a), len(b))
}
