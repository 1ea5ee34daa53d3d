package alloc_test

import (
	"fmt"

	"edgesurgeon/internal/alloc"
)

// ExampleDeadlineAware_unconstrained shows the square-root allocation rule:
// with no deadline and no rate to bound the shares, a user with 4x the
// server work receives 2x the share.
func ExampleDeadlineAware_unconstrained() {
	demands := []alloc.Demand{
		{Server: 0.01, Tx: 0.002},
		{Server: 0.04, Tx: 0.002},
	}
	a := alloc.DeadlineAware(demands)
	fmt.Printf("share ratio: %.2f\n", a.Compute[1]/a.Compute[0])
	// Output:
	// share ratio: 2.00
}

// ExampleDeadlineAware shows deadline lower bounds shaping the split.
func ExampleDeadlineAware() {
	demands := []alloc.Demand{
		{Fixed: 0.01, Server: 0.05, Deadline: 0.10, Rate: 2}, // tight SLO
		{Fixed: 0.01, Server: 0.05, Rate: 2},                 // best effort
	}
	a := alloc.DeadlineAware(demands)
	fmt.Println("feasible:", a.Feasible)
	fmt.Println("tight user meets SLO:", demands[0].Latency(a.Compute[0], 1) <= 0.10+1e-12)
	// Output:
	// feasible: true
	// tight user meets SLO: true
}
