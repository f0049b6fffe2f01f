package table_test

import (
	"fmt"

	"mcsm/internal/table"
)

// ExampleTable shows the N-D lookup flow used by every CSM component.
func ExampleTable() {
	// A 2-D current surface over (Vin, Vout).
	tb := table.MustNew(
		table.Uniform("vin", 0, 1.2, 5),
		table.Uniform("vout", 0, 1.2, 5),
	)
	for i, vin := range tb.Axes[0].Points {
		for j, vout := range tb.Axes[1].Points {
			tb.Set(1e-4*vin*(1.2-vout), i, j) // toy transfer surface
		}
	}
	v := tb.At(0.6, 0.3)
	// A solver locates the point once and reads value and gradient.
	var cur table.Cursor
	tb.Seek(&cur, []float64{0.6, 0.3})
	grad := make([]float64, 2)
	tb.ValueGrad(&cur, grad)
	fmt.Printf("I(0.6,0.3) = %.1f uA\n", v*1e6)
	fmt.Printf("dI/dVout < 0: %v\n", grad[1] < 0)
	// Output:
	// I(0.6,0.3) = 54.0 uA
	// dI/dVout < 0: true
}
