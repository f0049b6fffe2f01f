package wave

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Merge evaluates fn pointwise over the union of the sample grids of a and
// b, producing a new waveform. It is the building block for waveform algebra
// such as sums and differences.
func Merge(a, b Waveform, fn func(va, vb float64) float64) Waveform {
	if a.Empty() && b.Empty() {
		return Waveform{}
	}
	grid := make([]float64, 0, len(a.T)+len(b.T))
	grid = append(grid, a.T...)
	grid = append(grid, b.T...)
	sort.Float64s(grid)
	// Deduplicate.
	ts := grid[:0]
	for i, t := range grid {
		if i == 0 || t != grid[i-1] {
			ts = append(ts, t)
		}
	}
	out := Waveform{T: make([]float64, len(ts)), V: make([]float64, len(ts))}
	copy(out.T, ts)
	for i, t := range out.T {
		out.V[i] = fn(a.At(t), b.At(t))
	}
	return out
}

// Add returns the pointwise sum a+b on the merged sample grid.
func Add(a, b Waveform) Waveform {
	return Merge(a, b, func(x, y float64) float64 { return x + y })
}

// Sub returns the pointwise difference a-b on the merged sample grid.
func Sub(a, b Waveform) Waveform {
	return Merge(a, b, func(x, y float64) float64 { return x - y })
}

// WriteCSV writes "time,value" rows (with a header) for one or more
// waveforms sharing a merged time grid. Column names label the value
// columns. It is used by the cmd tools to export waveforms for plotting.
func WriteCSV(w io.Writer, names []string, waves []Waveform) error {
	if len(names) != len(waves) {
		return fmt.Errorf("wave: %d names for %d waveforms", len(names), len(waves))
	}
	// Union grid across all waveforms.
	var grid []float64
	for _, wf := range waves {
		grid = append(grid, wf.T...)
	}
	sort.Float64s(grid)
	ts := grid[:0]
	for i, t := range grid {
		if i == 0 || t != grid[i-1] {
			ts = append(ts, t)
		}
	}
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for _, t := range ts {
		row := make([]string, 0, len(waves)+1)
		row = append(row, fmt.Sprintf("%.6e", t))
		for _, wf := range waves {
			row = append(row, fmt.Sprintf("%.6e", wf.At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
