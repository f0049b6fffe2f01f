package wave

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	a := MustNew([]float64{0, 2}, []float64{0, 2})
	b := MustNew([]float64{0, 1, 2}, []float64{1, 1, 1})
	sum := Add(a, b)
	if got := sum.At(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("Add at 1 = %g", got)
	}
	diff := Sub(a, b)
	if got := diff.At(2); math.Abs(got-1) > 1e-12 {
		t.Errorf("Sub at 2 = %g", got)
	}
	// Merged grid contains union of sample times.
	if sum.Len() != 3 {
		t.Errorf("merged grid has %d points", sum.Len())
	}
}

func TestMergeEmpty(t *testing.T) {
	e := Waveform{}
	if got := Merge(e, e, func(a, b float64) float64 { return a + b }); !got.Empty() {
		t.Error("merge of empties not empty")
	}
}

func TestWriteCSV(t *testing.T) {
	a := MustNew([]float64{0, 1}, []float64{0, 1})
	b := MustNew([]float64{0, 0.5, 1}, []float64{1, 1, 1})
	var sb strings.Builder
	if err := WriteCSV(&sb, []string{"a", "b"}, []Waveform{a, b}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "time,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 { // header + 3 unique times
		t.Errorf("rows = %d", len(lines))
	}
	if err := WriteCSV(&sb, []string{"x"}, []Waveform{a, b}); err == nil {
		t.Error("mismatched names accepted")
	}
}

// Property: Add is commutative and Sub(a,a) is identically zero on the grid.
func TestQuickWaveAlgebra(t *testing.T) {
	f := func(raw [5]float64) bool {
		ts := []float64{0, 1, 2, 3, 4}
		vs := make([]float64, 5)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vs[i] = math.Mod(v, 1000)
		}
		a := MustNew(ts, vs)
		b := a.Scaled(0.5)
		s1 := Add(a, b)
		s2 := Add(b, a)
		for i := range s1.T {
			if math.Abs(s1.V[i]-s2.V[i]) > 1e-9 {
				return false
			}
		}
		z := Sub(a, a)
		for _, v := range z.V {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
