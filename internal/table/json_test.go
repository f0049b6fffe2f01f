package table

import (
	"encoding/json"
	"math"
	"testing"
)

func TestJSONRoundtrip(t *testing.T) {
	tb := MustNew(Uniform("va", -0.12, 1.32, 5), Uniform("vo", -0.12, 1.32, 7))
	fill(tb, func(c []float64) float64 { return c[0]*1e-4 - c[1]*3e-5 })
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rank() != tb.Rank() || back.Size() != tb.Size() {
		t.Fatalf("shape mismatch after roundtrip")
	}
	for i := range tb.Data {
		if tb.Data[i] != back.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
	// Interpolation works on the deserialized table (strides rebuilt).
	if got, want := back.At2(0.3, 0.7), tb.At2(0.3, 0.7); math.Abs(got-want) > 1e-15 {
		t.Errorf("interp after roundtrip: %g vs %g", got, want)
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"axes":[],"data":[]}`,
		`{"axes":[{"Name":"x","Points":[0,1]}],"data":[1]}`,   // wrong length
		`{"axes":[{"Name":"x","Points":[1,0]}],"data":[1,2]}`, // decreasing axis
		`{"axes":[{"Name":"x","Points":[0]}],"data":[1,2]}`,   // wrong length
		`not json`,
	}
	for _, c := range cases {
		var tb Table
		if err := json.Unmarshal([]byte(c), &tb); err == nil {
			t.Errorf("corrupt JSON accepted: %s", c)
		}
	}
}
