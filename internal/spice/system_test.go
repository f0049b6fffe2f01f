package spice

import (
	"math"
	"testing"
	"testing/quick"
)

// solveFresh solves s through a workspace of its own and copies the
// solution out, leaving the system intact: the one-shot form of
// SolveWith the tests below check.
func solveFresh(s *System) ([]float64, error) {
	x, err := s.SolveWith(NewSolveWorkspace(s.N))
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), x...), nil
}

func TestSolveIdentity(t *testing.T) {
	s := NewSystem(3)
	for i := 0; i < 3; i++ {
		s.AddA(i, i, 1)
		s.AddB(i, float64(i+1))
	}
	x, err := solveFresh(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-float64(i+1)) > 1e-12 {
			t.Errorf("x[%d] = %g", i, x[i])
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row exchange.
	s := NewSystem(2)
	s.AddA(0, 1, 1)
	s.AddA(1, 0, 1)
	s.AddB(0, 3) // x1 = 3
	s.AddB(1, 5) // x0 = 5
	x, err := solveFresh(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	s := NewSystem(2)
	s.AddA(0, 0, 1)
	s.AddA(0, 1, 1)
	s.AddA(1, 0, 2)
	s.AddA(1, 1, 2)
	s.AddB(0, 1)
	if _, err := solveFresh(s); err == nil {
		t.Error("singular system solved")
	}
}

func TestGroundIndexIgnored(t *testing.T) {
	s := NewSystem(2)
	s.AddA(-1, 0, 99)
	s.AddA(0, -1, 99)
	s.AddB(-1, 99)
	for _, v := range s.A {
		if v != 0 {
			t.Fatal("ground stamp leaked into matrix")
		}
	}
	for _, v := range s.B {
		if v != 0 {
			t.Fatal("ground stamp leaked into rhs")
		}
	}
}

func TestStampConductance(t *testing.T) {
	s := NewSystem(2)
	StampConductance(s, Node(1), Node(2), 0.5)
	if s.A[0] != 0.5 || s.A[3] != 0.5 || s.A[1] != -0.5 || s.A[2] != -0.5 {
		t.Errorf("conductance stamp: %v", s.A)
	}
	// Against ground only the diagonal survives.
	s2 := NewSystem(1)
	StampConductance(s2, Node(1), Ground, 2)
	if s2.A[0] != 2 {
		t.Errorf("ground conductance stamp: %v", s2.A)
	}
}

// Property: Solve returns x with A·x = b for random diagonally dominant
// systems (which are always nonsingular).
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed [16]float64) bool {
		const n = 4
		s := NewSystem(n)
		a := make([]float64, n*n)
		b := make([]float64, n)
		k := 0
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := math.Mod(seed[k%16], 1)
				if math.IsNaN(v) {
					v = 0.1
				}
				k++
				a[i*n+j] = v
				rowSum += math.Abs(v)
			}
			a[i*n+i] = rowSum + 1
			b[i] = math.Mod(seed[(k+3)%16], 10)
			if math.IsNaN(b[i]) {
				b[i] = 1
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s.AddA(i, j, a[i*n+j])
			}
			s.AddB(i, b[i])
		}
		x, err := solveFresh(s)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a[i*n+j] * x[j]
			}
			if math.Abs(sum-b[i]) > 1e-9*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
