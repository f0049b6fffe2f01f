package sweep

import (
	"fmt"
	"mcsm/internal/units"
	"strings"
)

// Grid is a scenario grid over the three MIS axes the paper's surfaces
// vary: the relative arrival skew of input B against input A (seconds,
// negative = B first), the 0–100% input transition time, and the lumped
// output load (farads). The grid is the cross product of the three lists;
// points are enumerated skew-major (skew, then slew, then load), and that
// order is part of the determinism contract — Surface.Results is indexed
// by it.
type Grid struct {
	Skews []float64 `json:"skews"`
	Slews []float64 `json:"slews"`
	Loads []float64 `json:"loads"`
}

// Point is one scenario of a grid.
type Point struct {
	Skew float64 `json:"skew"`
	Slew float64 `json:"slew"`
	Load float64 `json:"load"`
}

// Size returns the number of points.
func (g Grid) Size() int { return len(g.Skews) * len(g.Slews) * len(g.Loads) }

// At returns the i-th point in canonical (skew-major) order.
func (g Grid) At(i int) Point {
	nl := len(g.Loads)
	nt := len(g.Slews)
	return Point{
		Skew: g.Skews[i/(nt*nl)],
		Slew: g.Slews[(i/nl)%nt],
		Load: g.Loads[i%nl],
	}
}

// Validate rejects empty axes and non-physical values.
func (g Grid) Validate() error {
	if len(g.Skews) == 0 || len(g.Slews) == 0 || len(g.Loads) == 0 {
		return fmt.Errorf("sweep: grid needs at least one value per axis (skew/slew/load)")
	}
	for _, s := range g.Slews {
		if s <= 0 {
			return fmt.Errorf("sweep: non-positive slew %g", s)
		}
	}
	for _, l := range g.Loads {
		if l <= 0 {
			return fmt.Errorf("sweep: non-positive load %g", l)
		}
	}
	return nil
}

// MaxSkew returns the largest non-negative skew (0 when all are negative).
func (g Grid) MaxSkew() float64 {
	var max float64
	for _, s := range g.Skews {
		if s > max {
			max = s
		}
	}
	return max
}

// MinSkew returns the smallest non-positive skew (0 when all are positive).
func (g Grid) MinSkew() float64 {
	var min float64
	for _, s := range g.Skews {
		if s < min {
			min = s
		}
	}
	return min
}

// MaxSlew returns the largest input transition time.
func (g Grid) MaxSlew() float64 {
	var max float64
	for _, s := range g.Slews {
		if s > max {
			max = s
		}
	}
	return max
}

// DefaultGrid covers the paper-scale MIS surface: skews ±160 ps in 40 ps
// steps around the simultaneous event, two input slews, and three loads
// bracketing the FO1–FO8 range of the Fig. 5 experiment.
func DefaultGrid() Grid {
	return Grid{
		Skews: Span(-160e-12, 160e-12, 40e-12),
		Slews: []float64{40e-12, 80e-12},
		Loads: []float64{2e-15, 5e-15, 10e-15},
	}
}

// QuickGrid is the reduced grid for tests, probes, and smoke runs.
func QuickGrid() Grid {
	return Grid{
		Skews: Span(-120e-12, 120e-12, 60e-12),
		Slews: []float64{80e-12},
		Loads: []float64{2e-15, 8e-15},
	}
}

// ProbeGrid is the compact fixed grid of the root BenchmarkSweepProbe
// pair, mcsm-char -check-exact and the fast-characterization accuracy
// test: five skews across the simultaneous event, one slew, one load —
// small enough to run on every check, and one definition so their
// numbers stay comparable.
func ProbeGrid() Grid {
	return Grid{
		Skews: Span(-120e-12, 120e-12, 60e-12),
		Slews: []float64{80e-12},
		Loads: []float64{2e-15},
	}
}

// Span enumerates lo..hi inclusive at the given step. The values are
// computed as lo + i*step (not by accumulation), so a given (lo, hi, step)
// triple always yields bit-identical floats.
func Span(lo, hi, step float64) []float64 {
	if step <= 0 || hi < lo {
		return []float64{lo}
	}
	var out []float64
	for i := 0; ; i++ {
		v := lo + float64(i)*step
		if v > hi+step/1e6 {
			break
		}
		out = append(out, v)
	}
	return out
}

// ParseGrid reads the -grid flag syntax: semicolon-separated axes, each
// `name=list` where list is comma-separated values or a lo:hi:step range.
// Values take engineering suffixes (f, p, n, u). Omitted axes keep the
// base grid's values:
//
//	skew=-160p:160p:40p;slew=40p,80p;load=2f,5f,10f
func ParseGrid(spec string, base Grid) (Grid, error) {
	g := base
	if strings.TrimSpace(spec) == "" {
		return g, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Grid{}, fmt.Errorf("sweep: bad grid axis %q (want name=values)", part)
		}
		vals, err := parseValues(strings.TrimSpace(kv[1]))
		if err != nil {
			return Grid{}, fmt.Errorf("sweep: axis %s: %w", kv[0], err)
		}
		switch strings.ToLower(strings.TrimSpace(kv[0])) {
		case "skew":
			g.Skews = vals
		case "slew":
			g.Slews = vals
		case "load":
			g.Loads = vals
		default:
			return Grid{}, fmt.Errorf("sweep: unknown grid axis %q (want skew, slew, or load)", kv[0])
		}
	}
	return g, g.Validate()
}

// parseValues reads either a comma list ("40p,80p") or a range
// ("-160p:160p:40p").
func parseValues(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad range %q (want lo:hi:step)", s)
		}
		nums := make([]float64, 3)
		for i, p := range parts {
			v, err := units.ParseSI(p)
			if err != nil {
				return nil, err
			}
			nums[i] = v
		}
		if nums[2] <= 0 {
			return nil, fmt.Errorf("bad range %q: step must be positive", s)
		}
		if nums[1] < nums[0] {
			return nil, fmt.Errorf("bad range %q: hi < lo", s)
		}
		return Span(nums[0], nums[1], nums[2]), nil
	}
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := units.ParseSI(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list")
	}
	return out, nil
}
