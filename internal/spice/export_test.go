package spice

// SolveGeneric runs SolveWith's generic loops whatever the size, for the
// external tests that compare the kernels on captured stage systems.
func SolveGeneric(s *System, ws *SolveWorkspace) ([]float64, error) {
	ws.ensure(s.N)
	return s.solveGeneric(ws)
}

// RunAdaptiveOracle is the adaptive loop as it stood before the transient
// loops merged (runAdaptiveOracle), for the external tests that compare
// the one loop with it on CSM stage circuits.
func (e *Engine) RunAdaptiveOracle(x0 []float64, start, stop float64, opt AdaptiveOptions) (*Result, error) {
	return e.runAdaptiveOracle(x0, start, stop, oracleOptions(opt))
}

// SameRecord compares two records of every unknown bit for bit.
var SameRecord = sameRecord
