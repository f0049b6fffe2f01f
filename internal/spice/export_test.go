package spice

// StagePattern6 is solve6Stage's sparsity pattern, one string per row of
// A ('X' where an entry may be nonzero).
var StagePattern6 = stagePattern6

// SolveStage6 runs the pattern kernel alone and reports whether it took s.
func SolveStage6(s *System, ws *SolveWorkspace) bool {
	_, ok := s.solve6Stage(ws)
	return ok
}

// SolveOracle is solveOracle, for the external tests that check the
// kernels on captured stage systems.
var SolveOracle = solveOracle

// RunAdaptiveOracle is the adaptive loop as it stood before the transient
// loops merged (runAdaptiveOracle), for the external tests that compare
// the one loop with it on CSM stage circuits.
func (e *Engine) RunAdaptiveOracle(x0 []float64, start, stop float64, opt AdaptiveOptions) (*Result, error) {
	return e.runAdaptiveOracle(x0, start, stop, oracleOptions(opt))
}

// SameRecord compares two records of every unknown bit for bit.
var SameRecord = sameRecord
