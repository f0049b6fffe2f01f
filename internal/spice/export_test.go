package spice

// SolveGeneric runs SolveWith's generic loops whatever the size, for the
// external tests that compare the kernels on captured stage systems.
func SolveGeneric(s *System, ws *SolveWorkspace) ([]float64, error) {
	ws.ensure(s.N)
	return s.solveGeneric(ws)
}
