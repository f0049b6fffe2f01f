package sta

import "mcsm/internal/wave"

// C17Netlist is ISCAS85's smallest benchmark — six NAND2 gates in three
// two-wide topological levels with reconvergent fanout. It is the
// repository's standard benchmark and equivalence workload, shared by the
// sta and engine tests, the root benchmarks, the golden regression
// fixtures, and perfbench so all of them measure the same stimulus.
const C17Netlist = `
input n1 n2 n3 n6 n7
output n22 n23
inst G10 NAND2 n10 n1 n3
inst G11 NAND2 n11 n3 n6
inst G16 NAND2 n16 n2 n11
inst G19 NAND2 n19 n11 n7
inst G22 NAND2 n22 n10 n16
inst G23 NAND2 n23 n16 n19
`

// C17Stimulus is the canonical primary-input drive for C17Netlist: n1 and
// n3 rise 50 ps apart (making G10 a genuine MIS event), the side inputs
// hold at their non-controlling levels.
func C17Stimulus(vdd, horizon float64) map[string]wave.Waveform {
	return map[string]wave.Waveform{
		"n1": wave.SaturatedRamp(0, vdd, 1.00e-9, 80e-12, horizon),
		"n2": wave.Constant(vdd, 0, horizon),
		"n3": wave.SaturatedRamp(0, vdd, 1.05e-9, 80e-12, horizon),
		"n6": wave.Constant(vdd, 0, horizon),
		"n7": wave.Constant(0, 0, horizon),
	}
}
