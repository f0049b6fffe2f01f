// Package spice is a compact transistor-level circuit simulator: the
// substrate that stands in for HSPICE in this reproduction.
//
// It implements dense modified nodal analysis (MNA) with:
//
//   - Newton–Raphson iteration with per-iteration voltage limiting,
//   - DC operating-point analysis with gmin stepping and source stepping
//     fallbacks,
//   - fixed-step transient analysis with backward-Euler or trapezoidal
//     integration,
//   - linear elements (R, C, V/I sources with arbitrary PWL stimuli),
//     MOSFETs backed by internal/device, and arbitrary user elements (the
//     CSM behavioral cell of internal/csm plugs in through the Element
//     interface).
//
// Circuits in this repository are small (a handful of nodes), so the dense
// formulation with partial-pivot LU is both simple and fast.
package spice

import (
	"mcsm/internal/device"
	"mcsm/internal/wave"
)

// Node identifies a circuit node. Node 0 is ground.
type Node int

// Ground is the reference node; its voltage is identically zero.
const Ground Node = 0

// Stimulus is a time-dependent source value. wave.Waveform satisfies it.
type Stimulus interface {
	At(t float64) float64
}

// DC is a constant stimulus.
type DC float64

// At returns the constant value regardless of time.
func (d DC) At(float64) float64 { return float64(d) }

// SetDC is a mutable constant stimulus: characterization sweeps reuse one
// circuit/engine pair and retarget the source values between solves.
type SetDC struct{ V float64 }

// At returns the current value regardless of time.
func (s *SetDC) At(float64) float64 { return s.V }

// Circuit is a netlist: a set of named nodes and the elements connecting
// them. Elements are added through the Add* helpers or Add for custom
// Element implementations.
type Circuit struct {
	names  []string
	byName map[string]int
	elems  []Element
}

// NewCircuit returns an empty circuit containing only the ground node "0".
func NewCircuit() *Circuit {
	c := &Circuit{byName: map[string]int{"0": 0}, names: []string{"0"}}
	return c
}

// Node returns the node with the given name, creating it on first use.
// The name "0" is the ground node.
func (c *Circuit) Node(name string) Node {
	if i, ok := c.byName[name]; ok {
		return Node(i)
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.byName[name] = i
	return Node(i)
}

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.names) }

// Elements returns the elements in insertion order.
func (c *Circuit) Elements() []Element { return c.elems }

// Add registers a custom element.
func (c *Circuit) Add(e Element) { c.elems = append(c.elems, e) }

// AddResistor connects a linear resistor of the given resistance (ohms)
// between nodes a and b.
func (c *Circuit) AddResistor(name string, a, b Node, ohms float64) {
	c.Add(&Resistor{name: name, a: a, b: b, g: 1 / ohms})
}

// AddCapacitor connects a linear capacitor (farads) between nodes a and b.
func (c *Circuit) AddCapacitor(name string, a, b Node, farads float64) {
	c.Add(&Capacitor{name: name, a: a, b: b, c: farads})
}

// AddVSource connects a voltage source between p (positive) and n with the
// given stimulus. Its branch current is an auxiliary unknown, read from
// transient results with Result.AuxWave(v.AuxIndex()).
func (c *Circuit) AddVSource(name string, p, n Node, stim Stimulus) *VSource {
	v := &VSource{name: name, p: p, n: n, stim: stim}
	c.Add(v)
	return v
}

// AddMOS instantiates a MOSFET with terminals drain, gate, source, bulk,
// the given model card, and gate width w (meters).
func (c *Circuit) AddMOS(name string, d, g, s, b Node, params *device.Params, w float64) {
	c.Add(&MOSFET{name: name, d: d, g: g, s: s, b: b, mos: device.MOS{P: params, W: w}})
}

var _ Stimulus = wave.Waveform{} // wave.Waveform is usable as a stimulus
