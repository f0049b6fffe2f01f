package cells

import "mcsm/internal/spice"

// Instance describes a placed cell: its input pins, output, and any
// internal (stack) nodes, by name. Internal node names follow the paper's
// convention: "N" is the stack node adjacent to the output.
type Instance struct {
	Pins     map[string]spice.Node
	Internal map[string]spice.Node
}

// Builder instantiates a cell's transistors into a circuit. inputs must be
// given in the cell spec's pin order; drive scales all widths.
type Builder func(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance

// Inverter builds a static CMOS inverter.
func Inverter(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	in := inputs[0]
	c.AddMOS(name+".MN", out, in, spice.Ground, spice.Ground, &t.NMOS, t.WNMin*drive)
	c.AddMOS(name+".MP", out, in, vdd, vdd, &t.PMOS, t.WPMin*drive)
	return Instance{
		Pins:     map[string]spice.Node{"A": in, "Out": out},
		Internal: map[string]spice.Node{},
	}
}

// NOR2 builds the paper's two-input NOR (Fig. 2): a series PMOS stack with
// M4 (gate B) on top of internal node N and M3 (gate A) from N to the
// output, and parallel NMOS pulldowns M1 (gate A) and M2 (gate B). With
// A=1, B=0 the internal node is driven to Vdd; with A=0, B=1 it discharges
// through M3 to the body-affected |Vt,p| — the two histories of §2.2.
func NOR2(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	a, b := inputs[0], inputs[1]
	n := c.Node(name + ".N")
	wp := 2 * t.WPMin * drive // series stack upsized for comparable drive
	wn := t.WNMin * drive
	c.AddMOS(name+".M4", n, b, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".M3", out, a, n, vdd, &t.PMOS, wp)
	c.AddMOS(name+".M1", out, a, spice.Ground, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".M2", out, b, spice.Ground, spice.Ground, &t.NMOS, wn)
	return Instance{
		Pins:     map[string]spice.Node{"A": a, "B": b, "Out": out},
		Internal: map[string]spice.Node{"N": n},
	}
}

// NAND2 builds a two-input NAND: series NMOS stack (gate A adjacent to the
// output, internal node N below it, gate B to ground) and parallel PMOS
// pullups.
func NAND2(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	a, b := inputs[0], inputs[1]
	n := c.Node(name + ".N")
	wn := 2 * t.WNMin * drive
	wp := t.WPMin * drive
	c.AddMOS(name+".MNA", out, a, n, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNB", n, b, spice.Ground, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MPA", out, a, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPB", out, b, vdd, vdd, &t.PMOS, wp)
	return Instance{
		Pins:     map[string]spice.Node{"A": a, "B": b, "Out": out},
		Internal: map[string]spice.Node{"N": n},
	}
}

// NOR3 builds a three-input NOR with a three-high PMOS stack. N is the
// stack node adjacent to the output (between the A and B devices); N2 sits
// between the B and C devices.
func NOR3(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	a, b, cc := inputs[0], inputs[1], inputs[2]
	n := c.Node(name + ".N")
	n2 := c.Node(name + ".N2")
	wp := 3 * t.WPMin * drive
	wn := t.WNMin * drive
	c.AddMOS(name+".MPC", n2, cc, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPB", n, b, n2, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPA", out, a, n, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MNA", out, a, spice.Ground, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNB", out, b, spice.Ground, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNC", out, cc, spice.Ground, spice.Ground, &t.NMOS, wn)
	return Instance{
		Pins:     map[string]spice.Node{"A": a, "B": b, "C": cc, "Out": out},
		Internal: map[string]spice.Node{"N": n, "N2": n2},
	}
}

// NAND3 builds a three-input NAND with a three-high NMOS stack; N is the
// stack node adjacent to the output.
func NAND3(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	a, b, cc := inputs[0], inputs[1], inputs[2]
	n := c.Node(name + ".N")
	n2 := c.Node(name + ".N2")
	wn := 3 * t.WNMin * drive
	wp := t.WPMin * drive
	c.AddMOS(name+".MNA", out, a, n, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNB", n, b, n2, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNC", n2, cc, spice.Ground, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MPA", out, a, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPB", out, b, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPC", out, cc, vdd, vdd, &t.PMOS, wp)
	return Instance{
		Pins:     map[string]spice.Node{"A": a, "B": b, "C": cc, "Out": out},
		Internal: map[string]spice.Node{"N": n, "N2": n2},
	}
}

// AOI21 builds an AND-OR-INVERT cell computing !(A·B + C): NMOS A,B in
// series (internal node N) parallel with NMOS C; PMOS C in series with the
// parallel pair A,B (internal node NP between).
func AOI21(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	a, b, cc := inputs[0], inputs[1], inputs[2]
	n := c.Node(name + ".N")
	np := c.Node(name + ".NP")
	wn := 2 * t.WNMin * drive
	wp := 2 * t.WPMin * drive
	// NMOS network.
	c.AddMOS(name+".MNA", out, a, n, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNB", n, b, spice.Ground, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNC", out, cc, spice.Ground, spice.Ground, &t.NMOS, t.WNMin*drive)
	// PMOS network.
	c.AddMOS(name+".MPC", np, cc, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPA", out, a, np, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPB", out, b, np, vdd, &t.PMOS, wp)
	return Instance{
		Pins:     map[string]spice.Node{"A": a, "B": b, "C": cc, "Out": out},
		Internal: map[string]spice.Node{"N": n, "NP": np},
	}
}

// OAI21 builds an OR-AND-INVERT cell computing !((A|B)·C): parallel NMOS
// A,B in series with NMOS C (internal node N above the C device); series
// PMOS A,B (internal node NP between) in parallel with PMOS C.
func OAI21(c *spice.Circuit, t Tech, name string, inputs []spice.Node, out, vdd spice.Node, drive float64) Instance {
	a, b, cc := inputs[0], inputs[1], inputs[2]
	n := c.Node(name + ".N")
	np := c.Node(name + ".NP")
	wn := 2 * t.WNMin * drive
	wp := 2 * t.WPMin * drive
	// NMOS network: (A || B) in series with C.
	c.AddMOS(name+".MNA", out, a, n, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNB", out, b, n, spice.Ground, &t.NMOS, wn)
	c.AddMOS(name+".MNC", n, cc, spice.Ground, spice.Ground, &t.NMOS, wn)
	// PMOS network: (A series B) parallel with C.
	c.AddMOS(name+".MPA", np, a, vdd, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPB", out, b, np, vdd, &t.PMOS, wp)
	c.AddMOS(name+".MPC", out, cc, vdd, vdd, &t.PMOS, t.WPMin*drive)
	return Instance{
		Pins:     map[string]spice.Node{"A": a, "B": b, "C": cc, "Out": out},
		Internal: map[string]spice.Node{"N": n, "NP": np},
	}
}
