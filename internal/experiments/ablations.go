package experiments

import (
	"fmt"
	"math"
	"time"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// historyMaxErr measures a model's worst relative delay error over the two
// history cases against the transistor reference at the given load.
func historyMaxErr(cfg Config, m *csm.Model, cl float64, tm cells.HistoryTiming) (float64, error) {
	var worst float64
	for caseNo := 1; caseNo <= 2; caseNo++ {
		refOut, _, err := historyRef(cfg, caseNo, cl, tm)
		if err != nil {
			return 0, err
		}
		dRef, err := switchDelay(refOut, cfg.Tech.Vdd, tm)
		if err != nil {
			return 0, err
		}
		sr, err := historyModel(cfg, m, caseNo, cl, tm)
		if err != nil {
			return 0, err
		}
		d, err := switchDelay(sr.Out, cfg.Tech.Vdd, tm)
		if err != nil {
			return 0, err
		}
		if e := math.Abs(d-dRef) / dRef; e > worst {
			worst = e
		}
	}
	return worst, nil
}

// runEfficiency times one CSM stage solve against one transistor-level
// transient of the same scenario — the practical payoff of pre-
// characterized models (EXP-T1).
func runEfficiency(s *Session) (Renderable, error) {
	cfg := s.Cfg
	tm := cells.DefaultHistoryTiming()
	cl := cells.FanoutCap(cfg.Tech, 2)
	m, err := s.Model("NOR2", csm.KindMCSM)
	if err != nil {
		return nil, err
	}
	reps := 5
	if cfg.Quick {
		reps = 2
	}

	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, _, err := historyRef(cfg, 2, cl, tm); err != nil {
			return nil, err
		}
	}
	refTime := time.Since(t0) / time.Duration(reps)

	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if err := historyRefAdaptive(cfg, 2, cl, tm); err != nil {
			return nil, err
		}
	}
	adTime := time.Since(t0) / time.Duration(reps)

	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := historyModel(cfg, m, 2, cl, tm); err != nil {
			return nil, err
		}
	}
	modTime := time.Since(t0) / time.Duration(reps)

	t0 = time.Now()
	wa, wb := cells.NOR2HistoryInputs(cfg.Tech.Vdd, 2, tm)
	for i := 0; i < reps; i++ {
		if _, err := csm.SimulateExplicit(m, []wave.Waveform{wa, wb}, cl, 0, tm.TEnd, cfg.Dt); err != nil {
			return nil, err
		}
	}
	expTime := time.Since(t0) / time.Duration(reps)

	g, err := spice.NewAdaptive(0, tm.TEnd, spice.DefaultAdaptive())
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := csm.SimulateStageOut(m, []wave.Waveform{wa, wb}, csm.CapLoad(cl), g, nil); err != nil {
			return nil, err
		}
	}
	adStageTime := time.Since(t0) / time.Duration(reps)

	return &Grid{
		Title:  "EXP-T1 — runtime per stage evaluation (NOR2 history scenario)",
		Header: []string{"engine", "time/run", "speedup vs transistor"},
		Rows: [][]string{
			{"transistor-level transient (1ps fixed)", refTime.String(), "1.0x"},
			{"transistor-level transient (adaptive)", adTime.String(), fmt.Sprintf("%.1fx", float64(refTime)/float64(adTime))},
			{"MCSM implicit stage (1ps fixed)", modTime.String(), fmt.Sprintf("%.1fx", float64(refTime)/float64(modTime))},
			{"MCSM implicit stage (adaptive)", adStageTime.String(), fmt.Sprintf("%.1fx", float64(refTime)/float64(adStageTime))},
			{"MCSM explicit Eq.4/5", expTime.String(), fmt.Sprintf("%.1fx", float64(refTime)/float64(expTime))},
		},
		Notes: []string{"CSMs amortize the transistor-level cost into characterization; stage evaluation is cheap."},
	}, nil
}

// runAblGrid sweeps the current-table grid density (EXP-A1).
func runAblGrid(s *Session) (Renderable, error) {
	cfg := s.Cfg
	tm := cells.DefaultHistoryTiming()
	cl := cells.FanoutCap(cfg.Tech, 2)
	grids := []int{5, 7, 9, 11}
	if cfg.Quick {
		grids = []int{5, 9}
	}
	g := &Grid{
		Title:  "EXP-A1 — current-table grid resolution vs accuracy",
		Header: []string{"grid points/axis", "char time", "max delay err"},
		Notes:  []string{"Rail-anchored axes; internal axis at 2n+1 per Config.GridInternal."},
	}
	for _, n := range grids {
		cc := cfg.CharCfg
		cc.GridCurrent = n
		cc.GridInternal = 0 // derive from GridCurrent
		t0 := time.Now()
		m, err := s.ModelWith("NOR2", csm.KindMCSM, cc)
		if err != nil {
			return nil, err
		}
		charTime := time.Since(t0)
		e, err := historyMaxErr(cfg, m, cl, tm)
		if err != nil {
			return nil, err
		}
		g.Rows = append(g.Rows, []string{fmt.Sprintf("%d", n), charTime.Truncate(time.Millisecond).String(), pct(e)})
	}
	return g, nil
}

// runAblCaps compares capacitance extraction styles (EXP-A2): the paper's
// slope-averaged transient ramps, a single-slope variant, and the direct
// operating-point summation.
func runAblCaps(s *Session) (Renderable, error) {
	cfg := s.Cfg
	tm := cells.DefaultHistoryTiming()
	cl := cells.FanoutCap(cfg.Tech, 2)
	g := &Grid{
		Title:  "EXP-A2 — capacitance extraction ablation",
		Header: []string{"extraction", "max delay err"},
		Notes:  []string{"Paper §3.3 averages ramp slopes; slope dependence is expected to be small."},
	}
	variants := []struct {
		name string
		mod  func(c *csm.Config)
	}{
		{"transient, slope-averaged (paper)", func(c *csm.Config) {}},
		{"transient, single slope", func(c *csm.Config) { c.SingleSlope = true }},
		{"direct operating-point", func(c *csm.Config) { c.DirectCaps = true }},
	}
	for _, v := range variants {
		cc := cfg.CharCfg
		cc.SlewTimes = []float64{60e-12, 120e-12}
		v.mod(&cc)
		m, err := s.ModelWith("NOR2", csm.KindMCSM, cc)
		if err != nil {
			return nil, err
		}
		e, err := historyMaxErr(cfg, m, cl, tm)
		if err != nil {
			return nil, err
		}
		g.Rows = append(g.Rows, []string{v.name, pct(e)})
	}
	return g, nil
}

// runAblInteg compares the explicit Eq. 4/5 update against the implicit
// solver across time steps (EXP-A3).
func runAblInteg(s *Session) (Renderable, error) {
	cfg := s.Cfg
	tm := cells.DefaultHistoryTiming()
	cl := cells.FanoutCap(cfg.Tech, 2)
	m, err := s.Model("NOR2", csm.KindMCSM)
	if err != nil {
		return nil, err
	}
	wa, wb := cells.NOR2HistoryInputs(cfg.Tech.Vdd, 2, tm)
	inputs := []wave.Waveform{wa, wb}

	ref, err := csm.SimulateStage(m, inputs, csm.CapLoad(cl), 0, tm.TEnd, 0.25e-12)
	if err != nil {
		return nil, err
	}
	dRef, err := switchDelay(ref.Out, cfg.Tech.Vdd, tm)
	if err != nil {
		return nil, err
	}

	g := &Grid{
		Title:  "EXP-A3 — integrator ablation (vs implicit @ 0.25ps)",
		Header: []string{"integrator", "dt (ps)", "delay (ps)", "delay err", "RMSE/Vdd"},
	}
	steps := []float64{0.25e-12, 1e-12, 4e-12}
	for _, dt := range steps {
		imp, err := csm.SimulateStage(m, inputs, csm.CapLoad(cl), 0, tm.TEnd, dt)
		if err != nil {
			return nil, err
		}
		addIntegRow(g, "implicit (trap)", dt, imp.Out, dRef, ref.Out, tm, cfg)
		exp, err := csm.SimulateExplicit(m, inputs, cl, 0, tm.TEnd, dt)
		if err != nil {
			return nil, err
		}
		addIntegRow(g, "explicit Eq.4/5", dt, exp.Out, dRef, ref.Out, tm, cfg)
	}
	g.Notes = []string{"The explicit update needs small steps; the implicit form is robust at coarse dt."}
	return g, nil
}

func addIntegRow(g *Grid, name string, dt float64, out wave.Waveform, dRef float64, refOut wave.Waveform, tm cells.HistoryTiming, cfg Config) {
	d, err := switchDelay(out, cfg.Tech.Vdd, tm)
	if err != nil {
		g.Rows = append(g.Rows, []string{name, fmt.Sprintf("%.2f", dt*1e12), "unstable", "—", "—"})
		return
	}
	rmse := wave.RMSE(refOut, out, tm.TSwitch-0.1e-9, tm.TEnd, 800) / cfg.Tech.Vdd
	g.Rows = append(g.Rows, []string{
		name, fmt.Sprintf("%.2f", dt*1e12), ps(d),
		pct(math.Abs(d-dRef) / math.Max(dRef, 1e-15)), pct(rmse),
	})
}

// runAblSelective quantifies the §3.4 selective-modeling rule (EXP-A4): the
// baseline (simple) model's error decays with load, so past a CL/CN ratio
// the complete model is unnecessary.
func runAblSelective(s *Session) (Renderable, error) {
	cfg := s.Cfg
	tm := cells.DefaultHistoryTiming()
	mcsm, err := s.Model("NOR2", csm.KindMCSM)
	if err != nil {
		return nil, err
	}
	base, err := s.Model("NOR2", csm.KindMISBaseline)
	if err != nil {
		return nil, err
	}
	cn := mcsm.MeanInternalCap()
	sel := csm.Selector{Complete: mcsm, Simple: base}

	fanouts := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		fanouts = []int{1, 4, 16}
	}
	g := &Grid{
		Title:  "EXP-A4 — selective modeling: simple-model error vs load",
		Header: []string{"load", "CL/CN", "complete err", "simple err", "policy picks"},
		Notes: []string{fmt.Sprintf("mean CN = %.3g fF; default threshold CL/CN = %.0f",
			cn*1e15, csm.DefaultThreshold)},
	}
	for _, fo := range fanouts {
		cl := cells.FanoutCap(cfg.Tech, fo)
		eC, err := historyMaxErr(cfg, mcsm, cl, tm)
		if err != nil {
			return nil, err
		}
		eS, err := historyMaxErr(cfg, base, cl, tm)
		if err != nil {
			return nil, err
		}
		pick := "complete"
		if sel.Pick(cl) == base {
			pick = "simple"
		}
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("FO%d", fo), fmt.Sprintf("%.1f", cl/cn), pct(eC), pct(eS), pick,
		})
	}
	return g, nil
}

// runAblNMiller quantifies the paper's §3.2 simplification (EXP-A5): the
// extended model with internal-node Miller coupling versus the
// paper-faithful one without it.
func runAblNMiller(s *Session) (Renderable, error) {
	cfg := s.Cfg
	tm := cells.DefaultHistoryTiming()
	cl := cells.FanoutCap(cfg.Tech, 2)

	ext, err := s.Model("NOR2", csm.KindMCSM)
	if err != nil {
		return nil, err
	}
	cc := cfg.CharCfg
	cc.NoInternalMiller = true
	plain, err := s.ModelWith("NOR2", csm.KindMCSM, cc)
	if err != nil {
		return nil, err
	}
	eExt, err := historyMaxErr(cfg, ext, cl, tm)
	if err != nil {
		return nil, err
	}
	ePlain, err := historyMaxErr(cfg, plain, cl, tm)
	if err != nil {
		return nil, err
	}
	return &Grid{
		Title:  "EXP-A5 — cost of ignoring internal-node Miller coupling (§3.2)",
		Header: []string{"model variant", "max delay err (FO2)"},
		Rows: [][]string{
			{"MCSM + CmN/CmNO extension (this library's default)", pct(eExt)},
			{"MCSM, paper-faithful §3.2 simplification", pct(ePlain)},
		},
		Notes: []string{"The paper states the simplification \"does not introduce much error\"; this quantifies it for our technology."},
	}, nil
}
