// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (§5): Table 1 (fixed-Vt baseline),
// Table 2 (joint heuristic with savings), Figure 2(a) (Vt process-variation
// sweep), Figure 2(b) (cycle-time slack sweep), the simulated-annealing
// comparison, and the multi-threshold extension study. cli.Tables and
// cli.Figures (the cmd/tables and cmd/figures executables) and the root
// bench harness are thin wrappers over this package.
package experiments

import (
	"fmt"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/parallel"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

// Config fixes the experimental conditions shared by all experiments. The
// defaults are the paper's: fc = 300 MHz, two input-activity levels, uniform
// input probability 0.5, the eight ISCAS'89-profile benchmark circuits.
type Config struct {
	Fc         float64
	Skew       float64
	InputProb  float64
	Activities []float64
	Circuits   []string
	Tech       device.Tech
	Wiring     wiring.Params
	Opts       core.Options
	// Obs, when non-nil, collects spans/counters/histograms for every problem
	// the experiment drivers elaborate. Observation only; results unchanged.
	Obs *obs.Registry
}

// Default returns the paper's experimental conditions.
func Default() Config {
	return Config{
		Fc:         300e6,
		Skew:       0.95,
		InputProb:  0.5,
		Activities: []float64{0.1, 0.5},
		Circuits:   netgen.SuiteNames(),
		Tech:       device.Default350(),
		Wiring:     wiring.Default350(),
		Opts:       core.DefaultOptions(),
	}
}

// spec builds the core.Spec for one circuit and activity level.
func (c *Config) spec(ct *circuit.Circuit, act float64) core.Spec {
	return core.Spec{
		Circuit:      ct,
		Tech:         c.Tech,
		Wiring:       c.Wiring,
		Fc:           c.Fc,
		Skew:         c.Skew,
		InputProb:    c.InputProb,
		InputDensity: act,
		Obs:          c.Obs,
	}
}

// loadCircuit resolves a benchmark name to a circuit: a synthetic ISCAS'89
// or ISCAS'85 profile, or the embedded genuine netlists "s27" / "c17".
func loadCircuit(name string) (*circuit.Circuit, error) {
	return netgen.LoadNamed(name)
}

// Entry is one (circuit, activity) cell of Tables 1 and 2.
type Entry struct {
	Circuit  string
	Gates    int
	Depth    int
	Activity float64
	Baseline *core.Result // Table 1: widths+Vdd at fixed Vt = 0.7 V
	Joint    *core.Result // Table 2: joint Vdd/Vts/widths
	Savings  float64      // Baseline total / Joint total
	// Savings33 is the total energy of the widths-only design at Vdd =
	// 3.3 V, Vt = 0.7 V over Joint's: the paper-comparable factor. That
	// design is the point the paper's Table 1 optimizer "coincidentally"
	// returned, i.e. the numerical reference behind the paper's 10–25x
	// savings figures.
	Savings33 float64
}

// RunSuite produces the data behind Tables 1 and 2 in one pass (the baseline
// is shared between them). Circuits fan out over cfg.Opts.Workers workers
// (0 = one per CPU); entries keep the cfg.Circuits order and the
// lowest-index failure is the one reported, so the output is independent of
// the worker count. Each circuit is loaded privately by its worker, so the
// per-run optimizers stay serial within a circuit (inner Workers pinned to 1
// when the suite level is parallel).
func RunSuite(cfg Config) ([]Entry, error) {
	slots := make([][]Entry, len(cfg.Circuits))
	w := parallel.Workers(cfg.Opts.Workers)
	if w > 1 {
		cfg.Opts.Workers = 1 // the suite level owns the parallelism
	}
	err := parallel.FirstError(w, len(cfg.Circuits), func(_, i int) error {
		var err error
		slots[i], err = runCircuit(cfg, cfg.Circuits[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []Entry
	for i := range slots {
		out = append(out, slots[i]...)
	}
	return out, nil
}

// runCircuit produces the Table 1/2 entries for one circuit.
func runCircuit(cfg Config, name string) ([]Entry, error) {
	var out []Entry
	{
		ct, err := loadCircuit(name)
		if err != nil {
			return nil, err
		}
		for _, act := range cfg.Activities {
			p, err := core.NewProblem(cfg.spec(ct, act))
			if err != nil {
				return nil, fmt.Errorf("%s a=%v: %w", name, act, err)
			}
			base, err := p.OptimizeBaseline(cfg.Opts)
			if err != nil {
				return nil, fmt.Errorf("%s a=%v baseline: %w", name, act, err)
			}
			optsRef := cfg.Opts
			optsRef.FixedVdd = cfg.Tech.VddMax
			ref33, err := p.OptimizeBaseline(optsRef)
			if err != nil {
				return nil, fmt.Errorf("%s a=%v 3.3V reference: %w", name, act, err)
			}
			joint, err := p.OptimizeJoint(cfg.Opts)
			if err != nil {
				return nil, fmt.Errorf("%s a=%v joint: %w", name, act, err)
			}
			depth, err := p.C.Depth()
			if err != nil {
				return nil, err
			}
			out = append(out, Entry{
				Circuit:   name,
				Gates:     p.C.NumLogic(),
				Depth:     depth,
				Activity:  act,
				Baseline:  base,
				Joint:     joint,
				Savings:   joint.Savings(base),
				Savings33: joint.Savings(ref33),
			})
		}
	}
	return out, nil
}

// Table1 renders the baseline results in the layout of the paper's Table 1.
func Table1(entries []Entry) *report.Table {
	t := &report.Table{
		Title: "Table 1: benchmark circuits under width+Vdd optimization (Vt = 700 mV, fc = 300 MHz)",
		Headers: []string{"Circuit", "Gates", "Depth", "Activity",
			"Static E (J)", "Dynamic E (J)", "Total E (J)", "Delay (ns)", "Vdd (V)"},
	}
	for _, e := range entries {
		b := e.Baseline
		t.AddRow(e.Circuit, e.Gates, e.Depth, fmt.Sprintf("%.2f", e.Activity),
			report.Sci(b.Energy.Static), report.Sci(b.Energy.Dynamic), report.Sci(b.Energy.Total()),
			fmt.Sprintf("%.3f", b.CriticalDelay*1e9), fmt.Sprintf("%.2f", b.Vdd))
	}
	return t
}

// Table2 renders the joint-optimization results in the layout of the paper's
// Table 2 (with the returned Vdd/Vt columns the paper reports in prose).
func Table2(entries []Entry) *report.Table {
	t := &report.Table{
		Title: "Table 2: joint Vdd/Vt/width optimization (heuristic), savings vs Table 1 and vs the 3.3V/0.7V reference",
		Headers: []string{"Circuit", "Activity",
			"Static E (J)", "Dynamic E (J)", "Total E (J)", "Delay (ns)",
			"Vdd (V)", "Vt (V)", "Savings", "vs 3.3V"},
	}
	for _, e := range entries {
		j := e.Joint
		t.AddRow(e.Circuit, fmt.Sprintf("%.2f", e.Activity),
			report.Sci(j.Energy.Static), report.Sci(j.Energy.Dynamic), report.Sci(j.Energy.Total()),
			fmt.Sprintf("%.3f", j.CriticalDelay*1e9),
			fmt.Sprintf("%.2f", j.Vdd), fmt.Sprintf("%.3f", j.VtsValues[0]),
			fmt.Sprintf("%.1fx", e.Savings), fmt.Sprintf("%.1fx", e.Savings33))
	}
	return t
}

// Figure2a runs the Vt process-variation study of Figure 2(a) on one circuit
// at the given activity.
func Figure2a(cfg Config, name string, act float64, tols []float64) ([]core.VariationPoint, error) {
	ct, err := loadCircuit(name)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(cfg.spec(ct, act))
	if err != nil {
		return nil, err
	}
	base, err := p.OptimizeBaseline(cfg.Opts)
	if err != nil {
		return nil, err
	}
	return p.VariationStudy(tols, cfg.Opts, base)
}

// Figure2aTable renders the variation sweep.
func Figure2aTable(pts []core.VariationPoint) *report.Table {
	t := &report.Table{
		Title:   "Figure 2(a): power savings vs threshold-voltage variation (worst-case corners)",
		Headers: []string{"Vt tolerance", "Savings", "Worst E (J)", "Vdd (V)", "Vt (V)"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.0f%%", p.Tol*100), fmt.Sprintf("%.1fx", p.Savings),
			report.Sci(p.WorstEnergy), fmt.Sprintf("%.2f", p.Vdd), fmt.Sprintf("%.3f", p.Vts))
	}
	return t
}

// Figure2b runs the cycle-time slack study of Figure 2(b) on one circuit.
func Figure2b(cfg Config, name string, act float64, skews []float64) ([]core.SlackPoint, error) {
	ct, err := loadCircuit(name)
	if err != nil {
		return nil, err
	}
	return core.SlackStudy(cfg.spec(ct, act), skews, cfg.Opts)
}

// Figure2bTable renders the slack sweep.
func Figure2bTable(pts []core.SlackPoint) *report.Table {
	t := &report.Table{
		Title:   "Figure 2(b): power savings vs available cycle time (skew factor b)",
		Headers: []string{"Skew b", "Savings", "Joint E (J)", "Vdd (V)", "Vt (V)"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.2f", p.Skew), fmt.Sprintf("%.1fx", p.Savings),
			report.Sci(p.JointEnergy), fmt.Sprintf("%.2f", p.JointVdd), fmt.Sprintf("%.3f", p.JointVts))
	}
	return t
}

// SAEntry is one row of the §5 simulated-annealing comparison.
type SAEntry struct {
	Circuit string
	Joint   *core.Result
	Anneal  *core.Result
	// Ratio is anneal total energy / heuristic total energy (> 1 means the
	// heuristic wins, the paper's finding).
	Ratio float64
}

// SACompare runs the heuristic and the multi-pass annealer on each circuit.
func SACompare(cfg Config, names []string, act float64, ao core.AnnealOptions) ([]SAEntry, error) {
	var out []SAEntry
	for _, name := range names {
		ct, err := loadCircuit(name)
		if err != nil {
			return nil, err
		}
		p, err := core.NewProblem(cfg.spec(ct, act))
		if err != nil {
			return nil, err
		}
		joint, err := p.OptimizeJoint(cfg.Opts)
		if err != nil {
			return nil, err
		}
		sa, err := p.OptimizeAnneal(ao)
		if err != nil {
			return nil, err
		}
		out = append(out, SAEntry{
			Circuit: name,
			Joint:   joint,
			Anneal:  sa,
			Ratio:   sa.Energy.Total() / joint.Energy.Total(),
		})
	}
	return out, nil
}

// SATable renders the annealing comparison.
func SATable(entries []SAEntry) *report.Table {
	t := &report.Table{
		Title:   "§5 comparison: multi-pass simulated annealing vs the heuristic",
		Headers: []string{"Circuit", "Heuristic E (J)", "Anneal E (J)", "Anneal/Heuristic", "Anneal feasible"},
	}
	for _, e := range entries {
		t.AddRow(e.Circuit, report.Sci(e.Joint.Energy.Total()), report.Sci(e.Anneal.Energy.Total()),
			fmt.Sprintf("%.2fx", e.Ratio), fmt.Sprintf("%v", e.Anneal.Feasible))
	}
	return t
}

// MultiVtEntry is one row of the n_v extension study.
type MultiVtEntry struct {
	Circuit string
	Nv      int
	Result  *core.Result
	// Gain is total energy at nv=1 divided by total energy at this nv.
	Gain float64
}

// MultiVtStudy sweeps the number of distinct threshold voltages on one
// circuit (the paper's §4.3 "flexibility to use more than one threshold").
func MultiVtStudy(cfg Config, name string, act float64, nvs []int) ([]MultiVtEntry, error) {
	ct, err := loadCircuit(name)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(cfg.spec(ct, act))
	if err != nil {
		return nil, err
	}
	var ref float64
	var out []MultiVtEntry
	for _, nv := range nvs {
		res, err := p.OptimizeMultiVt(nv, cfg.Opts)
		if err != nil {
			return nil, err
		}
		if nv == 1 || ref == 0 {
			ref = res.Energy.Total()
		}
		out = append(out, MultiVtEntry{Circuit: name, Nv: nv, Result: res, Gain: ref / res.Energy.Total()})
	}
	return out, nil
}

// MultiVtTable renders the n_v sweep.
func MultiVtTable(entries []MultiVtEntry) *report.Table {
	t := &report.Table{
		Title:   "Multi-threshold extension: energy vs number of distinct Vt values",
		Headers: []string{"Circuit", "nv", "Total E (J)", "Vt values (V)", "Gain vs nv=1"},
	}
	for _, e := range entries {
		vts := ""
		for i, v := range e.Result.VtsValues {
			if i > 0 {
				vts += " / "
			}
			vts += fmt.Sprintf("%.3f", v)
		}
		t.AddRow(e.Circuit, e.Nv, report.Sci(e.Result.Energy.Total()), vts, fmt.Sprintf("%.2fx", e.Gain))
	}
	return t
}
