package experiments

import (
	"fmt"
	"math"

	"cmosopt/internal/core"
	"cmosopt/internal/report"
)

// Process-design mode: the paper's §1 states "The algorithms discussed in
// this paper can be used to design a CMOS process for ultra low power
// designs ... one may use the algorithms on existing benchmarks with
// predicted circuit timing parameters to find the most desirable threshold
// voltage." This driver does exactly that: run the joint optimizer over the
// benchmark suite, look at the threshold each circuit asks for, recommend a
// single process-wide value, and then quantify what that one-size-fits-all
// threshold costs each circuit against its own optimum.

// ProcessVtEntry is the per-circuit outcome of the process-Vt study.
type ProcessVtEntry struct {
	Circuit   string
	OwnVt     float64 // the threshold the circuit's own joint optimum picked
	OwnEnergy float64
	AtRecVt   float64 // total energy with Vt pinned at the recommendation
	Penalty   float64 // AtRecVt / OwnEnergy (≥ 1)
}

// ProcessVtStudy runs the joint optimizer per circuit, recommends the
// energy-weighted geometric mean of the returned thresholds as the process
// target, then re-optimizes every circuit with the threshold pinned there
// (supply and widths still free). It returns the recommendation and the
// per-circuit entries.
func ProcessVtStudy(cfg Config, act float64) (recommended float64, entries []ProcessVtEntry, err error) {
	type own struct {
		p   *core.Problem
		res *core.Result
	}
	var owns []own
	var logSum, wSum float64
	for _, name := range cfg.Circuits {
		ct, err := loadCircuit(name)
		if err != nil {
			return 0, nil, err
		}
		p, err := core.NewProblem(cfg.spec(ct, act))
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		res, err := p.OptimizeJoint(cfg.Opts)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		owns = append(owns, own{p, res})
		// Weight by energy: circuits that burn more should steer the process.
		w := res.Energy.Total()
		logSum += w * math.Log(res.VtsValues[0])
		wSum += w
	}
	if wSum <= 0 {
		return 0, nil, fmt.Errorf("experiments: degenerate suite energies")
	}
	recommended = math.Exp(logSum / wSum)

	for i, o := range owns {
		opts := cfg.Opts
		opts.FixedVt = recommended
		pinned, err := o.p.OptimizeBaseline(opts)
		if err != nil {
			return 0, nil, fmt.Errorf("%s at recommended Vt: %w", cfg.Circuits[i], err)
		}
		entries = append(entries, ProcessVtEntry{
			Circuit:   cfg.Circuits[i],
			OwnVt:     o.res.VtsValues[0],
			OwnEnergy: o.res.Energy.Total(),
			AtRecVt:   pinned.Energy.Total(),
			Penalty:   pinned.Energy.Total() / o.res.Energy.Total(),
		})
	}
	return recommended, entries, nil
}

// ProcessVtTable renders the study.
func ProcessVtTable(recommended float64, entries []ProcessVtEntry) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Process threshold selection: recommended process Vt = %.0f mV (energy-weighted over the suite)",
			recommended*1e3),
		Headers: []string{"Circuit", "Own optimal Vt", "Own E (J)", "E at process Vt (J)", "Penalty"},
	}
	for _, e := range entries {
		t.AddRow(e.Circuit,
			fmt.Sprintf("%.0f mV", e.OwnVt*1e3),
			report.Sci(e.OwnEnergy), report.Sci(e.AtRecVt),
			fmt.Sprintf("%.2fx", e.Penalty))
	}
	return t
}
