package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

// SweepParams is the clock-sweep study of cmd/sweep in parameter form, so
// the same run can be driven by command-line flags, by the optimization
// server (internal/serve), or in-process by the load generator's
// byte-identity check — all three produce the identical table for identical
// parameters.
type SweepParams struct {
	Circuit  string  // built-in benchmark name
	FromHz   float64 // lowest clock target (Hz)
	ToHz     float64 // highest clock target (Hz)
	Points   int     // number of log-spaced sweep points
	Activity float64 // input transition density per cycle
	Workers  int     // parallel workers (0 = one per CPU)
}

// SetDefaults fills zero fields with the cmd/sweep flag defaults.
func (p *SweepParams) SetDefaults() {
	if p.Circuit == "" {
		p.Circuit = "s298"
	}
	if p.FromHz == 0 {
		p.FromHz = 50e6
	}
	if p.ToHz == 0 {
		p.ToHz = 600e6
	}
	if p.Points == 0 {
		p.Points = 8
	}
	if p.Activity == 0 {
		p.Activity = 0.5
	}
}

// MaxClockHz is the fastest clock target a sweep or a served request may
// ask for. Its cycle budget is under 1 ps, and the fastest gate of the
// default 0.35 µm technology takes about 15 ps, so a faster target could
// only end in "no feasible design point" after a whole search.
//
//cmosvet:unit Hz
const MaxClockHz = 1e12

// CheckClock rejects a clock target that is not positive (NaN included) or
// lies above MaxClockHz (+Inf included), naming it by field. Sweeps, served
// requests and the -fc flags of lowpower, eco and verify share it.
func CheckClock(field string, hz float64) error {
	if !(hz > 0) {
		return fmt.Errorf("%s %v must be positive", field, hz)
	}
	if hz > MaxClockHz {
		return fmt.Errorf("%s %v Hz above the %v Hz ceiling", field, hz, MaxClockHz)
	}
	return nil
}

// Validate rejects unusable sweep ranges, among them one whose to/from ratio
// is not finite: it overflows, or a bound is NaN, and the clock targets
// would be +Inf or NaN. It also rejects clocks above MaxClockHz.
func (p *SweepParams) Validate() error {
	ratio := p.ToHz / p.FromHz
	if p.FromHz <= 0 || p.ToHz <= p.FromHz || p.Points < 2 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		return fmt.Errorf("bad sweep range [%v, %v] x %d", p.FromHz, p.ToHz, p.Points)
	}
	if err := CheckClock("sweep clock", p.ToHz); err != nil {
		return err
	}
	if p.Points > 256 {
		return fmt.Errorf("sweep of %d points exceeds the 256-point cap", p.Points)
	}
	if p.Workers < 0 {
		return fmt.Errorf("bad worker count %d", p.Workers)
	}
	if !(p.Activity >= 0 && p.Activity <= 1) { // NaN fails too
		return fmt.Errorf("activity %v outside [0,1]", p.Activity)
	}
	return nil
}

// Clocks returns the log-spaced clock targets. Spaced by exponent rather
// than by running product: fcs[i] = from·ratio^i has no accumulated rounding
// drift, so the last point lands exactly on ToHz.
func (p *SweepParams) Clocks() []float64 {
	fcs := make([]float64, p.Points)
	ratio := p.ToHz / p.FromHz
	for i := range fcs {
		fcs[i] = p.FromHz * math.Pow(ratio, float64(i)/float64(p.Points-1))
	}
	fcs[p.Points-1] = p.ToHz
	return fcs
}

// RunSweep resolves the circuit and runs the EDP study. ctx, when non-nil,
// cancels the underlying optimizer loops; reg, when non-nil, collects the
// run's spans and counters. Neither changes the returned points.
func RunSweep(p SweepParams, tech device.Tech, reg *obs.Registry, ctx context.Context) (*circuit.Circuit, []core.EDPPoint, int, error) {
	p.SetDefaults()
	if err := p.Validate(); err != nil {
		return nil, nil, -1, err
	}
	ct, err := netgen.LoadNamed(p.Circuit)
	if err != nil {
		return nil, nil, -1, err
	}
	spec := core.Spec{
		Circuit:      ct,
		Tech:         tech,
		Wiring:       wiring.Default350(),
		Fc:           p.FromHz, // per-point override inside EDPStudy
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: p.Activity,
		Obs:          reg,
		Ctx:          ctx,
	}
	opts := core.DefaultOptions()
	opts.Workers = p.Workers
	pts, best, err := core.EDPStudy(spec, p.Clocks(), opts)
	if err != nil {
		return nil, nil, -1, err
	}
	return ct, pts, best, nil
}

// SweepTable renders the study into the report table cmd/sweep prints.
func SweepTable(name string, activity float64, pts []core.EDPPoint, best int) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("clock sweep: %s (activity %.2f)", name, activity),
		Headers: []string{"fc (MHz)", "Vdd (V)", "Vt (V)", "Static E (J)",
			"Dynamic E (J)", "Total E (J)", "EDP (J*s)", "note"},
	}
	for i, pt := range pts {
		note := ""
		if i == best {
			note = "<- min EDP"
		}
		r := pt.Result
		t.AddRow(
			fmt.Sprintf("%.0f", pt.Fc/1e6),
			fmt.Sprintf("%.2f", r.Vdd),
			fmt.Sprintf("%.3f", r.VtsValues[0]),
			report.Sci(r.Energy.Static),
			report.Sci(r.Energy.Dynamic),
			report.Sci(r.Energy.Total()),
			report.Sci(pt.EDP),
			note,
		)
	}
	return t
}

// RenderSweep writes the table in the requested format ("text" or "csv").
func RenderSweep(w io.Writer, format string, t *report.Table) error {
	switch format {
	case "text":
		return t.Render(w)
	case "csv":
		return t.RenderCSV(w)
	}
	return fmt.Errorf("unknown format %q", format)
}

// Sweep implements cmd/sweep: parse flags, run the study, print the table,
// and emit the run manifest.
func Sweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(out)
	name := fs.String("circuit", "s298", "benchmark circuit")
	from := fs.Float64("from", 50e6, "lowest clock target (Hz)")
	to := fs.Float64("to", 600e6, "highest clock target (Hz)")
	points := fs.Int("points", 8, "number of sweep points (log-spaced)")
	act := fs.Float64("activity", 0.5, "input transition density per cycle")
	format := fs.String("format", "text", "output format: text, csv")
	workers := fs.Int("workers", 0, "parallel workers (0 = one per CPU, 1 = serial; same output either way)")
	var of ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, err := of.Begin(out)
	if err != nil {
		return err
	}
	params := SweepParams{
		Circuit: *name, FromHz: *from, ToHz: *to, Points: *points,
		Activity: *act, Workers: *workers,
	}
	// Validate the raw flag values: a zero -from is a user error here, not a
	// request for the default (SetDefaults only backfills absent API fields).
	if err := params.Validate(); err != nil {
		return err
	}
	ct, pts, best, err := RunSweep(params, device.Default350(), reg, nil)
	if err != nil {
		return err
	}
	if err := RenderSweep(out, *format, SweepTable(ct.Name, *act, pts, best)); err != nil {
		return err
	}

	man := obs.NewManifest("sweep")
	man.Circuit = ct.Name
	man.Gates = ct.NumLogic()
	man.Workers = *workers
	for _, pt := range pts {
		man.Results = append(man.Results,
			ResultRecord(fmt.Sprintf("fc=%.0fMHz", pt.Fc/1e6), pt.Fc, pt.Result))
	}
	return of.End(man, reg)
}
