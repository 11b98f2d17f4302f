package cli

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cmosopt/internal/device"
	"cmosopt/internal/experiments"
	"cmosopt/internal/obs"
	"cmosopt/internal/report"
)

// Tables implements cmd/tables: regenerate the paper's result tables
// (Table 1, Table 2, the §5 annealing comparison and the extension studies)
// and print them in the chosen format.
func Tables(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(out)
	table := fs.String("table", "all", "which table: 1, 2, all, sa, multivt, processvt, nodes")
	circuits := fs.String("circuits", "", "comma-separated benchmark names (default: full suite)")
	activities := fs.String("activities", "0.1,0.5", "comma-separated input activity levels")
	fc := fs.Float64("fc", 300e6, "required clock frequency (Hz)")
	m := fs.Int("M", 12, "bisection steps per Procedure 2 loop")
	format := formatFlag(fs)
	var of ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Default()
	cfg.Fc = *fc
	cfg.Opts.M = *m
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	var acts []float64
	for _, s := range strings.Split(*activities, ",") {
		a, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad activity %q: %v", s, err)
		}
		acts = append(acts, a)
	}
	cfg.Activities = acts
	reg, err := of.Begin(out)
	if err != nil {
		return err
	}
	cfg.Obs = reg

	var tables []*report.Table
	switch *table {
	case "1", "2", "all":
		entries, err := experiments.RunSuite(cfg)
		if err != nil {
			return err
		}
		if *table != "2" {
			tables = append(tables, experiments.Table1(entries))
		}
		if *table != "1" {
			tables = append(tables, experiments.Table2(entries))
		}
	case "sa":
		entries, err := experiments.SACompare(cfg, cfg.Circuits, cfg.Activities[0])
		if err != nil {
			return err
		}
		tables = append(tables, experiments.SATable(entries))
	case "multivt":
		entries, err := experiments.MultiVtStudy(cfg, cfg.Circuits[0], cfg.Activities[0], []int{1, 2, 3})
		if err != nil {
			return err
		}
		tables = append(tables, experiments.MultiVtTable(entries))
	case "processvt":
		rec, entries, err := experiments.ProcessVtStudy(cfg, cfg.Activities[0])
		if err != nil {
			return err
		}
		tables = append(tables, experiments.ProcessVtTable(rec, entries))
	case "nodes":
		entries, err := experiments.CrossNodeStudy(cfg, cfg.Activities[0],
			[]device.Tech{device.Default350(), device.Default250()})
		if err != nil {
			return err
		}
		tables = append(tables, experiments.CrossNodeTable(entries))
	default:
		return fmt.Errorf("unknown -table %q", *table)
	}
	for _, t := range tables {
		if err := renderTable(out, t, *format); err != nil {
			return err
		}
	}

	man := obs.NewManifest("tables")
	man.FcHz = *fc
	man.Workers = cfg.Opts.Workers
	return of.End(man, reg)
}

// formatFlag registers -format, the output format renderTable takes.
func formatFlag(fs *flag.FlagSet) *string {
	return fs.String("format", "text", "output format: text, markdown, csv")
}

// renderTable writes t to out in format (text, markdown or csv), followed
// by a blank line. Tables and Figures render every table through it.
func renderTable(out io.Writer, t *report.Table, format string) error {
	var err error
	switch format {
	case "text":
		err = t.Render(out)
	case "markdown":
		err = t.RenderMarkdown(out)
	case "csv":
		err = t.RenderCSV(out)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out)
	return err
}

// Figures implements cmd/figures: regenerate the data series of the paper's
// Figure 2 — (a) savings under threshold-voltage process variation, (b)
// savings versus available cycle time — optionally with ASCII plots.
func Figures(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(out)
	fig := fs.String("fig", "all", "which figure: 2a, 2b, all")
	circuitName := fs.String("circuit", "s298", "benchmark circuit")
	act := fs.Float64("activity", 0.5, "input activity level")
	fc := fs.Float64("fc", 300e6, "required clock frequency (Hz)")
	format := formatFlag(fs)
	plot := fs.Bool("plot", false, "also render an ASCII plot of each series")
	var of ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig != "2a" && *fig != "2b" && *fig != "all" {
		return fmt.Errorf("unknown -fig %q", *fig)
	}

	reg, err := of.Begin(out)
	if err != nil {
		return err
	}
	cfg := experiments.Default()
	cfg.Fc = *fc
	cfg.Obs = reg

	// emit prints one series as a table and, with -plot, as an ASCII plot
	// of savings against x.
	emit := func(t *report.Table, title string, x, savings []float64) error {
		if err := renderTable(out, t, *format); err != nil {
			return err
		}
		if !*plot {
			return nil
		}
		s := report.Series{Name: "savings", X: x, Y: savings}
		_, err := fmt.Fprintln(out, report.AsciiPlot(title, []report.Series{s}, 48, 12))
		return err
	}

	if *fig == "2a" || *fig == "all" {
		tols := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
		pts, err := experiments.Figure2a(cfg, *circuitName, *act, tols)
		if err != nil {
			return err
		}
		var x, y []float64
		for _, p := range pts {
			x = append(x, p.Tol*100)
			y = append(y, p.Savings)
		}
		if err := emit(experiments.Figure2aTable(pts), "Figure 2(a): savings vs Vt tolerance (%)", x, y); err != nil {
			return err
		}
	}
	if *fig == "2b" || *fig == "all" {
		skews := []float64{0.55, 0.65, 0.75, 0.85, 0.95, 1.0}
		pts, err := experiments.Figure2b(cfg, *circuitName, *act, skews)
		if err != nil {
			return err
		}
		var x, y []float64
		for _, p := range pts {
			x = append(x, p.Skew)
			y = append(y, p.Savings)
		}
		if err := emit(experiments.Figure2bTable(pts), "Figure 2(b): savings vs skew factor b", x, y); err != nil {
			return err
		}
	}

	man := obs.NewManifest("figures")
	man.Circuit = *circuitName
	man.FcHz = *fc
	return of.End(man, reg)
}
