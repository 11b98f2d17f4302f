package device

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Technology parameter files are plain "key = value" text with '#' comments,
// so a user can run the optimizer against their own process without
// recompiling:
//
//	# my 0.25um process
//	name   = my-0.25um
//	alpha  = 1.2
//	ksat   = 4.0e-5
//	...
//
// Unknown keys are rejected (they are almost always typos); omitted keys
// keep the value of the Tech the file is applied onto (start from
// Default350 for sensible fallbacks).

// techFields maps file keys to accessors, keeping parsing explicit.
var techFields = map[string]func(*Tech) *float64{
	"alpha":     func(t *Tech) *float64 { return &t.Alpha },
	"n":         func(t *Tech) *float64 { return &t.N },
	"vtherm":    func(t *Tech) *float64 { return &t.VTherm },
	"ksat":      func(t *Tech) *float64 { return &t.KSat },
	"ijunc":     func(t *Tech) *float64 { return &t.IJunc },
	"leakstack": func(t *Tech) *float64 { return &t.LeakStack },
	"ct":        func(t *Tech) *float64 { return &t.Ct },
	"cpd":       func(t *Tech) *float64 { return &t.CPD },
	"cmi":       func(t *Tech) *float64 { return &t.Cmi },
	"cout":      func(t *Tech) *float64 { return &t.COut },
	"vddmin":    func(t *Tech) *float64 { return &t.VddMin },
	"vddmax":    func(t *Tech) *float64 { return &t.VddMax },
	"vtsmin":    func(t *Tech) *float64 { return &t.VtsMin },
	"vtsmax":    func(t *Tech) *float64 { return &t.VtsMax },
	"wmin":      func(t *Tech) *float64 { return &t.WMin },
	"wmax":      func(t *Tech) *float64 { return &t.WMax },
}

// ParseTech reads parameter overrides into a copy of base and validates the
// result.
func ParseTech(base Tech, r io.Reader) (Tech, error) {
	t := base
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return t, fmt.Errorf("device: tech file line %d: expected key = value, got %q", lineNo, line)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if key == "name" {
			t.Name = val
			continue
		}
		field, known := techFields[key]
		if !known {
			return t, fmt.Errorf("device: tech file line %d: unknown parameter %q (have name, %s)",
				lineNo, key, strings.Join(techKeys(), ", "))
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return t, fmt.Errorf("device: tech file line %d: bad value %q for %s: %v", lineNo, val, key, err)
		}
		*field(&t) = x
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if err := t.Validate(); err != nil {
		return t, fmt.Errorf("device: tech file: %w", err)
	}
	return t, nil
}

// WriteTech writes the full parameter set in the file format; the output
// round-trips through ParseTech.
func WriteTech(w io.Writer, t Tech) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s technology parameters\n", t.Name)
	fmt.Fprintf(bw, "name = %s\n", t.Name)
	for _, key := range techKeys() {
		fmt.Fprintf(bw, "%s = %g\n", key, *techFields[key](&t))
	}
	return bw.Flush()
}

func techKeys() []string {
	keys := make([]string, 0, len(techFields))
	for k := range techFields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
