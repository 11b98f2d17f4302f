package device

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseTechOverrides(t *testing.T) {
	src := `
# a faster process
name = test-proc
ksat = 5e-5
alpha = 1.2
`
	tc, err := ParseTech(Default350(), strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Name != "test-proc" || tc.KSat != 5e-5 || tc.Alpha != 1.2 {
		t.Errorf("overrides lost: %+v", tc)
	}
	// Untouched fields keep the base values.
	if tc.Ct != Default350().Ct {
		t.Errorf("Ct changed to %v", tc.Ct)
	}
}

func TestParseTechRejects(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown key", "frobnicate = 3\n", "unknown parameter"},
		// Keys no model reads are refused like any typo.
		{"retired beta", "beta = 2\n", `unknown parameter "beta"`},
		{"retired f", "f = 0.35e-6\n", `unknown parameter "f"`},
		{"bad value", "ksat = banana\n", "bad value"},
		{"no equals", "just words\n", "expected key = value"},
		{"invalid result", "alpha = 9\n", "Alpha"},
		{"NaN cmi", "cmi = NaN\n", "cmi = NaN must be finite"},
		{"NaN cout", "cout = NaN\n", "cout = NaN must be finite"},
		{"NaN ijunc", "ijunc = NaN\n", "ijunc = NaN must be finite"},
		{"Inf vddmax", "vddmax = Inf\n", "vddmax = +Inf must be finite"},
		{"Inf vtsmax", "vtsmax = Inf\n", "vtsmax = +Inf must be finite"},
		{"Inf wmax", "wmax = +Inf\n", "wmax = +Inf must be finite"},
	}
	for _, tc := range cases {
		_, err := ParseTech(Default350(), strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestTechRoundTrip(t *testing.T) {
	orig := Default350()
	orig.KSat = 3.14e-5
	var buf bytes.Buffer
	if err := WriteTech(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// A comment, the name and one line per parameter.
	if lines := strings.Count(buf.String(), "\n"); lines != 2+len(techFields) {
		t.Errorf("WriteTech wrote %d lines, want %d:\n%s", lines, 2+len(techFields), buf.String())
	}
	back, err := ParseTech(Tech{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip changed tech:\n%+v\nvs\n%+v", back, orig)
	}
}

func TestParseTechCaseInsensitiveKeys(t *testing.T) {
	tc, err := ParseTech(Default350(), strings.NewReader("KSat = 4e-5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tc.KSat != 4e-5 {
		t.Errorf("KSat = %v", tc.KSat)
	}
}
