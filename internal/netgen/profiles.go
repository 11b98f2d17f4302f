package netgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"unicode/utf8"

	"cmosopt/internal/circuit"
)

// profiles holds the structural parameters of the ISCAS'89 circuits used in
// the paper's Tables 1 and 2 (logic-gate count, depth, PI/PO/DFF counts from
// the published benchmark descriptions). The generator reproduces these
// shapes; see DESIGN.md §2.
var profiles = map[string]Config{
	"s298": {Name: "s298", Gates: 119, Depth: 9, PIs: 3, POs: 6, DFFs: 14},
	"s344": {Name: "s344", Gates: 160, Depth: 20, PIs: 9, POs: 11, DFFs: 15},
	"s349": {Name: "s349", Gates: 161, Depth: 20, PIs: 9, POs: 11, DFFs: 15},
	"s382": {Name: "s382", Gates: 158, Depth: 9, PIs: 3, POs: 6, DFFs: 21},
	"s386": {Name: "s386", Gates: 159, Depth: 11, PIs: 7, POs: 7, DFFs: 6},
	"s400": {Name: "s400", Gates: 162, Depth: 9, PIs: 3, POs: 6, DFFs: 21},
	"s444": {Name: "s444", Gates: 181, Depth: 11, PIs: 3, POs: 6, DFFs: 21},
	"s510": {Name: "s510", Gates: 211, Depth: 12, PIs: 19, POs: 7, DFFs: 6},
}

// profileSeed gives each profile a fixed generation seed so benchmark
// circuits are bit-identical across runs and machines.
func profileSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, r := range name {
		h ^= int64(r)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// SuiteNames returns the benchmark circuit names of the paper's result
// tables, in the paper's order.
func SuiteNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Profile generates the synthetic circuit matched to the named ISCAS'89
// benchmark. The result is deterministic.
func Profile(name string) (*circuit.Circuit, error) {
	cfg, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("netgen: unknown benchmark profile %q (have %v)", name, SuiteNames())
	}
	return Generate(cfg, profileSeed(name))
}

// LoadNamed resolves any built-in benchmark name: the embedded genuine
// netlists ("s27", "c17"), the ISCAS'89-profile suite, or the ISCAS'85-scale
// profiles.
func LoadNamed(name string) (*circuit.Circuit, error) {
	switch name {
	case "s27":
		return S27(), nil
	case "c17":
		return C17(), nil
	}
	if c, err := Profile(name); err == nil {
		return c, nil
	}
	if c, err := Profile85(name); err == nil {
		return c, nil
	}
	if c, err := ScaleProfile(name); err == nil {
		return c, nil
	}
	return nil, fmt.Errorf("netgen: unknown benchmark %q (have s27, c17, %v, %v, %v)",
		excerpt(name), SuiteNames(), Suite85Names(), ScaleNames())
}

// CheckName reports whether LoadNamed resolves name, without generating
// anything: it returns nil for a built-in benchmark and otherwise an error
// that quotes at most maxExcerpt bytes of the name, so a served request can
// be refused at admission with a bounded answer.
func CheckName(name string) error {
	_, in89 := profiles[name]
	_, in85 := profiles85[name]
	_, inScale := scaleProfiles[name]
	if name == "s27" || name == "c17" || in89 || in85 || inScale {
		return nil
	}
	return fmt.Errorf("netgen: unknown benchmark %q", excerpt(name))
}

// maxExcerpt bounds how many bytes of an unknown name an error quotes: a
// served job keeps its error and sends it in every status response.
const maxExcerpt = 80

// excerpt returns s for quoting in an error message: s itself when short,
// else its first maxExcerpt bytes, cut at a rune boundary and marked "…".
func excerpt(s string) string {
	if len(s) <= maxExcerpt {
		return s
	}
	n := maxExcerpt
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// Sequentialize converts a generated combinational circuit (whose "ff*"
// pseudo-inputs stand for cut flip-flop outputs) back into a true sequential
// netlist: each ff* input becomes a DFF whose D pin is driven by a
// deterministically chosen primary-output gate. The result exercises the
// same DFF-cut path as a real ISCAS'89 netlist: Combinational(Sequentialize
// (c)) is structurally equivalent to c.
func Sequentialize(c *circuit.Circuit, seed int64) (*circuit.Circuit, error) {
	text := circuit.BenchString(c)
	// Collect the pseudo flip-flop inputs and the PO gates to feed them.
	var ffs []string
	for _, id := range c.PIs {
		name := c.Gate(id).Name
		if len(name) >= 2 && name[:2] == "ff" {
			ffs = append(ffs, name)
		}
	}
	if len(ffs) == 0 {
		return circuit.ParseBenchString(c.Name+"-seq", text)
	}
	if len(c.POs) == 0 {
		return nil, fmt.Errorf("netgen: cannot sequentialize %q: no outputs to feed flops", c.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		skip := false
		for _, ff := range ffs {
			if trimmed == "INPUT("+ff+")" {
				skip = true
				break
			}
		}
		if !skip && trimmed != "" {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	for _, ff := range ffs {
		driver := c.Gate(c.POs[rng.Intn(len(c.POs))]).Name
		fmt.Fprintf(&sb, "%s = DFF(%s)\n", ff, driver)
	}
	return circuit.ParseBenchString(c.Name+"-seq", sb.String())
}

// s27Bench is the genuine ISCAS'89 s27 netlist (10 logic gates, 3 DFFs).
const s27Bench = `# s27 (ISCAS'89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

// c17Bench is the genuine ISCAS'85 c17 netlist (6 NAND gates).
const c17Bench = `# c17 (ISCAS'85)
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
`

// S27 returns the genuine ISCAS'89 s27 circuit (sequential; cut DFFs with
// Combinational before optimizing).
func S27() *circuit.Circuit {
	c, err := circuit.ParseBenchString("s27", s27Bench)
	if err != nil {
		panic("netgen: embedded s27 netlist invalid: " + err.Error())
	}
	return c
}

// C17 returns the genuine ISCAS'85 c17 circuit (combinational).
func C17() *circuit.Circuit {
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		panic("netgen: embedded c17 netlist invalid: " + err.Error())
	}
	return c
}
