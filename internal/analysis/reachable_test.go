package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// reachAllowlist holds the functions of internal/ that no main reaches, and
// the fields that programs read and never write, that stay anyway. An entry
// is one of three kinds:
//
//   - oracle: a test checks production output against it;
//   - harness: tests in more than one package call it;
//   - deferred: an open ROADMAP item decides whether it stays, and names it.
//
// Anything else no main reaches is deleted, or moves into its package's
// _test.go files when only that package's tests call it; a field no program
// writes goes with the code it selects. An entry that becomes reachable or
// written, or whose function or field is gone, fails the test until it is
// dropped, so the list only shrinks.
var reachAllowlist = []reachEntry{
	{"timing.AssignBudgetsEnumerated", "oracle", "TestAssignBudgetsEnumeratedAgrees"},
	{"timing.Analysis.KBestPaths", "oracle", "TestKBestPathsMatchesExhaustive"},
	{"timing.Analysis.streamPaths", "oracle", "TestKBestPathsMatchesExhaustive"},
	{"timing.Analysis.PathCriticality", "oracle", "TestKBestPathsMatchesExhaustive"},
	{"timing.CheckBudgets", "oracle", "TestAssignBudgetsInvariantRandom"},
	{"activity.ExactProbabilities", "oracle", "TestExactWeightedInputs"},
	{"activity.ExactProbabilitiesUniform", "oracle", "TestExactExposesReconvergenceError"},
	{"delay.Evaluator.Slacks", "oracle", "TestIncrementalMatchesFull"},
	{"power.Evaluator.Total", "oracle", "TestEngineMatchesModels"},
	{"power.Evaluator.GateEnergy", "oracle", "TestEngineMatchesModels"},
	{"core.Problem.CheckRailRule", "oracle", "TestDualVddRespectsRailRule"},
	{"device.BodyBias.Vt", "oracle", "TestBiasForRoundTrip"},
	{"device.WriteTech", "oracle", "TestTechRoundTrip"},
	{"spice", "oracle", "TestAnalyticDelayTracksTransient"},
	{"sim", "oracle", "Example_glitch"},
	{"activity.MonteCarlo", "oracle", "TestMonteCarloAgreesOnNetwork"},
	{"activity.EvalGate", "oracle", "TestMonteCarloAgreesOnNetwork"},
	{"activity.evalAll", "oracle", "TestMonteCarloAgreesOnNetwork"},
	{"core.Problem.SampleLandscape", "oracle", "TestLandscapeMinNearProcedure2Optimum"},

	{"activity.PropagateUniform", "harness", "TestEngineMatchesModels"},
	{"netgen.ScaleConfig", "harness", "BenchmarkProcedure2"},
	{"netgen.Profile85Config", "harness", "BenchmarkScalability"},
	{"netgen.Sequentialize", "harness", "TestFullPipeline"},
	{"eval.Engine.GateEnergy", "harness", "TestPerGateVddAffectsModels"},

	{"spice.GateSim.CompareDelay", "deferred", "Transient sign-off at the points the optimizer returns."},
	{"spice.GateSim.RiseEnergy", "deferred", "Transient sign-off at the points the optimizer returns."},
	{"delay.Evaluator.CriticalPath", "deferred", "Explainable runs: service metrics and \"why this point\"."},
}

// TestReachable fails on any function of internal/ that no program of the
// module can call, and on any field of a struct declared in internal/ that
// the programs read and never write, when reachAllowlist does not hold it;
// and on any stale entry of that list. The programs are the main of every
// package under cmd/ and of perfbench; the initialization of every package
// they import runs too.
func TestReachable(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := loadTree(t, "cmosopt", root)
	var mains []*LoadedPackage
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, "cmosopt/")
		if p.Types.Name() == "main" && (strings.HasPrefix(rel, "cmd/") || rel == "perfbench") {
			mains = append(mains, p)
		}
	}
	roadmap, err := os.ReadFile(filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	g := newReachGraph(fset, pkgs)
	reached := g.walk(g.roots(mains))
	const internal = "cmosopt/internal"
	for _, p := range checkReach(g, reached, g.unreachable(reached, internal), g.unwritten(reached, internal), reachAllowlist, string(roadmap)) {
		t.Error(p)
	}
}

// reachLoader type-checks the module and the fixture tree of every
// reachability test through one Loader, so that the standard library and
// each package are checked once.
var reachLoader *Loader

// loadTree type-checks every package under dir, with its tests, naming each
// by prefix joined with its directory relative to dir ("" for the
// GOPATH-style fixture tree).
func loadTree(t *testing.T, prefix, dir string) (*token.FileSet, []*LoadedPackage) {
	t.Helper()
	if reachLoader == nil {
		module, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		fixture, err := filepath.Abs(filepath.Join("testdata", "reach", "src"))
		if err != nil {
			t.Fatal(err)
		}
		reachLoader = NewLoader(Root{Prefix: "cmosopt", Dir: module}, Root{Prefix: "", Dir: fixture})
		reachLoader.IncludeTests = true
	}
	dirs, err := PackageDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*LoadedPackage
	for _, d := range dirs {
		rel, err := filepath.Rel(dir, d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.ToSlash(rel)
		switch {
		case path == ".":
			path = prefix
		case prefix != "":
			path = prefix + "/" + path
		}
		loaded, err := reachLoader.LoadDir(path, d)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return reachLoader.Fset, pkgs
}

// loadReachFixture loads testdata/reach and returns its graph, the set its
// one main reaches, and the functions and fields the rules report.
func loadReachFixture(t *testing.T) (*reachGraph, map[*reachNode]bool, []*reachNode, []reachField) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "reach", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := loadTree(t, "", src)
	var mains []*LoadedPackage
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			mains = append(mains, p)
		}
	}
	g := newReachGraph(fset, pkgs)
	reached := g.walk(g.roots(mains))
	return g, reached, g.unreachable(reached, "reachlib"), g.unwritten(reached, "reachlib")
}

// TestReachFixture checks each way the fixture's main keeps a function
// alive: an interface call, a value handed to sort.Sort, a String method
// only fmt calls, a method value, a package-level var initializer, an init
// function and a generic call. Exactly the dead function and the dead
// method are left. It checks each way main writes a field it reads, too:
// of all of them, only the field a test alone writes is reported.
func TestReachFixture(t *testing.T) {
	_, _, dead, unset := loadReachFixture(t)
	var got []string
	for _, n := range dead {
		got = append(got, n.key)
	}
	if want := []string{"reachlib.Sq.Perimeter", "reachlib.unused"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreachable = %v, want %v", got, want)
	}
	got = nil
	for _, f := range unset {
		got = append(got, f.key)
	}
	if want := []string{"reachlib.Knobs.TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unwritten = %v, want %v", got, want)
	}
}

// TestReachAllowlistCheck checks that the allowlist check accepts a list
// that covers the fixture's dead code and unwritten field through tests
// that use them, and names every kind of stale or missing entry. An oracle
// or harness entry lists only what its test reaches or writes, so a
// function or field its test misses is reported as unlisted too.
func TestReachAllowlistCheck(t *testing.T) {
	g, reached, dead, unset := loadReachFixture(t)
	roadmap := "## Open items\n\n- **Decide.** Keep `reachlib.unused` and `reachlib.Knobs.TestOnly` for now.\n- **Other.** Nothing.\n"
	good := []reachEntry{
		{"reachlib.unused", "oracle", "TestUnused"},
		{"reachlib.Sq.Perimeter", "harness", "TestPerimeter"},
		{"reachlib.Knobs.TestOnly", "harness", "TestTestOnly"},
	}
	if p := checkReach(g, reached, dead, unset, good, roadmap); len(p) != 0 {
		t.Fatalf("a complete allowlist reported %q", p)
	}
	const (
		perimeter = "reachlib.Sq.Perimeter is reachable from no main"
		testOnly  = "field reachlib.Knobs.TestOnly is read by a program and written by none"
	)
	cases := []struct {
		name  string
		allow []reachEntry
		want  []string // one substring per problem, in order
	}{
		{"unlisted", []reachEntry{good[0], good[2]}, []string{perimeter}},
		{"unlisted field", good[:2], []string{testOnly}},
		{"reachable", append(good, reachEntry{"reachlib.Sq.Area", "oracle", "TestUnused"}), []string{"entry reachlib.Sq.Area is reachable"}},
		{"gone", append(good, reachEntry{"reachlib.gone", "oracle", "TestUnused"}), []string{"entry reachlib.gone no longer exists"}},
		{"written field", append(good, reachEntry{"reachlib.Knobs.Keyed", "deferred", "Decide."}), []string{"entry reachlib.Knobs.Keyed is written by a program"}},
		{"gone field", append(good, reachEntry{"reachlib.Knobs.Gone", "deferred", "Decide."}), []string{"entry reachlib.Knobs.Gone no longer exists"}},
		{"no such test", []reachEntry{good[0], {"reachlib.Sq.Perimeter", "oracle", "TestNoSuch"}, good[2]}, []string{perimeter, "names test TestNoSuch, which does not exist"}},
		{"test does not refer", []reachEntry{good[0], {"reachlib.Sq.Perimeter", "oracle", "TestUnused"}, good[2]}, []string{perimeter, "names test TestUnused, which does not refer to it"}},
		{"test does not write", []reachEntry{good[0], good[1], {"reachlib.Knobs.TestOnly", "harness", "TestPerimeter"}}, []string{testOnly, "names test TestPerimeter, which does not refer to it"}},
		{"package entry", []reachEntry{{"reachlib", "oracle", "TestUnused"}}, []string{perimeter, testOnly}},
		{"bad category", []reachEntry{good[0], {"reachlib.Sq.Perimeter", "kept", "TestPerimeter"}, good[2]}, []string{perimeter, `has category "kept"`}},
		{"deferred", []reachEntry{{"reachlib.unused", "deferred", "Decide."}, good[1], {"reachlib.Knobs.TestOnly", "deferred", "Decide."}}, nil},
		{"deferred elsewhere", []reachEntry{{"reachlib.unused", "deferred", "Other."}, good[1], good[2]}, []string{`waits on ROADMAP item "Other.", which does not name it`}},
		{"deferred unknown", []reachEntry{{"reachlib.unused", "deferred", "Missing."}, good[1], good[2]}, []string{`waits on ROADMAP item "Missing."`}},
	}
	for _, tc := range cases {
		p := checkReach(g, reached, dead, unset, tc.allow, roadmap)
		ok := len(p) == len(tc.want)
		for i := 0; ok && i < len(p); i++ {
			ok = strings.Contains(p[i], tc.want[i])
		}
		if !ok {
			t.Errorf("%s: reported %q, want problems containing %q", tc.name, p, tc.want)
		}
	}
}
