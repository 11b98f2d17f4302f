package serve

import (
	"strings"
	"testing"
)

func TestNormalizeDefaults(t *testing.T) {
	r := &Request{Circuit: "s27"}
	if err := r.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if r.Kind != KindOptimize || r.Mode != "joint" {
		t.Errorf("defaults: kind=%q mode=%q", r.Kind, r.Mode)
	}
	if r.FcHz != 300e6 || r.M != 12 || r.Skew != 0.95 || r.InputProb != 0.5 || r.Activity != 0.5 {
		t.Errorf("defaults: %+v", r)
	}

	sw := &Request{Kind: KindSweep, Circuit: "s27"}
	if err := sw.normalize(); err != nil {
		t.Fatalf("normalize sweep: %v", err)
	}
	if sw.FromHz != 50e6 || sw.ToHz != 600e6 || sw.Points != 8 || sw.Format != "text" {
		t.Errorf("sweep defaults: %+v", sw)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"no source", Request{}, "exactly one"},
		{"two sources", Request{Circuit: "s27", Bench: "INPUT(a)"}, "exactly one"},
		{"bad kind", Request{Kind: "frobnicate", Circuit: "s27"}, "unknown kind"},
		{"bad mode", Request{Circuit: "s27", Mode: "psychic"}, "unknown mode"},
		{"nv without multivt", Request{Circuit: "s27", Mode: "joint", NV: 3}, "multivt option"},
		{"sweep opts on optimize", Request{Circuit: "s27", Points: 4}, "sweep options"},
		{"optimize opts on sweep", Request{Kind: KindSweep, Circuit: "s27", FcHz: 1e8}, "optimize options"},
		{"sweep needs builtin", Request{Kind: KindSweep, Bench: "INPUT(a)"}, "built-in circuit"},
		{"bad range", Request{Kind: KindSweep, Circuit: "s27", FromHz: 2e8, ToHz: 1e8}, "bad sweep range"},
		{"negative timeout", Request{Circuit: "s27", TimeoutMS: -5}, "negative"},
		{"bad skew", Request{Circuit: "s27", Skew: 1.5}, "skew"},
		{"unknown tech key", Request{Circuit: "s27", Tech: "vdd_max=3.0"}, "unknown parameter"},
	}
	for _, tc := range cases {
		err := tc.req.normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// The cache key must collide for requests that mean the same job (defaults
// spelled out vs omitted) and differ whenever any result-bearing field
// differs — while execution controls must never reach the key at all.
func TestCacheKeying(t *testing.T) {
	key := func(r Request) string {
		t.Helper()
		if err := r.normalize(); err != nil {
			t.Fatalf("normalize %+v: %v", r, err)
		}
		return r.cacheKey()
	}
	base := key(Request{Circuit: "s27"})
	spelled := key(Request{Circuit: "s27", Kind: KindOptimize, Mode: "joint",
		FcHz: 300e6, M: 12, Skew: 0.95, InputProb: 0.5, Activity: 0.5})
	if base != spelled {
		t.Errorf("spelled-out defaults changed the key: %s vs %s", base, spelled)
	}
	if k := key(Request{Circuit: "s27", TimeoutMS: 5000, NoCache: true}); k != base {
		t.Errorf("execution controls leaked into the key")
	}
	distinct := []Request{
		{Circuit: "c17"},
		{Circuit: "s27", FcHz: 200e6},
		{Circuit: "s27", Mode: "baseline"},
		{Circuit: "s27", Mode: "multivt"},
		{Circuit: "s27", Skew: 0.9},
		{Circuit: "s27", Tech: "vddmax=3.0"},
		{Kind: KindSweep, Circuit: "s27"},
	}
	seen := map[string]int{base: -1}
	for i, r := range distinct {
		k := key(r)
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %d and %d share a key", i, prev)
		}
		seen[k] = i
	}

	// Inline netlist text and its upload hash are the same content address.
	bench := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	inline := key(Request{Bench: bench})
	uploaded := key(Request{NetlistSHA256: HashNetlist(bench)})
	if inline != uploaded {
		t.Errorf("inline vs uploaded netlist keys differ")
	}
}

func TestHashNetlist(t *testing.T) {
	h := HashNetlist("abc")
	if len(h) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h))
	}
	if h != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("sha256(abc) mismatch: %s", h)
	}
}
