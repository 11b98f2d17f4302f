package serve

import (
	"reflect"
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

// Clocks up to the ceiling are admitted.
func TestNormalizeClockCeiling(t *testing.T) {
	for _, r := range []Request{
		{Circuit: "s27", FcHz: 1e12},
		{Kind: KindSweep, Circuit: "s27", FromHz: 1e11, ToHz: 1e12},
	} {
		if err := r.normalize(); err != nil {
			t.Errorf("normalize %+v: %v", r, err)
		}
	}
}

func TestNormalizeRejects(t *testing.T) {
	huge := strings.Repeat("x", 1<<20)
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
		{"m with anneal", Request{Circuit: "s27", Mode: "anneal", M: 12}, "anneal option"},
		{"sweep opts on optimize", Request{Circuit: "s27", Points: 4}, "sweep options"},
		{"optimize opts on sweep", Request{Kind: KindSweep, Circuit: "s27", FcHz: 1e8}, "optimize options"},
		{"sweep needs builtin", Request{Kind: KindSweep, Bench: "INPUT(a)"}, "built-in circuit"},
		{"bad range", Request{Kind: KindSweep, Circuit: "s27", FromHz: 2e8, ToHz: 1e8}, "bad sweep range"},
		{"negative timeout", Request{Circuit: "s27", TimeoutMS: -5}, "negative"},
		{"bad skew", Request{Circuit: "s27", Skew: 1.5}, "skew"},
		{"fc too small", Request{Circuit: "s27", FcHz: 1e-310}, "fc_hz"},
		{"sweep from too small", Request{Kind: KindSweep, Circuit: "s27", FromHz: 1e-310}, "from_hz"},
		{"unknown tech key", Request{Circuit: "s27", Tech: "vdd_max=3.0"}, "unknown parameter"},
		{"unknown circuit", Request{Circuit: "s28"}, "unknown benchmark"},
		{"unknown sweep circuit", Request{Kind: KindSweep, Circuit: "s28"}, "unknown benchmark"},
		{"huge circuit name", Request{Circuit: huge}, "unknown benchmark"},
		{"huge sweep circuit name", Request{Kind: KindSweep, Circuit: huge}, "unknown benchmark"},
		{"sweep ratio overflows", Request{Kind: KindSweep, Circuit: "s27", FromHz: 1e-300, ToHz: 1e300, Points: 3}, "bad sweep range"},
		{"fc above ceiling", Request{Circuit: "s27", FcHz: 2e12}, "ceiling"},
		{"sweep to above ceiling", Request{Kind: KindSweep, Circuit: "s27", FromHz: 1e8, ToHz: 2e12}, "ceiling"},
		{"sweep above ceiling", Request{Kind: KindSweep, Circuit: "s27", FromHz: 2e12, ToHz: 3e12}, "ceiling"},
	}
	for _, tc := range cases {
		err := tc.req.normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
			continue
		}
		// A refusal quotes a bounded excerpt of what it refuses.
		if n := len(err.Error()); n >= 200 {
			t.Errorf("%s: error is %d bytes, want under 200", tc.name, n)
		}
	}
}

// cacheKeyOf returns a function that normalizes a request and returns its
// cache key, failing t if the request does not normalize.
func cacheKeyOf(t *testing.T) func(Request) string {
	return func(r Request) string {
		t.Helper()
		if err := r.normalize(); err != nil {
			t.Fatalf("normalize %+v: %v", r, err)
		}
		return r.cacheKey()
	}
}

// The cache key must collide for requests that mean the same job (defaults
// spelled out vs omitted) and differ whenever any result-bearing field
// differs. TestCacheKeyPure checks that execution controls never reach it.
func TestCacheKeying(t *testing.T) {
	key := cacheKeyOf(t)
	base := key(Request{Circuit: "s27"})
	spelled := key(Request{Circuit: "s27", Kind: KindOptimize, Mode: "joint",
		FcHz: 300e6, M: 12, Skew: 0.95, InputProb: 0.5, Activity: 0.5})
	if base != spelled {
		t.Errorf("spelled-out defaults changed the key: %s vs %s", base, spelled)
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

// Every JSON field of Request is either content, which the cache key covers,
// or an execution control, which it must not: requests that differ only in
// how the server runs them are the same job and share a cache entry. A new
// field fails here until it is classified.
func TestCacheKeyPure(t *testing.T) {
	key := cacheKeyOf(t)
	base := key(Request{Circuit: "s27"})
	keyFields := map[string]bool{
		"kind": true, "circuit": true, "bench": true, "netlist_sha256": true,
		"mode": true, "nv": true, "fc_hz": true, "skew": true, "input_prob": true,
		"activity": true, "m": true, "from_hz": true, "to_hz": true,
		"points": true, "format": true, "tech": true,
	}
	controls := map[string]any{"timeout_ms": 5000, "nocache": true}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if keyFields[name] {
			continue
		}
		v, ok := controls[name]
		if !ok {
			t.Errorf("Request.%s (json %q) is neither a key field nor an execution control", f.Name, name)
			continue
		}
		r := Request{Circuit: "s27"}
		reflect.ValueOf(&r).Elem().Field(i).Set(reflect.ValueOf(v))
		if key(r) != base {
			t.Errorf("execution control %q leaked into the key", name)
		}
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
