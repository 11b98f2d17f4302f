package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
	"cmosopt/internal/serve"
)

// levelDelay is the per-logic-level delay the workloads derive their clock
// targets from: a netlist of depth d is asked to run at 1/(d·levelDelay).
//
//cmosvet:unit s
const levelDelay = 0.5e-9

// netlist is one generated input: the .bench text the program receives, the
// name the program reports for it, and its clock target.
type netlist struct {
	name  string // "bench-<sha256 prefix>", as the service names inline netlists
	text  string
	fcHz  float64 //cmosvet:unit Hz
	gates int
}

// splitmix derives independent, reproducible 64-bit streams from the
// workload seed: stream separates the uses, i indexes within a stream.
func splitmix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15 + (i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newNetlist generates one random-logic netlist and renders it as text.
func newNetlist(cfg netgen.Config, seed int64) (netlist, error) {
	c, err := netgen.Generate(cfg, seed)
	if err != nil {
		return netlist{}, err
	}
	depth, err := c.Depth()
	if err != nil {
		return netlist{}, err
	}
	text := circuit.BenchString(c)
	return netlist{
		name:  "bench-" + serve.HashNetlist(text)[:12],
		text:  text,
		fcHz:  1 / (float64(depth) * levelDelay),
		gates: c.NumLogic(),
	}, nil
}

// netlistPool hands out the seeded netlists of one workload by index,
// generating each on first use. Generation is never timed as part of an
// operation; its cost is recorded separately as netgen.generate_ms.
type netlistPool struct {
	gen func(i int) (netlist, error)

	mu       sync.Mutex
	items    []netlist
	genTimes []time.Duration
}

func (p *netlistPool) get(i int) (netlist, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.items) <= i {
		start := time.Now()
		n, err := p.gen(len(p.items))
		if err != nil {
			return netlist{}, fmt.Errorf("generating input %d: %w", len(p.items), err)
		}
		p.genTimes = append(p.genTimes, time.Since(start))
		p.items = append(p.items, n)
	}
	return p.items[i], nil
}

// prefill generates the first n netlists.
func (p *netlistPool) prefill(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := p.get(n - 1)
	return err
}

func (p *netlistPool) generateTimes() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.genTimes...)
}

// digest hashes the texts of the first n netlists, so two seeds can be
// shown to give different inputs.
func (p *netlistPool) digest(n int) (string, error) {
	h := sha256.New()
	for i := 0; i < n; i++ {
		nl, err := p.get(i)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%d %s %g\n%s", i, nl.name, nl.fcHz, nl.text)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// jointPool generates joint-large's inputs: random-logic netlists whose
// shape scales netgen's s100k profile down to sc.jointGates gates.
func jointPool(seed int64, sc scale) *netlistPool {
	cfg := netgen.Config{
		Name:  "joint",
		Gates: sc.jointGates,
		Depth: sc.jointDepth,
		PIs:   sc.jointGates * 15 / 1000,
		POs:   sc.jointGates * 12 / 1000,
		DFFs:  sc.jointGates * 25 / 1000,
	}
	return &netlistPool{gen: func(i int) (netlist, error) {
		return newNetlist(cfg, int64(splitmix(seed, 1, uint64(i))>>1))
	}}
}

// missPool generates serve-miss's inputs: never-repeated random-logic
// netlists of sc.missMinGates..sc.missMaxGates gates with an ISCAS'89-like
// depth and I/O mix. Sizes follow a golden-ratio sequence from a seeded
// start, so every prefix of the stream covers the size range evenly and the
// size mix of a run does not depend on the seed; the netlists themselves do.
func missPool(seed int64, sc scale) *netlistPool {
	start := float64(splitmix(seed, 5, 0)>>11) / (1 << 53)
	return &netlistPool{gen: func(i int) (netlist, error) {
		rng := rand.New(rand.NewSource(int64(splitmix(seed, 2, uint64(i)) >> 1)))
		_, u := math.Modf(start + float64(i)*0.6180339887498949)
		gates := sc.missMinGates + int(u*float64(sc.missMaxGates-sc.missMinGates+1))
		cfg := netgen.Config{
			Name:  "miss",
			Gates: gates,
			Depth: min(gates, 8+gates/40+rng.Intn(8)),
			PIs:   3 + gates/40,
			POs:   3 + gates/50,
			DFFs:  gates / 10,
		}
		return newNetlist(cfg, rng.Int63())
	}}
}

// hitRequestSet returns serve-hit's request set in canonical order. For
// each of the paper's circuits (the genuine s27 and c17 netlists and the
// eight ISCAS'89 suite profiles) it holds optimize joint and optimize
// baseline at 300 MHz, each by built-in name and as inline .bench text, plus
// a sweep by name (the service takes sweeps by name only). It also returns
// the generation time of each circuit's text.
func hitRequestSet() ([]serve.Request, []time.Duration, error) {
	var reqs []serve.Request
	var genTimes []time.Duration
	for _, name := range append([]string{"s27", "c17"}, netgen.SuiteNames()...) {
		start := time.Now()
		c, err := netgen.LoadNamed(name)
		if err != nil {
			return nil, nil, err
		}
		text := circuit.BenchString(c)
		genTimes = append(genTimes, time.Since(start))
		for _, mode := range []string{"joint", "baseline"} {
			reqs = append(reqs,
				serve.Request{Kind: serve.KindOptimize, Circuit: name, Mode: mode, FcHz: 300e6},
				serve.Request{Kind: serve.KindOptimize, Bench: text, Mode: mode, FcHz: 300e6})
		}
		reqs = append(reqs, serve.Request{Kind: serve.KindSweep, Circuit: name})
	}
	return reqs, genTimes, nil
}

// hitMix maps replay index i to a request of the set, as a seeded uniform
// draw.
func hitMix(seed int64, i, n int) int { return int(splitmix(seed, 3, uint64(i)) % uint64(n)) }

// sampleIndices draws k distinct indices from [0, n), seeded, in ascending
// order.
func sampleIndices(seed int64, k, n int) []int {
	k = min(k, n)
	perm := rand.New(rand.NewSource(int64(splitmix(seed, 4, 0) >> 1))).Perm(n)[:k]
	out := append([]int(nil), perm...)
	sort.Ints(out)
	return out
}
