package main

import (
	"time"

	"cmosopt/internal/eval"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it should move. BENCHMARK.json lists the
// same names and units; README.md holds the same map.
type layerMetric struct {
	name, unit, moves string
}

var layerMetrics = []layerMetric{
	{"netgen.generate_ms", "ms", "diagnostic: input generation, outside every timed window"},
	{"circuit.parse_ms", "ms", "req_p50_ms on joint-large (~1%) and serve-miss"},
	{"activity.propagate_ms", "ms", "req_p50_ms on joint-large (<2% with Procedure 1 and elaboration) and serve-miss; not serve-hit"},
	{"timing.procedure1_ms", "ms", "req_p50_ms on joint-large and serve-miss; not serve-hit"},
	{"core.elaborate_ms", "ms", "req_p50_ms on joint-large and serve-miss; not serve-hit"},
	{"core.heap_bytes_per_gate", "B", "peak_rss_mb on joint-large"},
	{"core.optimize_ms", "ms", "req_p50_ms on joint-large; req_p50_ms and req_per_s on serve-miss"},
	{"core.circuit_evals", "count", "req_p50_ms on joint-large; req_p50_ms and req_per_s on serve-miss"},
	{"eval.gate_delay_calls", "count", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.width_probes", "count", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.full_sweeps", "count", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.coeff_misses", "count", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.coeff_hit_ratio", "1", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.width_probe_ns", "ns", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.full_sweep_ms", "ms", "req_p50_ms on joint-large most, serve-miss less, serve-hit not at all"},
	{"eval.incremental_edit_us", "us", "guard only: no workload takes the incremental path"},
	{"eval.probe_share", "1", "req_p50_ms on joint-large: width_probes x width_probe_ns / core.optimize_ms"},
	{"cli.render_us", "us", "req_p50_ms on serve-miss (a small share)"},
	{"serve.handler_us", "us", "req_p50_ms and req_per_s on serve-hit"},
	{"serve.client_us", "us", "req_p50_ms and req_per_s on serve-hit"},
	{"serve.response_kb", "KB", "req_p50_ms and req_per_s on serve-hit"},
	{"serve.cache_hit_ratio", "1", "req_p50_ms and req_per_s on serve-hit"},
	{"serve.run_ms", "ms", "req_p50_ms on serve-miss"},
	{"serve.queue_wait_ms", "ms", "req_p50_ms on serve-miss (~0: two clients meet two executors)"},
	{"serve.req_p99_ms", "ms", "diagnostic: too spread to gate"},
	{"go.alloc_kb_per_op", "KB", "req_per_s on serve-hit and peak_rss_mb"},
	{"trace.req_p50_overhead_pct", "%", "tracing overhead: traced minus untraced req_p50_ms"},
	{"trace.req_per_s_overhead_pct", "%", "tracing overhead: traced minus untraced req_per_s"},
}

// computeLayers derives the per-layer metrics of a traced run: medians over
// the layer probes' samples, the serve layer from the spans and the traced
// serve loop, and the untraced (u) and traced (t) loops.
func computeLayers(spans []span, samples []layerSample, u, t phase, gen []time.Duration, side serveSide) map[string]float64 {
	per := func(f func(layerSample) float64) float64 {
		xs := make([]float64, 0, len(samples))
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return medianFloat(xs)
	}
	met := func(f func(m eval.Metrics) int64) float64 {
		return per(func(s layerSample) float64 { return float64(f(s.solve.met)) })
	}
	L := map[string]float64{
		"netgen.generate_ms":       ms(quantile(gen, 0.5)),
		"circuit.parse_ms":         per(func(s layerSample) float64 { return ms(s.solve.parse) }),
		"activity.propagate_ms":    per(func(s layerSample) float64 { return ms(s.activity) }),
		"timing.procedure1_ms":     per(func(s layerSample) float64 { return ms(s.procedure1) }),
		"core.elaborate_ms":        per(func(s layerSample) float64 { return ms(s.solve.elaborate) }),
		"core.optimize_ms":         per(func(s layerSample) float64 { return ms(s.solve.optimize) }),
		"cli.render_us":            per(func(s layerSample) float64 { return us(s.solve.render) }),
		"core.heap_bytes_per_gate": per(func(s layerSample) float64 { return s.heapPerGate }),
		"core.circuit_evals": per(func(s layerSample) float64 {
			if s.solve.res == nil {
				return 0
			}
			return float64(s.solve.res.Evaluations)
		}),
		"eval.gate_delay_calls": met(func(m eval.Metrics) int64 { return m.GateDelayCalls }),
		"eval.width_probes":     met(func(m eval.Metrics) int64 { return m.WidthProbes }),
		"eval.full_sweeps":      met(func(m eval.Metrics) int64 { return m.FullDelaySweeps + m.FullEnergySweeps }),
		"eval.coeff_misses":     met(func(m eval.Metrics) int64 { return m.CoeffMisses }),
		"eval.coeff_hit_ratio": per(func(s layerSample) float64 {
			m := s.solve.met
			return float64(m.CoeffHits) / float64(max(m.CoeffHits+m.CoeffMisses, 1))
		}),
		"eval.width_probe_ns":      per(func(s layerSample) float64 { return s.widthProbeNs }),
		"eval.full_sweep_ms":       per(func(s layerSample) float64 { return ms(s.fullSweep) }),
		"eval.incremental_edit_us": per(func(s layerSample) float64 { return us(s.incrEdit) }),
		"eval.probe_share": per(func(s layerSample) float64 {
			if s.solve.optimize <= 0 {
				return 0
			}
			return float64(s.solve.met.WidthProbes) * s.widthProbeNs / float64(s.solve.optimize.Nanoseconds())
		}),
		"serve.response_kb":            medianFloat(side.respBytes) / 1024,
		"serve.cache_hit_ratio":        side.hitRatio,
		"serve.req_p99_ms":             ms(quantile(u.lat, 0.99)),
		"go.alloc_kb_per_op":           float64(u.allocBytes) / 1024 / float64(max(u.attempted, 1)),
		"trace.req_p50_overhead_pct":   pct(ms(quantile(t.lat, 0.5)), ms(quantile(u.lat, 0.5))),
		"trace.req_per_s_overhead_pct": pct(t.metrics()["req_per_s"].Value, u.metrics()["req_per_s"].Value),
	}
	handler, client, run, queue := serveSpans(spans)
	L["serve.handler_us"] = us(quantile(handler, 0.5))
	L["serve.client_us"] = us(quantile(client, 0.5))
	L["serve.run_ms"] = ms(quantile(run, 0.5))
	L["serve.queue_wait_ms"] = ms(quantile(queue, 0.5))
	return L
}

func pct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

// serveSpans reads the serve layer from the spans: handler time and the
// client's time outside it for each measured request, and run time and
// queue wait (runner start minus client send) for each runner call.
func serveSpans(spans []span) (handler, client, run, queue []time.Duration) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			if c, ok := byID[s.Parent]; ok && c.Name == "serve.request" {
				handler = append(handler, s.dur())
				client = append(client, c.dur()-s.dur())
			}
		case "serve.run":
			run = append(run, s.dur())
			if h, ok := byID[s.Parent]; ok {
				if c, ok := byID[h.Parent]; ok {
					queue = append(queue, time.Duration(s.Start-c.Start))
				}
			}
		}
	}
	return handler, client, run, queue
}
