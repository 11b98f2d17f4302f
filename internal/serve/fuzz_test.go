package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
)

// FuzzSubmit drives POST /v1/jobs?wait=1 end to end through the real
// pipeline: the first input is sent as the request body as it stands, the
// second, when not empty, as an inline .bench netlist. Whatever arrives, the
// server must not panic and must answer a JSON body with 200, 202 or a 4xx;
// a job that ends done must report finite, non-negative energies.
func FuzzSubmit(f *testing.F) {
	s27, err := netgen.LoadNamed("s27")
	if err != nil {
		f.Fatal(err)
	}
	inline := func(bench string, m int) string {
		b, err := json.Marshal(Request{Bench: bench, M: m})
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	for _, seed := range []struct{ body, bench string }{
		{`{"circuit":"c17","m":2}`, ""},
		{`{"circuit":"s27","m":3,"fc_hz":1e8}`, ""},
		{`{"circuit":"c17","mode":"baseline","m":1,"nocache":true}`, ""},
		{`{"kind":"sweep","circuit":"s27","points":2}`, ""},
		{inline(c17Bench, 2), ""},
		{inline(circuit.BenchString(s27), 3), ""},
		{`{"circuit":"s27","m":1}`, c17Bench},
		{`{"circuit":"c17",`, "INPUT(a)\ny = NOT(\n"},        // malformed JSON and netlist
		{`{"circuit":"c17","frobnicate":1}`, "OUTPUT(y)\n"},  // unknown field, undefined output
		{`{"circuit":"c17","tech":"vtsmax = Inf"}`, ""},      // bad tech value
		{`{"circuit":"c17","tech":"no key here","m":2}`, ""}, // bad tech syntax
		{`{"circuit":"c17","m":2,"fc_hz":1e-310}`, ""},       // cycle budget overflows
		{`{"circuit":"c17","m":2,"fc_hz":2e12}`, ""},         // clock above the ceiling
		{`[1,2,3]`, "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n"},     // not an object; sequential netlist
	} {
		f.Add(seed.body, seed.bench)
	}

	// Only the two tiny built-ins run: one fuzzed name of a 10⁵-gate
	// benchmark would hold the executor for minutes.
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		if req.Circuit != "" && req.Circuit != "c17" && req.Circuit != "s27" {
			return nil, errors.New("fuzz: only c17 and s27 run")
		}
		return DefaultRunner(ctx, req, workers, reg)
	}
	s := New(Config{Runner: runner})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body, bench string) {
		checkSubmit(t, h, []byte(body))
		if bench != "" {
			b, err := json.Marshal(Request{Bench: bench, M: 2})
			if err != nil {
				return // text JSON cannot carry
			}
			checkSubmit(t, h, b)
		}
	})
}

// checkSubmit sends one waited submission and checks the answer.
func checkSubmit(t *testing.T, h http.Handler, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
	code, out := rec.Code, rec.Body.Bytes()
	if code != http.StatusOK && code != http.StatusAccepted && (code < 400 || code > 499) {
		t.Fatalf("status %d for %q: %s", code, body, out)
	}
	if !json.Valid(out) {
		t.Fatalf("status %d for %q: body is not JSON: %q", code, body, out)
	}
	if code >= 400 {
		return
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("status %d for %q: %v", code, body, err)
	}
	if st.State != StateDone {
		return
	}
	if st.Result == nil || st.Result.Manifest == nil || len(st.Result.Manifest.Results) == 0 {
		t.Fatalf("done job for %q carries no result record: %s", body, out)
	}
	for _, r := range st.Result.Manifest.Results {
		for _, e := range []float64{r.EnergyStatic, r.EnergyDynamic, r.EnergyTotal} {
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				t.Fatalf("done job for %q: energies %g static, %g dynamic, %g total",
					body, r.EnergyStatic, r.EnergyDynamic, r.EnergyTotal)
			}
		}
	}
}
