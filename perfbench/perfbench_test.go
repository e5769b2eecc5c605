package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, workDir: t.TempDir(), tiny: true}
}

// TestSmoke runs every workload at tiny size, plain and traced, and checks
// that every answer was correct and every metric is reported.
func TestSmoke(t *testing.T) {
	for name := range workloadByName {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(tinyConfig(t, name, trace), &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.correct() || res.okFrac() != 1 {
					t.Fatalf("attempted %d, failed %d\n%s", res.attempted, res.failed, out.String())
				}
				for _, m := range res.endToEnd {
					if m.value <= 0 || m.n <= 0 {
						t.Errorf("end-to-end %s = %v (n=%d), want a positive value", m.name, m.value, m.n)
					}
				}
				if len(res.perLayer) != len(perLayerDefs) {
					t.Errorf("%d per-layer metrics, want %d", len(res.perLayer), len(perLayerDefs))
				}
				var line bytes.Buffer
				if err := res.writeJSON(&line, trace); err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(line.String(), `{"correct":true,`) {
					t.Errorf("result line %s", line.String())
				}
				if trace && !strings.Contains(out.String(), "spans written") {
					t.Errorf("traced run wrote no spans:\n%s", out.String())
				}
			})
		}
	}
}

// tamperOne alters one byte of the rows of the n-th /query answer.
type tamperOne struct {
	next http.RoundTripper
	n    int64
	seen atomic.Int64
}

func (tp *tamperOne) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tp.next.RoundTrip(req)
	if err != nil || req.URL.Path != "/query" || tp.seen.Add(1) != tp.n {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	// Flip the low bit of the first letter of the first string in the rows:
	// still valid JSON, but a different value.
	i := bytes.Index(body, []byte(`"rows"`)) + len(`"rows"`)
	j := i + bytes.IndexByte(body[i:], '"') + 1
	body[j] ^= 1
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestTamperedAnswerLowersOKFrac alters one answer after its query was
// verified once, so the digest fast path must catch it.
func TestTamperedAnswerLowersOKFrac(t *testing.T) {
	cfg := tinyConfig(t, "scan", false)
	queries := int64(len(scanQueries()))
	cfg.wrapTransport = func(rt http.RoundTripper) http.RoundTripper {
		return &tamperOne{next: rt, n: 2 * queries}
	}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if res.failed != 1 || res.correct() || res.okFrac() >= 1 {
		t.Fatalf("attempted %d, failed %d, ok_frac %v: want exactly the tampered answer counted as failed",
			res.attempted, res.failed, res.okFrac())
	}
}

func TestKeepQuery(t *testing.T) {
	for q, want := range map[string]bool{
		"//Item/name":                          true,
		"//Item[name='x']/InCategory":          true,
		"/Site/Regions/Asia/Item[name='x']":    true,
		"//Asia/Item[name='x']/name":           false,
		"/Site//Asia/Item[name='x']":           false,
		"/Site[name='x']/Regions":              false,
		"//Regions/Asia//InCategory[Category]": false,
	} {
		if got := keepQuery(q); got != want {
			t.Errorf("keepQuery(%q) = %v, want %v", q, got, want)
		}
	}
}
