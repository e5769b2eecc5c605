// Command perfbench is the repository benchmark. It serves instances it
// generates from its seed through an in-process server.Server on loopback and
// drives them from one closed-loop client over one keep-alive HTTP
// connection. Every answer is checked against the XML. See README.md for the
// workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	// tiny shrinks every instance and repeat count (tests only).
	tiny bool
	// wrapTransport, when set, wraps the client's HTTP transport (tests use
	// it to tamper with answers).
	wrapTransport func(http.RoundTripper) http.RoundTripper
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench", "directory for data dirs and span files")
	flag.Parse()
	if _, ok := workloadByName[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.writeJSON(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// okFrac is correct, completed operations over attempted ones.
func (r *result) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the one-line result: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one.
func (r *result) writeJSON(w io.Writer, traced bool) error {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range ms {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloadByName))
	for n := range workloadByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
