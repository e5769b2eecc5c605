package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xmlsql/internal/server"
)

// workload is one traffic mix. The bench drives every workload the same
// way: generate inputs, set up repeatedly (setup_s is the median), warm,
// measure whole schedule cycles, then finish.
type workload interface {
	// generate builds the inputs and the expected answers from the seed.
	generate(b *bench) error
	// build creates the workload's serving tenants on srv from the
	// generated inputs and audits them; setup_s times exactly this.
	build(b *bench, srv *server.Server, rep int) error
	// setupReps is how many set-ups one run times.
	setupReps() int
	// dropInputs releases the generated documents once set-up is done, so
	// the live heap measures the server, not the generator.
	dropInputs()
	// tuples is the served instance's tuple count.
	tuples() int
	// warm issues every distinct read once, decoded in full, plus any
	// writes the schedule starts from. Warm-up is not measured.
	warm(b *bench) error
	// cycle is the schedule's period in operations; phases end only on a
	// cycle boundary, so op-class counts are exact multiples of it.
	cycle() int
	// next returns the next operation of the schedule.
	next(b *bench) op
	// finish runs after the measured phases (durable_rw: the cold boots).
	finish(b *bench, lm layerMetrics) error
	// probe times the traced run's per-layer calls.
	probe(b *bench, tr *tracer, lm layerMetrics) error
}

var workloadByName = map[string]func() workload{
	"scan":       func() workload { return &scanWorkload{} },
	"plan_churn": func() workload { return &churnWorkload{} },
	"durable_rw": func() workload { return &durableWorkload{} },
}

// op is one client request.
type op struct {
	write bool
	path  string
	body  []byte
	// query and want are a read's cache key and expected multiset.
	query string
	want  summary
	// done validates an /update answer and advances the workload's model
	// of the instance; it runs only for 200 answers.
	done func(a updateAnswer) bool
	// after runs after the operation in a traced phase (write-side probes).
	after func(tr *tracer)
}

// updateAnswer is the part of a /update answer the bench checks.
type updateAnswer struct {
	Stmts      int   `json:"stmts"`
	Written    int   `json:"written_tuples"`
	Deleted    int   `json:"deleted_tuples"`
	AuditClean bool  `json:"audit_clean"`
	ElapsedNs  int64 `json:"elapsed_ns"`
}

// sample is one completed operation as the client saw it.
type sample struct {
	lat   int64 // client-observed ns
	srv   int64 // elapsed_ns the server reported
	rows  int32
	bytes int32
	stmts int32
	write bool
}

// phase is one measured stretch of the schedule.
type phase struct {
	samples []sample
	elapsed time.Duration
}

type bench struct {
	cfg    config
	out    io.Writer
	rng    *rand.Rand
	srvCfg server.Config
	srv    *server.Server
	cl     *client
	ck     *checker

	attempted, failed int

	setupS  []float64
	loadMs  []float64
	auditMs []float64
	heap0   uint64
	// repLoadMs and repAuditMs accumulate one set-up's load and audit time.
	repLoadMs, repAuditMs float64

	// tenants are the serving tenants of the kept set-up.
	tenants []*server.Tenant
	// walRec collects WAL commit timings in traced durable_rw runs.
	walRec *walRecorder
}

func newBench(cfg config, out io.Writer) *bench {
	return &bench{
		cfg: cfg,
		out: out,
		rng: rand.New(rand.NewSource(cfg.seed)),
		srvCfg: server.Config{
			Addr: "127.0.0.1:0",
			// One closed-loop client is never shed: no rate limit, and
			// room for more than one request in flight.
			Limits:       server.Limits{MaxInFlight: 4, QueueTimeout: 5 * time.Second},
			Logf:         func(string, ...any) {},
			DrainTimeout: 10 * time.Second,
		},
		ck: newChecker(),
	}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// runDir holds this run's durable state; it is removed when the run ends.
func (b *bench) runDir() string {
	return filepath.Join(b.cfg.workDir, "data", fmt.Sprintf("%s-seed%d-%d", b.cfg.workload, b.cfg.seed, os.Getpid()))
}

// dataDir is a fresh directory under the run dir.
func (b *bench) dataDir(name string) (string, error) {
	dir := filepath.Join(b.runDir(), name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// run executes one benchmark invocation and returns its metrics.
func run(cfg config, out io.Writer) (*result, error) {
	b := newBench(cfg, out)
	wl := workloadByName[cfg.workload]()
	defer os.RemoveAll(b.runDir())
	defer b.close()
	b.logf("perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d go=%s client=1 closed-loop keep-alive http",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())

	b.heap0 = liveHeap()
	if err := wl.generate(b); err != nil {
		return nil, err
	}
	if err := b.setup(wl); err != nil {
		return nil, err
	}
	wl.dropInputs()
	heap1 := liveHeap()
	if err := b.srv.Start(); err != nil {
		return nil, err
	}
	b.cl = newClient(b.srv.HTTPAddr(), cfg.wrapTransport)
	if err := wl.warm(b); err != nil {
		return nil, err
	}

	res := &result{}
	lm := layerMetrics{}
	lm.set("relational.heap_bytes_per_tuple", float64(int64(heap1)-int64(b.heap0))/float64(wl.tuples()), 1)
	lm.set("shred.load_ms", median(b.loadMs), len(b.loadMs))
	lm.set("integrity.full_audit_ms", median(b.auditMs), len(b.auditMs))

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	// The samples are summarized and dropped before the heap is measured,
	// so the live heap does not grow with the number of operations run.
	plain := summarize(b.measure(wl, d, nil))
	heapMB := float64(liveHeap()) / (1 << 20)
	res.endToEnd = []metric{
		{"setup_s", "s", median(b.setupS), len(b.setupS)},
		{"ops_per_s", "ops/s", plain.opsPerSec, plain.ops},
		{"read_p50_ms", "ms", plain.readP50, plain.reads},
		{"read_p90_ms", "ms", plain.readP90, plain.reads},
		{"live_heap_mb", "MB", heapMB, 1},
	}
	for _, m := range res.endToEnd {
		b.logf("metric %-14s = %12.4f %-6s (n=%d)", m.name, m.value, m.unit, m.n)
	}
	if plain.writes > 0 {
		b.logf("metric %-14s = %12.4f %-6s (n=%d)", "write_p50_ms", plain.writeP50, "ms", plain.writes)
		b.logf("metric %-14s = %12.4f %-6s (n=%d)", "write_p90_ms", plain.writeP90, "ms", plain.writes)
		lm.set("durable.write_p50_ms", plain.writeP50, plain.writes)
		lm.set("durable.write_p90_ms", plain.writeP90, plain.writes)
	}
	if cfg.trace {
		if err := b.tracedRun(wl, d, plain, lm); err != nil {
			return nil, err
		}
	}
	if err := wl.finish(b, lm); err != nil {
		return nil, err
	}
	res.attempted, res.failed = b.attempted, b.failed
	b.logf("metric %-14s = %12.4f %-6s (n=%d) correct=%v", "ok_frac", res.okFrac(), "fraction", res.attempted, res.correct())
	res.perLayer = lm.metrics()
	if cfg.trace {
		for _, m := range res.perLayer {
			b.logf("layer  %-36s = %14.6f %-12s (n=%d)", m.name, m.value, m.unit, m.n)
		}
	}
	return res, nil
}

// setup builds the workload's tenants setupReps times, each from a
// collected heap, and keeps the last server. setup_s is the median.
func (b *bench) setup(wl workload) error {
	reps := wl.setupReps()
	if b.cfg.tiny {
		reps = 2
	}
	for r := 0; r < reps; r++ {
		b.tenants, b.repLoadMs, b.repAuditMs = nil, 0, 0
		runtime.GC()
		srv := server.New(b.srvCfg)
		start := time.Now()
		if err := wl.build(b, srv, r); err != nil {
			srv.Shutdown(context.Background())
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		b.loadMs = append(b.loadMs, b.repLoadMs)
		b.auditMs = append(b.auditMs, b.repAuditMs)
		if r < reps-1 {
			if err := srv.Shutdown(context.Background()); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		b.srv = srv
	}
	return nil
}

// close stops the client and the server.
func (b *bench) close() {
	if b.cl != nil {
		b.cl.close()
	}
	if b.srv != nil {
		b.srv.Shutdown(context.Background())
	}
}

// measure runs the schedule for at least d, stopping on a cycle boundary,
// so op-class counts are exact multiples of the cycle.
func (b *bench) measure(wl workload, d time.Duration, tr *tracer) phase {
	var ph phase
	cyc := wl.cycle()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i%cyc != 0 || time.Now().Before(deadline); i++ {
		ph.samples = append(ph.samples, b.do(wl.next(b), tr))
	}
	ph.elapsed = time.Since(start)
	return ph
}

func readOp(tenant, query string, want summary) op {
	// Marshalling a map of strings cannot fail; so in the write bodies.
	body, _ := json.Marshal(map[string]string{"tenant": tenant, "query": query})
	return op{path: "/query", body: body, query: tenant + "\x00" + query, want: want}
}

// do sends one operation, checks its answer and records it.
func (b *bench) do(o op, tr *tracer) sample {
	start := time.Now()
	t0, t1, status, body, err := b.cl.post(o.path, o.body)
	b.attempted++
	s := sample{lat: t1.Sub(t0).Nanoseconds(), write: o.write, bytes: int32(len(body))}
	ok := err == nil && status == http.StatusOK
	if ok {
		if o.write {
			var a updateAnswer
			if json.Unmarshal(body, &a) != nil {
				ok = false
			} else {
				s.srv, s.stmts = a.ElapsedNs, int32(a.Stmts)
				ok = o.done(a)
			}
		} else {
			rows, el, good := b.ck.check(o.query, o.want, body)
			s.rows, s.srv, ok = int32(rows), el, good
		}
	}
	c1 := time.Now()
	if !ok {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed %s %s: status=%d err=%v body=%.200s\n", o.path, o.body, status, err, body)
		}
	}
	if tr != nil {
		tr.recordOp(start, t0, t1, c1, s.srv, b.walRec.drain())
		if o.after != nil {
			o.after(tr)
		}
	}
	return s
}

// phaseStats is a phase's client-observed throughput and latencies.
type phaseStats struct {
	ops, reads, writes                   int
	opsPerSec                            float64
	readP50, readP90, writeP50, writeP90 float64
}

func summarize(ph phase) phaseStats {
	var reads, writes []float64
	for _, s := range ph.samples {
		ms := float64(s.lat) / 1e6
		if s.write {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	return phaseStats{
		ops: len(ph.samples), reads: len(reads), writes: len(writes),
		opsPerSec: float64(len(ph.samples)) / ph.elapsed.Seconds(),
		readP50:   percentile(reads, 0.5), readP90: percentile(reads, 0.9),
		writeP50: percentile(writes, 0.5), writeP90: percentile(writes, 0.9),
	}
}

// percentile is the linearly interpolated q-quantile (0 for no data).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// client is one closed-loop HTTP client on one keep-alive connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string, wrap func(http.RoundTripper) http.RoundTripper) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	// The timeout turns a hung server into a failed operation, so a run
	// still ends in bounded time.
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: rt, Timeout: 30 * time.Second}}
}

// post sends one request and reads the whole answer. The returned body is
// valid until the next call.
func (c *client) post(path string, body []byte) (t0, t1 time.Time, status int, resp []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return t0, t0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.buf.Reset()
	t0 = time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return t0, time.Now(), 0, nil, err
	}
	_, err = c.buf.ReadFrom(r.Body)
	r.Body.Close()
	t1 = time.Now()
	return t0, t1, r.StatusCode, c.buf.Bytes(), err
}

func (c *client) close() { c.tr.CloseIdleConnections() }
