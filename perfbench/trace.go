package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/server"
	"xmlsql/internal/sharded"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/wal"
)

// span is one timed interval of the traced run. Spans are kept in memory
// and written to a JSON-lines file when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs f as a span.
func (t *tracer) timed(name string, parent int, op int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, op, start, end)
	return end.Sub(start)
}

// recordOp records one client operation: the op itself, the HTTP exchange
// inside it, the server's own work inside that (placed in the middle of the
// exchange, since only its length is reported), the WAL commits inside the
// server's work, and the client's answer check.
func (t *tracer) recordOp(start, t0, t1, c1 time.Time, srvNs int64, commits []walCommit) {
	t.ops++
	opID := t.add("op", 0, t.ops, start, c1)
	httpID := t.add("http", opID, t.ops, t0, t1)
	if srvNs > 0 {
		mid := t0.Add((t1.Sub(t0) - time.Duration(srvNs)) / 2)
		srvID := t.add("server", httpID, t.ops, mid, mid.Add(time.Duration(srvNs)))
		for _, c := range commits {
			t.add("wal.commit", srvID, t.ops, c.start, c.end)
		}
	}
	t.add("check", opID, t.ops, t1, c1)
}

// selfTimes is the mean self time (span time minus its children's time) per
// span name, in ms, with the span count.
func (t *tracer) selfTimes() map[string][2]float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		sum[s.Name] += float64(self) / 1e6
		cnt[s.Name]++
	}
	out := map[string][2]float64{}
	for n, v := range sum {
		out[n] = [2]float64{v / cnt[n], cnt[n]}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walCommit is one WAL commit observed by the recorder.
type walCommit struct {
	shard      int
	start, end time.Time
	stmts      []sqlast.DMLStmt
}

// walRecorder times WAL commits through timedLog wrappers. Commits run on
// server goroutines; the client drains them after each answer.
type walRecorder struct {
	on      atomic.Bool
	mu      sync.Mutex
	commits []walCommit
	last    []walCommit
}

func (r *walRecorder) drain() []walCommit {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last, r.commits = r.commits, nil
	return r.last
}

// timedLog is the backend.CommitLog a traced durable tenant's shards commit
// through: it forwards every call to the shard's WAL manager, timing
// commits while the recorder is on. It forwards Close because backend.Mem
// closes a log that is an io.Closer.
type timedLog struct {
	inner *wal.Manager
	shard int
	rec   *walRecorder
}

func (l *timedLog) Commit(stmts []sqlast.DMLStmt) error {
	if !l.rec.on.Load() {
		return l.inner.Commit(stmts)
	}
	start := time.Now()
	err := l.inner.Commit(stmts)
	end := time.Now()
	l.rec.mu.Lock()
	l.rec.commits = append(l.rec.commits, walCommit{shard: l.shard, start: start, end: end, stmts: stmts})
	l.rec.mu.Unlock()
	return err
}

func (l *timedLog) Close() error { return l.inner.Close() }

// counters is a snapshot of the public counters the traced run diffs.
type counters struct {
	hits, misses, evictions, collects int64
	gcCPU, totalCPU                   float64
	walRecords, walBytes, walSnaps    int64
}

func (b *bench) counters() counters {
	var c counters
	for _, t := range b.tenants {
		st := t.Planner().Stats()
		c.hits += st.Hits
		c.misses += st.Misses
		c.evictions += st.Evictions
		c.collects += st.StatsCollects
		for _, m := range t.WALs() {
			ws := m.Stats()
			c.walRecords += ws.Records
			c.walBytes += ws.Bytes
			c.walSnaps += ws.Snapshots
		}
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return c
}

// tracedRun measures a second phase with spans and counters on, reports it
// against the untraced phase, and runs the workload's per-layer probes.
func (b *bench) tracedRun(wl workload, d time.Duration, plain phaseStats, lm layerMetrics) error {
	tr := newTracer()
	if b.walRec != nil {
		b.walRec.on.Store(true)
	}
	before := b.counters()
	ph := b.measure(wl, d, tr)
	after := b.counters()
	if b.walRec != nil {
		b.walRec.on.Store(false)
	}

	var readSelf, writeSelf, readBytes, readRows, batchMs, stmts []float64
	var writes int
	for _, s := range ph.samples {
		self := float64(s.lat-s.srv) / 1e6
		if s.write {
			writes++
			writeSelf = append(writeSelf, self)
			batchMs = append(batchMs, float64(s.srv)/1e6)
			stmts = append(stmts, float64(s.stmts))
		} else {
			readSelf = append(readSelf, self)
			readBytes = append(readBytes, float64(s.bytes))
			readRows = append(readRows, float64(s.rows))
		}
	}
	lm.set("server.read_self_ms", mean(readSelf), len(readSelf))
	lm.set("server.write_self_ms", mean(writeSelf), len(writeSelf))
	if rows := sum(readRows); rows > 0 {
		lm.set("server.resp_bytes_per_row", sum(readBytes)/rows, len(readRows))
	}
	lm.set("update.batch_ms", mean(batchMs), len(batchMs))
	lm.set("update.stmts_per_batch", mean(stmts), len(stmts))
	if lookups := (after.hits - before.hits) + (after.misses - before.misses); lookups > 0 {
		lm.set("plancache.hit_ratio", float64(after.hits-before.hits)/float64(lookups), int(lookups))
	}
	lm.set("plancache.evictions_per_op", float64(after.evictions-before.evictions)/float64(len(ph.samples)), len(ph.samples))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		lm.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu, 1)
	}
	if writes > 0 {
		w := float64(writes)
		lm.set("stats.collects_per_write", float64(after.collects-before.collects)/w, writes)
		lm.set("wal.records_per_write", float64(after.walRecords-before.walRecords)/w, writes)
		lm.set("wal.bytes_per_write", float64(after.walBytes-before.walBytes)/w, writes)
		lm.set("wal.snapshots_per_write", float64(after.walSnaps-before.walSnaps)/w, writes)
	}

	traced := summarize(ph)
	lm.set("trace.overhead_ops_frac", 1-traced.opsPerSec/plain.opsPerSec, traced.ops)
	if plain.readP50 > 0 {
		lm.set("trace.overhead_read_p50_frac", traced.readP50/plain.readP50-1, traced.reads)
	}

	if err := wl.probe(b, tr, lm); err != nil {
		return err
	}
	self := tr.selfTimes()
	for name, metric := range map[string]string{
		"op": "self.client_ms", "http": "self.http_ms", "server": "self.server_ms",
		"check": "self.check_ms", "wal.commit": "wal.commit_ms",
	} {
		if v, ok := self[name]; ok {
			lm.set(metric, v[0], int(v[1]))
		}
	}
	lm.set("trace.spans", float64(len(tr.spans)), len(tr.spans))
	path := filepath.Join(b.cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.logf("traced phase: %d ops, %d spans written to %s", len(ph.samples), len(tr.spans), path)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.logf("self   %-36s = %14.6f ms (n=%d)", n, self[n][0], int(self[n][1]))
	}
	return nil
}

// probeQueries times each layer's public functions on the queries a tenant
// serves: PathId, the pruned, baseline and adaptive translations, the plan
// chooser, statistics collection, and execution of the plan the tenant
// serves (per shard, too, on a sharded tenant). Translation, PathId,
// ChoosePlan, statistics collection and executing a read plan are pure, so
// calling them again beside the server changes nothing the server does.
// Explain and Plan read the tenant's plan cache, which is why the probes run
// after the traced phase's counters were taken.
func probeQueries(tr *tracer, t *server.Tenant, adaptive bool, queries []string, acc *probeAcc) error {
	ctx := context.Background()
	p := t.Planner()
	s := p.Schema()
	snap, err := p.StatsSnapshot(ctx)
	if err != nil {
		return err
	}
	comp, _ := p.Backend().(*sharded.Sharded)
	var stores []*xmlsql.Store
	if comp != nil {
		for _, sh := range comp.Shards() {
			stores = append(stores, sh.(*backend.Mem).Store())
		}
	} else {
		stores = append(stores, p.Backend().(*backend.Mem).Store())
	}
	acc.collectMs = append(acc.collectMs, ms(tr.timed("stats.collect", 0, 0, func() {
		for _, st := range stores {
			xmlsql.CollectStatistics(st)
		}
	})))

	for _, q := range queries {
		tr.ops++
		opID := tr.ops
		pq, err := xmlsql.ParseQuery(q)
		if err != nil {
			return err
		}
		pid := tr.add("probe", 0, opID, time.Now(), time.Now())
		var pruned, naive *xmlsql.SQL
		var trA *xmlsql.Translation
		acc.pathid = append(acc.pathid, ms(tr.timed("pathid.build", pid, opID, func() { _, err = xmlsql.PathID(s, pq) })))
		if err != nil {
			return fmt.Errorf("pathid %s: %w", q, err)
		}
		acc.pruned = append(acc.pruned, ms(tr.timed("translate.pruned", pid, opID, func() {
			var r *xmlsql.Translation
			if r, err = xmlsql.Translate(s, pq); err == nil {
				pruned = r.Query
			}
		})))
		if err != nil {
			return fmt.Errorf("translate %s: %w", q, err)
		}
		acc.baseline = append(acc.baseline, ms(tr.timed("translate.baseline", pid, opID, func() { naive, err = xmlsql.TranslateNaive(s, pq) })))
		if err != nil {
			return fmt.Errorf("translate baseline %s: %w", q, err)
		}
		acc.branchesPruned = append(acc.branchesPruned, float64(len(pruned.Selects)))
		acc.branchesBaseline = append(acc.branchesBaseline, float64(len(naive.Selects)))
		acc.adaptive = append(acc.adaptive, ms(tr.timed("translate.adaptive", pid, opID, func() {
			trA, err = xmlsql.TranslateWithOptions(s, pq, xmlsql.TranslateOptions{Adaptive: true})
		})))
		if err != nil {
			return fmt.Errorf("translate adaptive %s: %w", q, err)
		}
		cn, cp := trA.Baseline, trA.Query
		if trA.Fallback || cn == nil {
			cn, cp = trA.Query, nil
		}
		var dec *xmlsql.PlanDecision
		acc.choose = append(acc.choose, ms(tr.timed("stats.choose", pid, opID, func() {
			dec = xmlsql.ChoosePlan(cn, cp, s, xmlsql.NewEstimator(snap))
		})))
		acc.prunedChoice = append(acc.prunedChoice, b2f(dec.UsePruned))

		// The plan the tenant serves, from its own plan cache.
		plan := pruned
		// A sharded tenant executes through each shard's backend, which
		// takes no per-query estimate; a single mem store runs the engine's
		// Auto mode on the decision's estimate, as Planner.Exec does.
		opts := xmlsql.ExecuteOptions{}
		if adaptive {
			ex, err := p.Explain(ctx, q)
			if err != nil {
				return fmt.Errorf("explain %s: %w", q, err)
			}
			plan = ex.Plan.Query
			if comp == nil {
				opts.Auto, opts.Estimate = true, ex.Decision.ChosenEst
			}
		} else if cached, err := p.Plan(q); err == nil {
			plan = cached.Query
		} else {
			return fmt.Errorf("plan %s: %w", q, err)
		}

		if comp != nil {
			m0, err := comp.Metrics(ctx)
			if err != nil {
				return err
			}
			acc.scatter = append(acc.scatter, ms(tr.timed("sharded.scatter", pid, opID, func() { _, err = comp.Execute(ctx, plan) })))
			if err != nil {
				return fmt.Errorf("scatter %s: %w", q, err)
			}
			m1, err := comp.Metrics(ctx)
			if err != nil {
				return err
			}
			acc.merge = append(acc.merge, float64(m1.MergeNs-m0.MergeNs)/1e6)
			var maxMs float64
			for k, sh := range comp.Shards() {
				d := ms(tr.timed("sharded.shard", pid, opID, func() { _, err = sh.Execute(ctx, plan) }))
				if err != nil {
					return fmt.Errorf("shard %d %s: %w", k, q, err)
				}
				if d > maxMs {
					maxMs = d
				}
			}
			acc.shardMax = append(acc.shardMax, maxMs)
		}
		var execMs float64
		var rows, allocs uint64
		for _, st := range stores {
			var res *xmlsql.Result
			var es xmlsql.ExecuteStats
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d := tr.timed("engine.exec", pid, opID, func() { res, es, err = xmlsql.ExecuteContextStats(ctx, st, plan, opts) })
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("execute %s: %w", q, err)
			}
			execMs += ms(d)
			rows += uint64(res.Len())
			allocs += m1.Mallocs - m0.Mallocs
			acc.memo = append(acc.memo, b2f(es.MemoEnabled))
			acc.parallel = append(acc.parallel, b2f(es.ParallelEnabled))
		}
		acc.exec = append(acc.exec, execMs)
		acc.rows += float64(rows)
		acc.allocs += float64(allocs)
		tr.spans[pid-1].End = time.Now().Sub(tr.t0).Nanoseconds()
	}
	return nil
}

// probeAcc accumulates probe timings across tenants and queries.
type probeAcc struct {
	pathid, pruned, baseline, adaptive, choose, prunedChoice []float64
	branchesPruned, branchesBaseline                         []float64
	exec, memo, parallel, collectMs                          []float64
	scatter, shardMax, merge                                 []float64
	rows, allocs                                             float64
}

func (a *probeAcc) report(lm layerMetrics) {
	lm.set("pathid.build_ms", mean(a.pathid), len(a.pathid))
	lm.set("translate.pruned_ms", mean(a.pruned), len(a.pruned))
	lm.set("translate.baseline_ms", mean(a.baseline), len(a.baseline))
	lm.set("translate.adaptive_ms", mean(a.adaptive), len(a.adaptive))
	lm.set("translate.branches_pruned", mean(a.branchesPruned), len(a.branchesPruned))
	lm.set("translate.branches_baseline", mean(a.branchesBaseline), len(a.branchesBaseline))
	lm.set("stats.choose_ms", mean(a.choose), len(a.choose))
	lm.set("stats.pruned_choice_frac", mean(a.prunedChoice), len(a.prunedChoice))
	lm.set("stats.collect_ms", mean(a.collectMs), len(a.collectMs))
	lm.set("engine.exec_ms", mean(a.exec), len(a.exec))
	if t := sum(a.exec); t > 0 {
		lm.set("engine.rows_per_ms", a.rows/t, len(a.exec))
	}
	if a.rows > 0 {
		lm.set("engine.allocs_per_row", a.allocs/a.rows, len(a.exec))
	}
	lm.set("engine.memo_enabled_frac", mean(a.memo), len(a.memo))
	lm.set("engine.parallel_enabled_frac", mean(a.parallel), len(a.parallel))
	lm.set("sharded.scatter_ms", mean(a.scatter), len(a.scatter))
	lm.set("sharded.shard_max_ms", mean(a.shardMax), len(a.shardMax))
	lm.set("sharded.merge_ms", mean(a.merge), len(a.merge))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
