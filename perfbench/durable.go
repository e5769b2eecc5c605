package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/integrity"
	"xmlsql/internal/schema"
	"xmlsql/internal/server"
	"xmlsql/internal/sharded"
	"xmlsql/internal/wal"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// durableWorkload serves small reads beside durable writes: 10 XMark
// documents in one tenant split over 2 shards, each shard with its own WAL
// fsynced on every commit. The schedule inserts an InCategory under a hot
// item or deletes one it inserted earlier, in balance, so the instance does
// not grow with run length; reads look hot items up, over the written
// relation and over an unwritten one. After the measured phases the tenant
// is shut down and cold-booted repeatedly from its data dirs.
type durableWorkload struct {
	schema *schema.Schema
	docs   []*xmltree.Document
	hot    []*hotItem
	// live is the FIFO of inserted categories not yet deleted.
	live        []liveCat
	lastDeleted *hotItem
	serial      int
	seq         int
	ntup        int
	dir         string
	tenant      *server.Tenant

	// Traced-phase write probes.
	purged, incAuditMs []float64
	commits, writes    int
}

// hotItem is one item the schedule reads and writes. Its expected
// categories are the document's (base) plus the live inserted ones.
type hotItem struct {
	cont, name string
	base       []string
	inserted   []string
	readCat    []byte // //Item[name=...]/InCategory/Category
	readName   []byte // /Site/Regions/<cont>/Item[name=...]/name
}

type liveCat struct {
	item *hotItem
	cat  string
}

const (
	durableDocs   = 10
	durableShards = 2
	durableHot    = 32
	// durableLive is how many inserted categories stay live; the warm-up
	// inserts them and every measured insert is balanced by a delete.
	durableLive = 16
	// durableBoots is how many cold boots recovery_s is the median of.
	durableBoots = 9
)

func (h *hotItem) catQuery() string {
	return fmt.Sprintf("//Item[name='%s']/InCategory/Category", h.name)
}

func (h *hotItem) nameQuery() string {
	return fmt.Sprintf("/Site/Regions/%s/Item[name='%s']/name", h.cont, h.name)
}

func (h *hotItem) itemPath() string {
	return fmt.Sprintf("/Site/Regions/%s/Item[name='%s']", h.cont, h.name)
}

func (h *hotItem) wantCats() summary {
	return summarizeStrings(append(append([]string(nil), h.base...), h.inserted...))
}

func (w *durableWorkload) generate(b *bench) error {
	docs, items, hot := durableDocs, 50, durableHot
	if b.cfg.tiny {
		docs, items, hot = 2, 4, 6
	}
	w.schema = workloads.XMark()
	w.docs = workloads.GenerateXMarkScale(workloads.XMarkConfig{
		ItemsPerContinent: items, CategoriesPerItem: 2, NumCategories: 50, Seed: b.cfg.seed * 1000,
	}, docs)
	// Item names repeat across generated documents; prefixing the document
	// number makes each unique, so every write is scoped to one document
	// (and one shard).
	var all []*hotItem
	for d, doc := range w.docs {
		for _, cont := range doc.Root.Children[0].Children {
			for _, item := range cont.Children {
				name := item.Children[0]
				name.Text = fmt.Sprintf("d%d-%s", d, name.Text)
				all = append(all, &hotItem{cont: cont.Label, name: name.Text})
			}
		}
	}
	ref, err := newReference(w.schema, w.docs)
	if err != nil {
		return err
	}
	for _, i := range b.rng.Perm(len(all))[:hot] {
		h := all[i]
		vals, err := ref.values(h.catQuery())
		if err != nil {
			return err
		}
		for _, v := range vals {
			h.base = append(h.base, v.AsString())
		}
		h.readCat, _ = json.Marshal(map[string]string{"tenant": "rw", "query": h.catQuery()})
		h.readName, _ = json.Marshal(map[string]string{"tenant": "rw", "query": h.nameQuery()})
		w.hot = append(w.hot, h)
	}
	if b.cfg.trace {
		b.walRec = &walRecorder{}
	}
	return nil
}

func (w *durableWorkload) build(b *bench, srv *server.Server, rep int) error {
	dir, err := b.dataDir(fmt.Sprintf("setup-%d", rep))
	if err != nil {
		return err
	}
	t, err := srv.AddTenant(w.tenantConfig(b, dir))
	if err != nil {
		return err
	}
	if err := auditTenant(b, t); err != nil {
		return err
	}
	comp := t.Planner().Backend().(*sharded.Sharded)
	if b.walRec != nil {
		for k, sh := range comp.Shards() {
			sh.(*backend.Mem).SetCommitLog(&timedLog{inner: t.WALs()[k], shard: k, rec: b.walRec})
		}
	}
	w.ntup = 0
	for _, sh := range comp.Shards() {
		w.ntup += sh.(*backend.Mem).Store().TotalRows()
	}
	w.dir, w.tenant = dir, t
	b.tenants = append(b.tenants, t)
	return nil
}

// tenantConfig is the durable tenant; on a first boot in an empty dir it
// loads the generated documents and writes the base checkpoints.
func (w *durableWorkload) tenantConfig(b *bench, dir string) server.TenantConfig {
	return server.TenantConfig{
		Name:    "rw",
		Schema:  w.schema,
		DataDir: dir,
		Shards:  durableShards,
		WAL:     wal.Options{SyncEvery: 0},
		Planner: xmlsql.PlannerConfig{Translate: xmlsql.TranslateOptions{Adaptive: true}},
		LoadBackend: func(bk xmlsql.Backend) error {
			if w.docs == nil {
				return fmt.Errorf("durable tenant in %s has no snapshot to recover", dir)
			}
			start := time.Now()
			_, err := bk.Load(w.schema, w.docs...)
			b.repLoadMs += ms(time.Since(start))
			return err
		},
	}
}

func (w *durableWorkload) setupReps() int { return 7 }
func (w *durableWorkload) dropInputs()    { w.docs = nil }
func (w *durableWorkload) tuples() int    { return w.ntup }

// cycle is insert, read the written item, read a hot item, look a name up;
// then the same around a delete. Reads after a write re-plan and re-collect
// statistics; name lookups read only the unwritten Item relation.
func (w *durableWorkload) cycle() int { return 8 }

func (w *durableWorkload) warm(b *bench) error {
	b.logf("durable_rw: %d documents over %d shards, %d hot items, %d live inserts, data-dir filesystem=%s, fsync every commit (SyncEvery 0), default snapshot cadence",
		durableDocs, durableShards, len(w.hot), durableLive, fsType(w.dir))
	for i := 0; i < durableLive; i++ {
		b.do(w.insertOp(w.hot[b.rng.Intn(len(w.hot))]), nil)
	}
	for _, h := range w.hot {
		b.do(w.readOp(h, false), nil)
		b.do(w.readOp(h, true), nil)
	}
	return nil
}

func (w *durableWorkload) readOp(h *hotItem, name bool) op {
	if name {
		return op{path: "/query", body: h.readName, query: h.nameQuery(), want: summarizeStrings([]string{h.name})}
	}
	return op{path: "/query", body: h.readCat, query: h.catQuery(), want: h.wantCats()}
}

func (w *durableWorkload) next(b *bench) op {
	slot := w.seq % 8
	w.seq++
	random := func() *hotItem { return w.hot[b.rng.Intn(len(w.hot))] }
	switch slot {
	case 0:
		return w.traceWrite(b, w.insertOp(random()))
	case 4:
		return w.traceWrite(b, w.deleteOp())
	case 1: // the item the insert wrote
		return w.readOp(w.live[len(w.live)-1].item, false)
	case 5: // the item the delete wrote
		return w.readOp(w.lastDeleted, false)
	case 3, 7:
		return w.readOp(random(), true)
	default:
		return w.readOp(random(), false)
	}
}

func (w *durableWorkload) insertOp(h *hotItem) op {
	w.serial++
	cat := fmt.Sprintf("w-%d", w.serial)
	body, _ := json.Marshal(map[string]any{"tenant": "rw", "mutations": []map[string]string{{
		"op": "insert", "path": h.itemPath(), "xml": "<InCategory><Category>" + cat + "</Category></InCategory>",
	}}})
	w.live = append(w.live, liveCat{h, cat})
	return op{write: true, path: "/update", body: body, done: func(a updateAnswer) bool {
		if a.Written != 1 || a.Deleted != 0 || !a.AuditClean {
			return false
		}
		h.inserted = append(h.inserted, cat)
		return true
	}}
}

func (w *durableWorkload) deleteOp() op {
	lc := w.live[0]
	w.live = w.live[1:]
	w.lastDeleted = lc.item
	body, _ := json.Marshal(map[string]any{"tenant": "rw", "mutations": []map[string]string{{
		"op": "delete", "path": lc.item.itemPath() + "/InCategory[Category='" + lc.cat + "']",
	}}})
	return op{write: true, path: "/update", body: body, done: func(a updateAnswer) bool {
		if a.Deleted != 1 || a.Written != 0 || !a.AuditClean {
			return false
		}
		h := lc.item
		for i, c := range h.inserted {
			if c == lc.cat {
				h.inserted = append(h.inserted[:i], h.inserted[i+1:]...)
				return true
			}
		}
		return false
	}}
}

// traceWrite adds the traced phase's write probes: plan-cache entries the
// write purged, and the incremental audit re-run read-only on the footprint
// of the batch's WAL records.
func (w *durableWorkload) traceWrite(b *bench, o op) op {
	if b.walRec == nil || !b.walRec.on.Load() {
		return o
	}
	p := w.tenant.Planner()
	before := p.Stats().Entries
	o.after = func(tr *tracer) {
		w.writes++
		w.purged = append(w.purged, float64(before-p.Stats().Entries))
		comp := p.Backend().(*sharded.Sharded)
		for _, c := range b.walRec.last {
			w.commits++
			touched, complete := wal.TouchedFromStmts(c.stmts)
			if !complete {
				continue
			}
			probe := integrity.StoreProbe(comp.Shards()[c.shard].(*backend.Mem).Store())
			var err error
			d := tr.timed("integrity.incremental_audit", 0, tr.ops, func() {
				_, err = integrity.AuditIncremental(context.Background(), probe, w.schema, touched)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: incremental audit probe: %v\n", err)
				continue
			}
			w.incAuditMs = append(w.incAuditMs, ms(d))
		}
	}
	return o
}

func (w *durableWorkload) probe(b *bench, tr *tracer, lm layerMetrics) error {
	lm.set("plancache.entries_purged_per_write", mean(w.purged), len(w.purged))
	lm.set("integrity.incremental_audit_ms", mean(w.incAuditMs), len(w.incAuditMs))
	if w.writes > 0 {
		lm.set("sharded.shards_per_write", float64(w.commits)/float64(w.writes), w.writes)
	}
	var acc probeAcc
	var qs []string
	for _, h := range w.hot {
		qs = append(qs, h.catQuery(), h.nameQuery())
	}
	if err := probeQueries(tr, w.tenant, true, qs, &acc); err != nil {
		return err
	}
	acc.report(lm)
	return nil
}

// finish shuts the tenant down and cold-boots it from its data dirs
// repeatedly: WAL snapshot load and replay per shard, then the
// verified-replay audit. Every boot must land in state recovered; the last
// one must answer every hot read as the model expects.
func (w *durableWorkload) finish(b *bench, lm layerMetrics) error {
	b.cl.close()
	if err := b.srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	b.srv = nil
	boots := durableBoots
	if b.cfg.tiny {
		boots = 2
	}
	var bootS []float64
	for i := 0; i < boots; i++ {
		runtime.GC()
		srv := server.New(b.srvCfg)
		start := time.Now()
		t, err := srv.AddTenant(w.tenantConfig(b, w.dir))
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("cold boot: %w", err)
		}
		bootS = append(bootS, d.Seconds())
		b.attempted++
		if st := t.RecoveryState(); st != server.RecoveryRecovered {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cold boot %d: recovery state %s\n", i, st)
		}
		if i == boots-1 {
			w.checkRecovered(b, t)
			if b.cfg.trace {
				if err := w.traceRecovery(t, lm); err != nil {
					srv.Shutdown(context.Background())
					return err
				}
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return fmt.Errorf("cold boot shutdown: %w", err)
		}
	}
	rec := median(bootS)
	b.logf("metric %-14s = %12.4f %-6s (n=%d median of cold boots)", "recovery_s", rec, "s", len(bootS))
	lm.set("durable.recovery_s", rec, len(bootS))
	return nil
}

// checkRecovered asks the recovered tenant, in process, every hot read.
func (w *durableWorkload) checkRecovered(b *bench, t *server.Tenant) {
	ctx := context.Background()
	for _, h := range w.hot {
		for _, c := range []struct {
			q    string
			want summary
		}{{h.catQuery(), h.wantCats()}, {h.nameQuery(), summarizeStrings([]string{h.name})}} {
			b.attempted++
			r, err := t.Planner().Exec(ctx, c.q)
			if err != nil || summarizeResult(r) != c.want {
				b.failed++
				fmt.Fprintf(os.Stderr, "perfbench: recovered answer to %s differs (err=%v)\n", c.q, err)
			}
		}
	}
}

func summarizeResult(r *xmlsql.Result) summary {
	var s summary
	for _, row := range r.Rows {
		canon := ""
		for k, v := range row {
			if k > 0 {
				canon += "\x1f"
			}
			canon += canonValue(v)
		}
		s.addRow(canon)
	}
	return s
}

// traceRecovery times the recovery layers beside the last boot: the
// verified-replay audit over the replayed footprint, and wal.Open on fresh
// copies of a shard's data dir.
func (w *durableWorkload) traceRecovery(t *server.Tenant, lm layerMetrics) error {
	info := t.RecoveryInfo()
	lm.set("wal.replayed_batches", float64(info.ReplayedBatches), durableShards)
	comp := t.Planner().Backend().(*sharded.Sharded)
	probe, err := comp.IntegrityProbe()
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := integrity.AuditIncremental(context.Background(), probe, w.schema, info.Touched); err != nil {
		return fmt.Errorf("replay audit: %w", err)
	}
	lm.set("integrity.replay_audit_ms", ms(time.Since(start)), 1)

	var opens []float64
	for i := 0; i < 5; i++ {
		dst := filepath.Join(w.dir, fmt.Sprintf("open-copy-%d", i))
		if err := copyDir(filepath.Join(w.dir, "shard-0"), dst); err != nil {
			return err
		}
		start := time.Now()
		m, _, err := wal.Open(dst, wal.Options{})
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("wal open copy: %w", err)
		}
		m.Close()
		opens = append(opens, ms(d))
		os.RemoveAll(dst)
	}
	lm.set("wal.open_ms", median(opens), len(opens))
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fsType names the filesystem a directory lives on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
