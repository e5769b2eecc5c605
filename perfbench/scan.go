package main

import (
	"context"
	"fmt"
	"time"

	"xmlsql"
	"xmlsql/internal/schema"
	"xmlsql/internal/server"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// scanWorkload serves large-result reads from one audited mem store of 100
// XMark documents (about 90k tuples). Each schedule cycle issues every query
// of scanQueries once, in a seeded order. Every plan is a cache hit, and no
// query writes, so engine scan and projection, per-row allocation, GC and
// JSON encoding do the work.
type scanWorkload struct {
	schema *schema.Schema
	docs   []*xmltree.Document
	ops    []op
	order  []int
	pos    int
	ntup   int
	tenant *server.Tenant
}

// scanQueries is one cycle. The row counts below are for 100 documents of
// 50 items per continent with 2 categories each. The class sizes are chosen
// so that the read median falls in the middle of the 10k class and the
// read p90 inside the 60k class, never on a class boundary: 6 + 6 + 3 + 3
// queries put the 10k class at ranks [0.33, 0.67) and the 60k class at
// [0.83, 1).
func scanQueries() []string {
	var qs []string
	for _, c := range workloads.Continents { // 5k rows each
		qs = append(qs, "/Site/Regions/"+c+"/Item/name")
	}
	for _, c := range workloads.Continents { // 10k rows each
		qs = append(qs, "/Site/Regions/"+c+"/Item/InCategory/Category")
	}
	qs = append(qs, "//Item/name", "/Site/Regions//Item/name", "//name")                                              // 30k rows
	qs = append(qs, "//Item/InCategory/Category", "//InCategory/Category", "/Site/Regions//Item/InCategory/Category") // 60k rows
	return qs
}

func (w *scanWorkload) generate(b *bench) error {
	docs, items := 100, 50
	if b.cfg.tiny {
		docs, items = 3, 4
	}
	w.schema = workloads.XMark()
	w.docs = workloads.GenerateXMarkScale(workloads.XMarkConfig{
		ItemsPerContinent: items, CategoriesPerItem: 2, NumCategories: 50, Seed: b.cfg.seed * 1000,
	}, docs)
	ref, err := newReference(w.schema, w.docs)
	if err != nil {
		return err
	}
	for _, q := range scanQueries() {
		want, err := ref.summary(q)
		if err != nil {
			return err
		}
		w.ops = append(w.ops, readOp("scan", q, want))
	}
	b.logf("scan: %d XMark documents, %d queries per cycle, seeded order within each cycle", docs, len(w.ops))
	return nil
}

func (w *scanWorkload) build(b *bench, srv *server.Server, rep int) error {
	t, ntup, err := addMemTenant(b, srv, "scan", w.schema, w.docs, xmlsql.PlannerConfig{})
	if err != nil {
		return err
	}
	w.tenant, w.ntup = t, ntup
	return nil
}

// addMemTenant loads docs into a fresh mem backend, registers it as a
// tenant and audits it to verified. It records the load and audit times.
func addMemTenant(b *bench, srv *server.Server, name string, s *schema.Schema, docs []*xmltree.Document, pc xmlsql.PlannerConfig) (*server.Tenant, int, error) {
	m := xmlsql.NewMemBackend()
	if err := m.EnsureSchema(s); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := m.Load(s, docs...); err != nil {
		return nil, 0, fmt.Errorf("load %s: %w", name, err)
	}
	b.repLoadMs += ms(time.Since(start))
	t, err := srv.AddTenant(server.TenantConfig{Name: name, Schema: s, Backend: m, Planner: pc})
	if err != nil {
		return nil, 0, err
	}
	if err := auditTenant(b, t); err != nil {
		return nil, 0, err
	}
	b.tenants = append(b.tenants, t)
	return t, m.Store().TotalRows(), nil
}

// auditTenant runs the full integrity audit that makes a tenant verified.
func auditTenant(b *bench, t *server.Tenant) error {
	start := time.Now()
	rep, err := t.Planner().Audit(context.Background())
	if err != nil {
		return fmt.Errorf("audit %s: %w", t.Name(), err)
	}
	if !rep.Clean() {
		return fmt.Errorf("audit %s: %d violations on a generated instance", t.Name(), rep.Total)
	}
	b.repAuditMs += ms(time.Since(start))
	return nil
}

func (w *scanWorkload) setupReps() int { return 5 }
func (w *scanWorkload) dropInputs()    { w.docs = nil }
func (w *scanWorkload) tuples() int    { return w.ntup }
func (w *scanWorkload) cycle() int     { return len(w.ops) }

func (w *scanWorkload) warm(b *bench) error {
	for _, o := range w.ops {
		b.do(o, nil)
	}
	return nil
}

func (w *scanWorkload) next(b *bench) op {
	if w.pos == 0 {
		w.order = b.rng.Perm(len(w.ops))
	}
	o := w.ops[w.order[w.pos]]
	w.pos = (w.pos + 1) % len(w.ops)
	return o
}

func (w *scanWorkload) finish(*bench, layerMetrics) error { return nil }

func (w *scanWorkload) probe(b *bench, tr *tracer, lm layerMetrics) error {
	var acc probeAcc
	if err := probeQueries(tr, w.tenant, false, scanQueries(), &acc); err != nil {
		return err
	}
	acc.report(lm)
	return nil
}
