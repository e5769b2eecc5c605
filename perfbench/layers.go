package main

import "fmt"

// perLayerDefs lists every per-layer metric a traced run reports, in
// report order. A metric whose layer a workload does not exercise (the WAL
// on scan, say) reads 0 with sample count 0.
var perLayerDefs = []struct{ name, unit string }{
	{"server.read_self_ms", "ms"},
	{"server.write_self_ms", "ms"},
	{"server.resp_bytes_per_row", "B/row"},
	{"plancache.hit_ratio", "fraction"},
	{"plancache.evictions_per_op", "1/op"},
	{"plancache.entries_purged_per_write", "1/write"},
	{"pathid.build_ms", "ms"},
	{"translate.pruned_ms", "ms"},
	{"translate.baseline_ms", "ms"},
	{"translate.adaptive_ms", "ms"},
	{"translate.branches_pruned", "count"},
	{"translate.branches_baseline", "count"},
	{"stats.choose_ms", "ms"},
	{"stats.pruned_choice_frac", "fraction"},
	{"stats.collect_ms", "ms"},
	{"stats.collects_per_write", "1/write"},
	{"engine.exec_ms", "ms"},
	{"engine.rows_per_ms", "rows/ms"},
	{"engine.allocs_per_row", "allocs/row"},
	{"engine.memo_enabled_frac", "fraction"},
	{"engine.parallel_enabled_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"shred.load_ms", "ms"},
	{"integrity.full_audit_ms", "ms"},
	{"relational.heap_bytes_per_tuple", "B/tuple"},
	{"sharded.scatter_ms", "ms"},
	{"sharded.shard_max_ms", "ms"},
	{"sharded.merge_ms", "ms"},
	{"sharded.shards_per_write", "1/write"},
	{"update.batch_ms", "ms"},
	{"update.stmts_per_batch", "stmts/batch"},
	{"integrity.incremental_audit_ms", "ms"},
	{"integrity.replay_audit_ms", "ms"},
	{"wal.commit_ms", "ms"},
	{"wal.bytes_per_write", "B/write"},
	{"wal.records_per_write", "1/write"},
	{"wal.snapshots_per_write", "1/write"},
	{"wal.open_ms", "ms"},
	{"wal.replayed_batches", "count"},
	// Self time per traced layer: the client loop, the HTTP exchange
	// around the server's work, the server's work around the WAL commit
	// (whose self time is wal.commit_ms), and the client's answer check.
	{"self.client_ms", "ms"},
	{"self.http_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.check_ms", "ms"},
	// The traced phase against the untraced one.
	{"trace.overhead_ops_frac", "fraction"},
	{"trace.overhead_read_p50_frac", "fraction"},
	{"trace.spans", "count"},
	// durable_rw's write latencies and cold-boot time, from the untraced
	// phase and the boots after it.
	{"durable.write_p50_ms", "ms"},
	{"durable.write_p90_ms", "ms"},
	{"durable.recovery_s", "s"},
}

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]metric

func (lm layerMetrics) set(name string, value float64, n int) {
	for _, d := range perLayerDefs {
		if d.name == name {
			lm[name] = metric{name: name, unit: d.unit, value: value, n: n}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: undeclared per-layer metric %q", name))
}

// metrics returns every declared metric in declaration order.
func (lm layerMetrics) metrics() []metric {
	out := make([]metric, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m, ok := lm[d.name]
		if !ok {
			m = metric{name: d.name, unit: d.unit}
		}
		out = append(out, m)
	}
	return out
}
