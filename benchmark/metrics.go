package main

import (
	"fmt"
	"math"

	"denova/internal/workload"
)

// def names one reported metric. The two lists built from defs below are
// the benchmark's contract; BENCHMARK.json repeats them (a test keeps the
// two in step).
type def struct{ name, unit string }

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A unit of sim_us marks modelled media time: what the latency profile
// charged, not what a clock measured. It depends on the inputs alone.
var endToEndDefs = []def{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"}, {"write_p50_us", "us"}, {"append_p50_us", "us"},
	{"create_p50_us", "us"}, {"delete_p50_us", "us"},
	{"read_p99_us", "us"}, {"append_p99_us", "us"},
	{"stored_per_user_byte", "B/B"},
	{"wamp", "B/B"},
}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []def {
	d := []def{
		{"pmem.fences_per_op", "count"}, {"pmem.flushed_lines_per_op", "count"},
		{"pmem.nt_lines_per_op", "count"}, {"pmem.read_lines_per_op", "count"},
		{"pmem.sim_us_per_op", "sim_us"},
	}
	for _, k := range kindNames {
		d = append(d, def{"pmem." + k + ".sim_us", "sim_us"}, def{"pmem." + k + ".fences", "count"},
			def{"pmem." + k + ".flushed_lines", "count"}, def{"pmem." + k + ".nt_lines", "count"})
	}
	d = append(d,
		def{"pmem.sync.sim_us_per_page", "sim_us"}, def{"pmem.sync.fences_per_page", "count"},
		def{"pmem.sync.flushed_lines_per_page", "count"},
		def{"pmem.read4k_host_ns", "ns"}, def{"pmem.ntstore4k_host_ns", "ns"},
		def{"pmem.flush_fence_host_ns", "ns"}, def{"pmem.persist_store64_host_ns", "ns"})
	for _, k := range kindNames {
		d = append(d, def{"denova." + k + ".self_us", "us"})
	}
	d = append(d,
		def{"nova.blocks_freed_per_op", "count"}, def{"nova.gc_log_pages_per_kop", "count"},
		def{"nova.relink_pages_per_relink", "count"}, def{"nova.free_blocks_end", "count"},
		def{"nova.mount_ms", "ms"}, def{"nova.mount_sim_ms", "sim_ms"},
		def{"nova.write_us", "us"}, def{"nova.read_us", "us"},
		def{"dedup.pages_per_s", "1/s"}, def{"dedup.worker_busy_share", "share"},
		def{"dedup.us_per_page", "us"}, def{"dedup.dup_share", "share"},
		def{"dedup.wasted_share", "share"}, def{"dedup.queue_peak", "count"},
		def{"dedup.linger_p50_us", "us"}, def{"dedup.linger_p99_us", "us"},
		def{"dedup.drain_ms", "ms"}, def{"dedup.process_us", "us"},
		def{"dedup.sync.self_us_per_page", "us"}, def{"dedup.savings_end", "share"},
		def{"fact.avg_walk", "count"}, def{"fact.lookups_per_page", "count"},
		def{"fact.decrefs_per_op", "count"}, def{"fact.reorders", "count"},
		def{"fact.begin_txn_us", "us"}, def{"fact.commit_batch_us", "us"}, def{"fact.decref_us", "us"})
	for _, op := range []string{"read", "write", "create", "remove", "stat", "commit"} {
		d = append(d, def{"server.exec_us." + op, "us"})
	}
	d = append(d,
		def{"server.overhead_us.read", "us"}, def{"server.overhead_us.write", "us"},
		def{"server.shed", "count"}, def{"server.admitted", "count"},
		def{"wire.enc_req_ns", "ns"}, def{"wire.dec_req_ns", "ns"},
		def{"wire.enc_resp_ns", "ns"}, def{"wire.dec_resp_ns", "ns"},
		def{"wire.req_bytes_per_op", "B"}, def{"wire.resp_bytes_per_op", "B"})
	for _, k := range kindNames {
		d = append(d, def{"client." + k + ".self_us", "us"})
	}
	d = append(d, def{"client.commit_p50_us", "us"},
		def{"rt.allocs_per_op", "count"}, def{"rt.bytes_per_op", "B"}, def{"rt.gc_cycles", "count"},
		def{"rt.gc_pause_ms", "ms"}, def{"rt.heap_peak_mb", "MiB"})
	for _, k := range kindNames {
		d = append(d, def{"lat." + k + ".tail_us", "us"}, def{"lat." + k + ".n", "count"})
	}
	return append(d, def{"lat.write.p99_us", "us"}, def{"bench.gen_share", "share"}, def{"trace.slowdown", "ratio"})
}

// integer is what the quantile helpers rank.
type integer interface{ ~int32 | ~int64 }

// quantile is the nearest-rank q-quantile of an ascending sample: the
// smallest element with at least q of the sample at or below it. An empty
// sample has quantile 0.
func quantile[T integer](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailMin is how many samples must lie beyond a reported tail value.
const tailMin = 10

// tail is the highest value of an ascending sample that still has tailMin
// samples beyond it, which is the highest percentile the sample supports.
// A sample too small to have one reports 0.
func tail[T integer](sorted []T) T {
	if len(sorted) <= tailMin {
		return 0
	}
	return sorted[len(sorted)-1-tailMin]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const usPerNs = 1e-3

// endToEnd builds what a user of the system sees.
func endToEnd(m *mainResult) map[string]float64 {
	us := func(kind workload.OpKind, q float64) float64 { return float64(quantile(m.lat[kind], q)) * usPerNs }
	dev := m.drained.dev.Sub(m.start.dev)
	before, after := m.start.fs.Dedup, m.drained.fs.Dedup
	eliminated := after.PagesDuplicate - before.PagesDuplicate
	return map[string]float64{
		"setup_s":       m.setupS,
		"ops_per_s":     m.opsPerS,
		"read_p50_us":   us(workload.OpRead, 0.50),
		"write_p50_us":  us(workload.OpWrite, 0.50),
		"append_p50_us": us(workload.OpAppend, 0.50),
		"create_p50_us": us(workload.OpCreate, 0.50),
		"delete_p50_us": us(workload.OpDelete, 0.50),
		"read_p99_us":   us(workload.OpRead, 0.99),
		"append_p99_us": us(workload.OpAppend, 0.99),
		// Pages dedup did not eliminate per user page written: 1 - savings
		// as a flow over the window, which is never 0 (unlike savings without
		// dedup) and does not hinge on which few files are live at the end.
		"stored_per_user_byte": 1 - ratio(float64(eliminated), float64(m.pages)),
		// Media bytes persisted (the final drain included) per byte the
		// measured write and append ops handed over.
		"wamp": ratio(float64(dev.PersistedLines())*64, float64(m.written)),
	}
}

// perLayer builds the per-layer numbers of one run: counters from the
// measured pass m, exact per-call costs from the serialised pass t.
func perLayer(m *mainResult, t *tracedResult, hc hostCost) map[string]float64 {
	// A layer the workload bypasses measures nothing and reports 0.
	v := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		v[d.name] = 0
	}
	ops := float64(m.ops)
	wall := m.end.at.Sub(m.start.at).Seconds()

	// pmem, measured pass: the window runs to the end of the final drain so
	// that it owns all the work its ops caused.
	dev := m.drained.dev.Sub(m.start.dev)
	v["pmem.fences_per_op"] = float64(dev.Fences) / ops
	v["pmem.flushed_lines_per_op"] = float64(dev.FlushedLines) / ops
	v["pmem.nt_lines_per_op"] = float64(dev.NTLines) / ops
	v["pmem.read_lines_per_op"] = float64(dev.ReadLines) / ops
	v["pmem.sim_us_per_op"] = float64(dev.SimLatencyNs) / ops * usPerNs

	// pmem and the caller's software time, serialised pass, per kind.
	layer := "denova."
	if t.wire {
		layer = "client."
	}
	for k, kind := range kindNames {
		d := t.perKind[k]
		n := float64(d.n)
		v["pmem."+kind+".sim_us"] = ratio(float64(d.simNs), n) * usPerNs
		v["pmem."+kind+".fences"] = ratio(float64(d.fences), n)
		v["pmem."+kind+".flushed_lines"] = ratio(float64(d.flushed), n)
		v["pmem."+kind+".nt_lines"] = ratio(float64(d.ntLines), n)
		v[layer+kind+".self_us"] = ratio(float64(d.wallNs-d.simNs), n) * usPerNs
	}
	pages := float64(t.sync.pages)
	v["pmem.sync.sim_us_per_page"] = ratio(float64(t.sync.simNs), pages) * usPerNs
	v["pmem.sync.fences_per_page"] = ratio(float64(t.sync.fences), pages)
	v["pmem.sync.flushed_lines_per_page"] = ratio(float64(t.sync.flushed), pages)
	v["dedup.sync.self_us_per_page"] = ratio(float64(t.sync.wallNs-t.sync.simNs), pages) * usPerNs
	v["pmem.read4k_host_ns"] = hc.read4k
	v["pmem.ntstore4k_host_ns"] = hc.ntStore4k
	v["pmem.flush_fence_host_ns"] = hc.flushFence
	v["pmem.persist_store64_host_ns"] = hc.persistStore64

	// Registry histograms: means over the measured phase and its drain.
	hist := func(name string) float64 { return histMean(m.start.met, m.drained.met, name) }

	a, b := m.start.fs, m.drained.fs
	v["nova.blocks_freed_per_op"] = float64(b.FS.BlocksFreed-a.FS.BlocksFreed) / ops
	v["nova.gc_log_pages_per_kop"] = float64(b.FS.GCLogPages-a.FS.GCLogPages) / ops * 1000
	v["nova.relink_pages_per_relink"] = ratio(float64(b.FS.RelinkPages-a.FS.RelinkPages), float64(b.FS.Relinks-a.FS.Relinks))
	v["nova.free_blocks_end"] = float64(b.Space.FreeBlocks)
	v["nova.mount_ms"] = m.mountWall.Seconds() * 1e3
	v["nova.mount_sim_ms"] = m.mountSim.Seconds() * 1e3
	v["nova.write_us"] = hist("nova.write")
	v["nova.read_us"] = hist("nova.read")

	// dedup: rates over the measured phase, shares over phase plus drain.
	mid := m.end.fs
	scanned := float64(b.Dedup.PagesScanned - a.Dedup.PagesScanned)
	v["dedup.pages_per_s"] = float64(mid.Dedup.PagesScanned-a.Dedup.PagesScanned) / wall
	v["dedup.worker_busy_share"] = float64(busyNs(mid)-busyNs(a)) / 1e9 / wall
	process := m.drained.met.Histograms["dedup.process"].SumNs - m.start.met.Histograms["dedup.process"].SumNs
	v["dedup.us_per_page"] = ratio(float64(process), scanned) * usPerNs
	v["dedup.dup_share"] = ratio(float64(b.Dedup.PagesDuplicate-a.Dedup.PagesDuplicate), scanned)
	wasted := float64(b.Dedup.PagesStale - a.Dedup.PagesStale + b.Dedup.EntriesSkipped - a.Dedup.EntriesSkipped)
	v["dedup.wasted_share"] = ratio(wasted, wasted+scanned)
	v["dedup.queue_peak"] = float64(b.Queue.Peak)
	v["dedup.linger_p50_us"] = float64(quantile(m.linger, 0.50)) * usPerNs
	v["dedup.linger_p99_us"] = float64(quantile(m.linger, 0.99)) * usPerNs
	v["dedup.drain_ms"] = m.drain.Seconds() * 1e3
	v["dedup.process_us"] = hist("dedup.process")
	v["dedup.savings_end"] = b.Space.Savings()

	lookups := float64(b.Fact.Lookups - a.Fact.Lookups)
	v["fact.avg_walk"] = ratio(float64(b.Fact.WalkEntries-a.Fact.WalkEntries), lookups)
	v["fact.lookups_per_page"] = ratio(lookups, scanned)
	v["fact.decrefs_per_op"] = float64(b.Fact.DecRefs-a.Fact.DecRefs) / ops
	v["fact.reorders"] = float64(b.Fact.Reorders - a.Fact.Reorders)
	v["fact.begin_txn_us"] = hist("fact.begin_txn")
	v["fact.commit_batch_us"] = hist("fact.commit_batch")
	v["fact.decref_us"] = hist("fact.decref")

	var all, rd, wr codecStat
	for _, k := range t.codec {
		all.add(k)
	}
	rd.add(t.codec[workload.OpRead])
	wr.add(t.codec[workload.OpWrite])
	wr.add(t.codec[workload.OpAppend])
	for i, name := range []string{"wire.enc_req_ns", "wire.dec_req_ns", "wire.enc_resp_ns", "wire.dec_resp_ns"} {
		v[name] = all.perOp(int64(all.ns[i]))
	}
	v["wire.req_bytes_per_op"] = all.perOp(all.reqBytes)
	v["wire.resp_bytes_per_op"] = all.perOp(all.respBytes)
	if t.wire {
		for _, op := range []string{"read", "write", "create", "remove", "stat", "commit"} {
			v["server.exec_us."+op] = hist("serve.op." + op)
		}
		// What a call costs beyond executing it and coding its frames:
		// transport, admission, queueing and scheduling on both sides.
		codecUs := func(c codecStat) float64 { return c.perOp(int64(c.ns[0]+c.ns[1]+c.ns[2]+c.ns[3])) * usPerNs }
		v["server.overhead_us.read"] = meanUs(m.lat[workload.OpRead]) - v["server.exec_us.read"] - codecUs(rd)
		v["server.overhead_us.write"] = meanUs(m.lat[workload.OpWrite], m.lat[workload.OpAppend]) - v["server.exec_us.write"] - codecUs(wr)
		counter := func(name string) float64 {
			return float64(m.drained.met.Counters[name] - m.start.met.Counters[name])
		}
		v["server.shed"] = counter("serve.shed")
		v["server.admitted"] = counter("serve.admitted")
	}
	v["client.commit_p50_us"] = float64(quantile(m.lat[kindCommit], 0.50)) * usPerNs

	mem0, mem1 := &m.start.mem, &m.end.mem
	v["rt.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / ops
	v["rt.bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / ops
	v["rt.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	v["rt.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	v["rt.heap_peak_mb"] = float64(m.liveHeap) / (1 << 20)

	for k, kind := range kindNames {
		v["lat."+kind+".tail_us"] = float64(tail(m.lat[k])) * usPerNs
		v["lat."+kind+".n"] = float64(len(m.lat[k]))
	}
	// Too few writes on ingest-staged (15 beyond the p99) for this to repeat
	// within a tenth, so it is reported here and not gated end to end.
	v["lat.write.p99_us"] = float64(quantile(m.lat[workload.OpWrite], 0.99)) * usPerNs
	v["bench.gen_share"] = 1 - m.timedSum.Seconds()/(m.wall.Seconds()*float64(m.spec.clients))
	v["trace.slowdown"] = ratio(m.opsPerS, float64(t.ops)/t.callSum.Seconds())

	return v
}

func meanUs(samples ...[]int32) float64 {
	var sum, n float64
	for _, s := range samples {
		for _, x := range s {
			sum += float64(x)
		}
		n += float64(len(s))
	}
	return ratio(sum, n) * usPerNs
}

// named pairs values with the units of their definitions, checking that
// exactly the defined names are present.
func named(defs []def, v map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{x, d.unit}
	}
	if len(v) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(v), len(defs))
	}
	return out, nil
}
