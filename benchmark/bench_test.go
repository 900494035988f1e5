package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"denova/internal/workload"
)

// quickOpts is a run small enough for a unit test: 64 MiB devices, 1/20 of
// the fixed op counts, a fraction of a second measured.
var quickOpts = options{seed: 1, seconds: 0.25, quick: true, setups: 1}

func TestQuantileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 11, 12, 99, 100, 101, 1000} {
		s := make([]int32, n)
		for i := range s {
			s[i] = rng.Int31n(1000)
		}
		slices.Sort(s)
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			got := quantile(s, q)
			// Oracle: the smallest element with at least q*n of the sample
			// at or below it, found by counting.
			want := s[n-1]
			for _, x := range s {
				atOrBelow := 0
				for _, y := range s {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got != want {
				t.Errorf("n=%d q=%g: quantile %d, oracle %d", n, q, got, want)
			}
		}
		got := tail(s)
		if n <= tailMin {
			if got != 0 {
				t.Errorf("n=%d: tail %d of a sample too small to have one", n, got)
			}
			continue
		}
		desc := slices.Clone(s)
		slices.Reverse(desc)
		if got != desc[tailMin] {
			t.Errorf("n=%d: tail %d, but %d is the value with %d samples beyond it", n, got, desc[tailMin], tailMin)
		}
	}
	if quantile([]int64(nil), 0.5) != 0 {
		t.Error("empty sample must have quantile 0")
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// root(100) -> gen(10), call(70) -> sim(45), verify(20); root(8) alone.
	spans := []span{
		{0, -1, nameOp, 0, 100},
		{0, 0, nameGen, 0, 10},
		{0, 0, nameCall, 10, 70},
		{0, 2, nameSim, 10, 45},
		{0, 0, nameVerify, 80, 20},
		{1, -1, nameSync, 100, 8},
	}
	self := selfTimes(spans)
	if want := []int64{0, 10, 25, 45, 20, 8}; !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	var first int64
	for i, s := range spans {
		if s.trace == 0 {
			first += self[i]
		}
	}
	if first != spans[0].dur {
		t.Errorf("self times of trace 0 sum to %d, its root lasts %d", first, spans[0].dur)
	}
}

// memTarget is a file system that does nothing but remember, so that the
// replay loop can be measured on its own.
type memTarget struct {
	data [][]byte
	size []int64
}

func newMemTarget(keys, maxSize int) *memTarget {
	m := &memTarget{data: make([][]byte, keys), size: make([]int64, keys)}
	for i := range m.data {
		m.data[i] = make([]byte, maxSize)
	}
	return m
}

func (m *memTarget) create(key int) error { m.size[key] = 0; return nil }
func (m *memTarget) write(key int, off int64, p []byte) error {
	copy(m.data[key][off:], p)
	m.size[key] = max(m.size[key], off+int64(len(p)))
	return nil
}
func (m *memTarget) read(key int, off int64, buf []byte) ([]byte, error) {
	return buf[:copy(buf, m.data[key][off:m.size[key]])], nil
}
func (m *memTarget) stat(key int) (int64, error)        { return m.size[key], nil }
func (m *memTarget) truncate(key int, size int64) error { m.size[key] = size; return nil }
func (m *memTarget) remove(key int) error               { return nil }
func (m *memTarget) sync() error                        { return nil }

func TestReplayLoopDoesNotAllocate(t *testing.T) {
	s, err := findSpec("webproxy-wire")
	if err != nil {
		t.Fatal(err)
	}
	prof := s.seeded(1)
	r := newReplayer(s, prof, 0, 1, newMemTarget(s.keys(), s.maxFileBytes()),
		newContent(prof), newOracle(s.keys(), s.maxFileBytes()))
	// The trace generator queues follow-up ops in a slice of its own; take
	// the ops from it beforehand so that only the loop is measured.
	ops := make([]workload.Op, 20_000)
	for i := range ops {
		ops[i] = r.next()
	}
	log := newLatLog(len(ops))
	i := 0
	allocs := testing.AllocsPerRun(len(ops)-1, func() {
		log.add(uint8(ops[i].Kind), r.do(ops[i]))
		i++
	})
	if allocs != 0 {
		t.Errorf("replay loop allocates %g times per op", allocs)
	}
	if r.failed != 0 {
		t.Errorf("%d ops failed against the in-memory target: %v", r.failed, r.firstErr)
	}
}

// TestQuickAllWorkloads runs every workload end to end at quick size with
// every check on: both passes, the crash image, fsck, the span file, and
// the full metric sets.
func TestQuickAllWorkloads(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			r, res, err := runWorkload(s, quickOpts, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("failed %d of %d: %v", r.Failed, r.Attempted, r.Notes)
			}
			if len(res.Metrics) != len(perLayerDefs) || len(r.EndToEnd) != len(endToEndDefs) {
				t.Errorf("%d per-layer and %d end-to-end metrics", len(res.Metrics), len(r.EndToEnd))
			}
			for name, x := range r.EndToEnd {
				if x <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", name, x)
				}
			}
			if over := r.PerLayer["server.overhead_us.read"]; over < 0 {
				t.Errorf("server.overhead_us.read is negative: %g", over)
			}
			if _, err := os.Stat(filepath.Join(dir, "spans_"+s.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTracedPassRepeatsExactly(t *testing.T) {
	s, err := findSpec("fileserver-nodedup")
	if err != nil {
		t.Fatal(err)
	}
	var passes [2]*tracedResult
	for i := range passes {
		if passes[i], err = tracedPass(s, quickOpts); err != nil {
			t.Fatal(err)
		}
		if passes[i].failed != 0 {
			t.Fatalf("pass %d: %v", i, passes[i].errs)
		}
		if passes[i].coverage < 0.98 || passes[i].simOver != 0 {
			t.Errorf("pass %d: children cover %.3f of the least covered root, %d pmem.sim spans exceed their call",
				i, passes[i].coverage, passes[i].simOver)
		}
	}
	// Wall times differ; everything the device counted or modelled must not.
	exact := func(d devDelta) devDelta { d.wallNs = 0; return d }
	for k, kind := range kindNames {
		if a, b := exact(passes[0].perKind[k]), exact(passes[1].perKind[k]); a != b {
			t.Errorf("%s: %+v then %+v", kind, a, b)
		}
	}
	if a, b := exact(passes[0].sync), exact(passes[1].sync); a != b {
		t.Errorf("sync: %+v then %+v", a, b)
	}
}

// faulty corrupts what passes through it: the flipAt-th read comes back with
// one bit flipped, the dropAt-th write is acknowledged but never made.
type faulty struct {
	target
	flipAt, dropAt int
	reads, writes  int
}

func (f *faulty) read(key int, off int64, buf []byte) ([]byte, error) {
	got, err := f.target.read(key, off, buf)
	if f.reads++; f.reads == f.flipAt && len(got) > 0 {
		got[0] ^= 1
	}
	return got, err
}

func (f *faulty) write(key int, off int64, p []byte) error {
	if f.writes++; f.writes == f.dropAt {
		return nil
	}
	return f.target.write(key, off, p)
}

// TestOracleBites proves that the checks can fail: one flipped byte in one
// read, or one dropped write, must show up as failures and as an incorrect
// run, which is what makes the command exit non-zero.
func TestOracleBites(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		fault          faulty
	}{
		{"flipped read", "fileserver", faulty{flipAt: 500}},
		// Every ingest write is read back by the next op, so the drop is
		// seen at once, and again by the read-backs: the hole it leaves
		// stays until the file rotates.
		{"dropped write", "ingest-staged", faulty{dropAt: 700}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := findSpec(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			o := quickOpts
			o.wrap = func(tgt target) target {
				f := tc.fault
				f.target = tgt
				return &f
			}
			r, _, err := runWorkload(s, o, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed == 0 || r.Correct {
				t.Fatalf("fault went unnoticed: failed=%d correct=%v", r.Failed, r.Correct)
			}
			if share := float64(r.Failed) / float64(r.Attempted); share <= 0 {
				t.Errorf("fail share %g", share)
			}
			t.Logf("failed %d of %d: %s", r.Failed, r.Attempted, r.Notes[len(r.Notes)-1])
		})
	}
}

func TestWorkloadDriftIsAnError(t *testing.T) {
	for i := range specs {
		if checked, err := specs[i].checkDigest(1); err != nil || !checked {
			t.Errorf("%s: checked=%v err=%v", specs[i].name, checked, err)
		}
	}
	s := specs[0]
	s.profile.Mix.Read++
	if _, err := s.checkDigest(1); err == nil || !strings.Contains(err.Error(), "workload drifted") {
		t.Errorf("a perturbed profile passed the digest check: %v", err)
	}
	if checked, err := s.checkDigest(2); checked || err != nil {
		t.Errorf("seed 2 has no pin: checked=%v err=%v", checked, err)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the program's own metric
// and workload lists identical.
func TestBenchmarkJSONInStep(t *testing.T) {
	bs, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bs.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	var e2e, layer []def
	for _, m := range bs.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bs.PerLayer {
		layer = append(layer, def{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndDefs) {
		t.Errorf("end_to_end is %v, program reports %v", e2e, endToEndDefs)
	}
	if !slices.Equal(layer, perLayerDefs) {
		t.Errorf("per_layer differs from the program's list (%d vs %d names)", len(layer), len(perLayerDefs))
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(layer))
	}
}

func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %g %g %g, Python gives 3.5 13.5 31.0", q1, q2, q3)
	}
	for _, tc := range []struct {
		a, b   side
		higher bool
		want   string
	}{
		{side{100, 0.01, 10}, side{103, 0.01, 10}, false, "unchanged"},
		{side{100, 0.01, 10}, side{107, 0.01, 10}, false, "worse"},
		{side{100, 0.01, 10}, side{93, 0.01, 10}, false, "better"},
		{side{100, 0.01, 10}, side{93, 0.01, 10}, true, "worse"},
		{side{100, 0.08, 10}, side{103, 0.01, 10}, false, "unresolved"},
		{side{100, 0.01, 10}, side{}, false, "missing"},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, 0.05); got != tc.want {
			t.Errorf("%+v vs %+v: %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}

	base := report{Runs: []run{{Workload: "fileserver", Attempted: 100, EndToEnd: map[string]float64{"ops_per_s": 100}}}}
	slow := report{Runs: []run{{Workload: "fileserver", Attempted: 100, EndToEnd: map[string]float64{"ops_per_s": 80}}}}
	flaky := report{Runs: []run{{Workload: "fileserver", Attempted: 100, Failed: 1, EndToEnd: map[string]float64{"ops_per_s": 100}}}}
	var bs benchSpec
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"fileserver"}],
		"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.06}]}`), &bs); err != nil {
		t.Fatal(err)
	}
	null := io.Discard
	if bad := compareReports(null, bs, base, base); bad != 0 {
		t.Errorf("a report against itself: %d rows worse", bad)
	}
	if bad := compareReports(null, bs, base, slow); bad != 1 {
		t.Errorf("20%% slower: %d rows worse, want 1", bad)
	}
	if bad := compareReports(null, bs, base, flaky); bad != 1 {
		t.Errorf("a rise in fail share: %d rows worse, want 1", bad)
	}
}
