package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"denova"
	"denova/internal/pmem"
	"denova/internal/workload"
)

var fastOpts = WriteOptions{Profile: pmem.ProfileZero}

func TestRunWriteBaseline(t *testing.T) {
	res, fs, err := RunWrite(FSConfig{Mode: denova.ModeNone}, workload.Small(50, 0.5), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fs != nil {
		t.Fatal("KeepFS=false returned an FS")
	}
	if res.MBps() <= 0 || res.Files != 50 {
		t.Fatalf("result = %+v", res)
	}
	if res.Savings != 0 {
		t.Fatal("baseline produced savings")
	}
}

func TestRunWriteImmediateSavings(t *testing.T) {
	res, _, err := RunWrite(FSConfig{Mode: denova.ModeImmediate}, workload.Small(200, 0.75), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings < 0.4 {
		t.Fatalf("savings = %v, expected substantial dedup at 75%% ratio", res.Savings)
	}
}

func TestRunWriteMultithreaded(t *testing.T) {
	opts := fastOpts
	opts.Threads = 4
	res, _, err := RunWrite(FSConfig{Mode: denova.ModeImmediate}, workload.Small(60, 0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 4 || res.Files != 60 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunWriteInline(t *testing.T) {
	res, _, err := RunWrite(FSConfig{Mode: denova.ModeInline}, workload.Large(10, 0.5), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings <= 0 {
		t.Fatal("inline mode produced no savings")
	}
	if res.DrainTime > 50*time.Millisecond {
		t.Fatalf("inline mode should have nothing to drain: %v", res.DrainTime)
	}
}

func TestRunOverwrite(t *testing.T) {
	w, o, err := RunOverwrite(FSConfig{Mode: denova.ModeImmediate}, workload.Small(40, 0.5), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if w.MBps() <= 0 || o.MBps() <= 0 {
		t.Fatalf("write=%v overwrite=%v", w.MBps(), o.MBps())
	}
	if !strings.Contains(o.Workload, "overwrite") {
		t.Fatalf("overwrite label: %q", o.Workload)
	}
}

func TestRunReadBothScenarios(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		res, err := RunRead(FSConfig{Mode: denova.ModeImmediate}, 4<<20, mixed, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bytes != 4<<20 || res.MBps() <= 0 {
			t.Fatalf("mixed=%v: %+v", mixed, res)
		}
	}
}

func TestRunLingerRecordsAllNodes(t *testing.T) {
	cfg := FSConfig{Mode: denova.ModeDelayed, N: 5 * time.Millisecond, M: 1000}
	res, err := RunLinger(cfg, workload.Small(30, 0.5), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CDF.Len() != 30 {
		t.Fatalf("recorded %d lingers, want 30", res.CDF.Len())
	}
	if res.CDF.Quantile(0.5) <= 0 {
		t.Fatal("median linger is zero")
	}
	if res.CDF.Quantile(0.1) > res.CDF.Quantile(0.9) {
		t.Fatal("quantiles not monotone")
	}
}

func TestCDFBasics(t *testing.T) {
	c := &CDF{}
	if c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF quantile nonzero")
	}
	for i := 1; i <= 100; i++ {
		c.Add(time.Duration(i) * time.Millisecond)
	}
	if got := c.Quantile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := c.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	med := c.Quantile(0.5)
	if med < 45*time.Millisecond || med > 55*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	xs, ys := c.Series(10)
	if len(xs) != 10 || ys[9] != 1.0 {
		t.Fatalf("series: %v %v", xs, ys)
	}
}

func TestMeasureTfTwShape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock fingerprint-cost comparison is meaningless under race instrumentation")
	}
	// The hash times are wall clock over a few hundred microseconds, so one
	// preemption under a parallel `go test ./...` can invert a comparison.
	// A measurement that fails is repeated, up to three in all; the shape
	// must hold in one of them, at the thresholds it always had.
	var failures []string
	for attempt := 0; attempt < 3; attempt++ {
		rows := MeasureTfTw([]int{4096, 65536}, 20, pmem.ProfileOptane)
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		failures = failures[:0]
		for _, r := range rows {
			// The paper's central claim: T_f exceeds T_w at every size (Eq. 1).
			if r.Tf <= r.Tw {
				failures = append(failures, fmt.Sprintf("size %d: T_f (%v) <= T_w (%v); Eq. 1 violated", r.WriteSize, r.Tf, r.Tw))
			}
			if r.TfShare() <= 0.5 {
				failures = append(failures, fmt.Sprintf("size %d: T_f share %.2f <= 0.5", r.WriteSize, r.TfShare()))
			}
			// The weak fingerprint must be far cheaper than the strong one.
			if r.Tfw >= r.Tf {
				failures = append(failures, fmt.Sprintf("size %d: weak FP (%v) not cheaper than strong (%v)", r.WriteSize, r.Tfw, r.Tf))
			}
		}
		if len(failures) == 0 {
			return
		}
		t.Logf("attempt %d: %v", attempt+1, failures)
	}
	for _, f := range failures {
		t.Error(f)
	}
}

func TestMeasureLatencyBreakdown(t *testing.T) {
	row, err := MeasureLatencyBreakdown(4096, 40, pmem.ProfileOptane)
	if err != nil {
		t.Fatal(err)
	}
	if row.WriteLatency <= 0 || row.FPTime <= 0 {
		t.Fatalf("row = %+v", row)
	}
	// Table IV shape: dedup latency is a multiple of write latency.
	if row.DedupeLatency() < row.WriteLatency {
		t.Errorf("dedupe latency %v < write latency %v", row.DedupeLatency(), row.WriteLatency)
	}
}

func TestValidateModel(t *testing.T) {
	rows := ValidateModel([]float64{0, 0.25, 0.5, 0.75, 0.99}, 50, pmem.ProfileOptane)
	for _, r := range rows {
		if !r.Eq3Holds() {
			t.Errorf("alpha %.2f: Eq. 3 does not hold (LHS=%v RHS=%v)", r.Alpha, r.LHS, r.RHS)
		}
		if !r.Eq5Holds() {
			t.Errorf("alpha %.2f: Eq. 5 does not hold", r.Alpha)
		}
	}
}

func TestMeasureDeviceProfiles(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock profile-ordering comparison is timing-sensitive; skipped under -race")
	}
	rows := MeasureDeviceProfiles(50)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]DeviceProfileRow{}
	for _, r := range rows {
		byName[r.Profile.Name] = r
	}
	// Table I ordering: Optane reads slower than DRAM; Optane persists
	// cheaper than PCM.
	if byName["optane-dcpm"].MeasuredRead <= byName["dram"].MeasuredRead {
		t.Error("Optane read not slower than DRAM")
	}
	if byName["optane-dcpm"].MeasuredWrite >= byName["pcm"].MeasuredWrite {
		t.Error("Optane persist not cheaper than PCM")
	}
}

func TestReorderAblation(t *testing.T) {
	res, err := RunReorderAblation(150)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReordersOn == 0 {
		t.Skip("workload produced no reorders (chains too short); acceptable at this scale")
	}
	if res.AvgWalkOn > res.AvgWalkOff {
		t.Errorf("reordering made walks longer: on=%.2f off=%.2f", res.AvgWalkOn, res.AvgWalkOff)
	}
}

func TestDeletePointerAblation(t *testing.T) {
	res, err := RunDeletePointerAblation(200, pmem.ProfileOptane)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim, measured on the real reclaim path: two NVM reads
	// (delete pointer, entry) — one more only for the few entries a prefix
	// collision pushed into the IAA — and one flushed line per decrement;
	// removing a DAA entry flushes its line and the delete pointer.
	if res.DecRefReads < 2 || res.DecRefReads > 2.1 || res.DecRefFlushed != 1 {
		t.Errorf("decrement: %.2f reads, %.2f flushed lines; want 2 (+IAA peeks) and 1", res.DecRefReads, res.DecRefFlushed)
	}
	if res.RemoveReads < 2 || res.RemoveReads > 2.1 || res.RemoveFlushed < 2 || res.RemoveFlushed > 2.1 {
		t.Errorf("last reference: %.2f reads, %.2f flushed lines; want 2 and 2 (+IAA unlinks)", res.RemoveReads, res.RemoveFlushed)
	}
	if res.ViaDeletePtr >= res.ViaReFingerprt {
		t.Errorf("delete pointer (%v) not faster than re-fingerprinting (%v)", res.ViaDeletePtr, res.ViaReFingerprt)
	}
}

func TestEntrySizeAblation(t *testing.T) {
	res, err := RunEntrySizeAblation(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlushesPerTxn128B <= res.FlushesPerTxn64B {
		t.Error("2-line entries should cost more flushes")
	}
}

func TestFormatters(t *testing.T) {
	// Smoke-test every formatter renders a header and at least one row.
	t1 := FormatTable1(MeasureDeviceProfiles(5))
	if !strings.Contains(t1, "optane-dcpm") {
		t.Error("Table 1 missing row")
	}
	f2 := FormatFig2(MeasureTfTw([]int{4096}, 3, pmem.ProfileOptane))
	if !strings.Contains(f2, "4K") {
		t.Error("Fig 2 missing row")
	}
	res, _, _ := RunWrite(FSConfig{Mode: denova.ModeNone}, workload.Small(5, 0), fastOpts)
	wr := FormatWriteResults("Fig. 8", []WriteResult{res})
	if !strings.Contains(wr, "Baseline NOVA") {
		t.Error("write results missing model")
	}
	mv := FormatModel(ValidateModel([]float64{0.5}, 3, pmem.ProfileOptane))
	if !strings.Contains(mv, "0.50") {
		t.Error("model table missing alpha")
	}
}

func TestFSConfigLabels(t *testing.T) {
	cases := map[string]FSConfig{
		"Baseline NOVA":             {Mode: denova.ModeNone},
		"DeNOVA-Inline":             {Mode: denova.ModeInline},
		"DeNOVA-Immediate":          {Mode: denova.ModeImmediate},
		"DeNOVA-Delayed(750,20000)": {Mode: denova.ModeDelayed, N: 750 * time.Millisecond, M: 20000},
	}
	for want, cfg := range cases {
		if got := cfg.Label(); got != want {
			t.Errorf("Label() = %q, want %q", got, want)
		}
	}
}

func TestMeasureWearShape(t *testing.T) {
	spec := workload.Small(300, 0.5)
	base, err := MeasureWear(FSConfig{Mode: denova.ModeNone}, spec, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := MeasureWear(FSConfig{Mode: denova.ModeInline}, spec, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := MeasureWear(FSConfig{Mode: denova.ModeImmediate}, spec, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// §II: inline cuts media wear by roughly the duplicate ratio; offline
	// does not (it writes duplicates first and reclaims them later).
	if inline.Amplification() >= base.Amplification()*0.8 {
		t.Errorf("inline wear %.3f not clearly below baseline %.3f", inline.Amplification(), base.Amplification())
	}
	if offline.Amplification() < base.Amplification() {
		t.Errorf("offline wear %.3f below baseline %.3f; it cannot save media writes", offline.Amplification(), base.Amplification())
	}
	if offline.Amplification() > base.Amplification()*1.3 {
		t.Errorf("offline wear %.3f too far above baseline %.3f (metadata should be the only extra)", offline.Amplification(), base.Amplification())
	}
}
