// Command denova-bench regenerates every table and figure of the DeNOVA
// paper's evaluation (§V) on the simulated persistent-memory device.
//
// Usage:
//
//	denova-bench [flags] <artifact>
//
// Artifacts: table1, fig2, table4, fig8, fig9, fig10, fig11, fig12, model,
// ablations, space, overhead, wear; "all" runs every one in that order.
// With -csvdir the figures also emit their data series as CSV files for
// plotting.
//
// The -scale flag shrinks or grows the workload sizes (1.0 means the
// default sizes below; the paper's full 1,000,000-file runs correspond to
// roughly -scale 300 and hours of wall-clock).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"denova"
	"denova/internal/harness"
	"denova/internal/pmem"
	"denova/internal/workload"
)

var (
	scale     = flag.Float64("scale", 1.0, "workload size multiplier")
	threads   = flag.Int("threads", 1, "writer threads for fig8/space")
	profile   = flag.String("profile", "optane-dcpm", "device profile: optane-dcpm, dram, pcm, stt-ram, zero")
	thinkTime = flag.Bool("think", true, "interleave think time equal to I/O time (paper §V-B1)")
	reps      = flag.Int("reps", 3, "interleaved measurement rounds per figure cell (median reported)")
)

// artifacts lists every table and figure in the order "all" runs them.
var artifacts = []struct {
	name string
	run  func() error
}{
	{"table1", table1},
	{"fig2", fig2},
	{"table4", table4},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"model", model},
	{"ablations", ablations},
	{"space", space},
	{"overhead", overhead},
	{"wear", wear},
}

// cell is one figure data point; sweeps measure all cells per round so that
// process-lifetime drift (GC heap growth, CPU boost) spreads evenly instead
// of biasing whichever model runs last.
type cell struct {
	cfg  harness.FSConfig
	spec workload.Spec
	opts harness.WriteOptions
}

func sweep(cells []cell) ([]harness.WriteResult, error) {
	// Warmup: one small untimed run to settle the heap.
	warm := workload.Small(200, 0.5)
	if _, _, err := harness.RunWrite(harness.FSConfig{Mode: denova.ModeImmediate}, warm,
		harness.WriteOptions{Profile: prof()}); err != nil {
		return nil, err
	}
	samples := make([][]harness.WriteResult, len(cells))
	for r := 0; r < *reps; r++ {
		for i, c := range cells {
			res, _, err := harness.RunWrite(c.cfg, c.spec, c.opts)
			if err != nil {
				return nil, err
			}
			samples[i] = append(samples[i], res)
		}
	}
	out := make([]harness.WriteResult, len(cells))
	for i := range cells {
		out[i] = harness.MedianBy(samples[i], harness.WriteResult.MBps)
	}
	return out, nil
}

func prof() pmem.LatencyProfile {
	switch *profile {
	case "optane-dcpm":
		return pmem.ProfileOptane
	case "dram":
		return pmem.ProfileDRAM
	case "pcm":
		return pmem.ProfilePCM
	case "stt-ram":
		return pmem.ProfileSTTRAM
	case "zero":
		return pmem.ProfileZero
	}
	fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
	os.Exit(2)
	return pmem.LatencyProfile{}
}

func n(base int) int {
	v := int(float64(base) * *scale)
	if v < 4 {
		v = 4
	}
	return v
}

func main() {
	flag.Parse()
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: denova-bench [flags] <%s|all>\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	ran := false
	for _, a := range artifacts {
		if flag.Arg(0) != "all" && flag.Arg(0) != a.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := a.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", a.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown artifact %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

func table1() error {
	fmt.Print(harness.FormatTable1(harness.MeasureDeviceProfiles(2000)))
	return nil
}

func fig2() error {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	rows := harness.MeasureTfTw(sizes, n(200), prof())
	fmt.Print(harness.FormatFig2(rows))
	return csvTfTw("fig2", rows)
}

func table4() error {
	var rows []harness.LatencyBreakdown
	for _, size := range []int{4 << 10, 128 << 10} {
		row, err := harness.MeasureLatencyBreakdown(size, n(300), prof())
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Print(harness.FormatTable4(rows))
	return nil
}

func writeOpts() harness.WriteOptions {
	return harness.WriteOptions{Threads: *threads, ThinkTime: *thinkTime, Profile: prof()}
}

func fig8() error {
	var cells []cell
	for _, cfg := range harness.StandardModels() {
		for _, ratio := range []float64{0, 0.25, 0.5, 0.75} {
			for _, spec := range []workload.Spec{workload.Small(n(3000), ratio), workload.Large(n(200), ratio)} {
				cells = append(cells, cell{cfg: cfg, spec: spec, opts: writeOpts()})
			}
		}
	}
	rows, err := sweep(cells)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatWriteResults("Fig. 8 — write throughput vs duplicate ratio", rows))
	return csvWriteResults("fig8", rows)
}

func fig9() error {
	var cells []cell
	for _, cfg := range harness.StandardModels() {
		for _, th := range []int{1, 2, 4, 8, 16} {
			for _, spec := range []workload.Spec{workload.Small(n(3000), 0.5), workload.Large(n(200), 0.5)} {
				opts := writeOpts()
				opts.Threads = th
				cells = append(cells, cell{cfg: cfg, spec: spec, opts: opts})
			}
		}
	}
	rows, err := sweep(cells)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatWriteResults("Fig. 9 — write throughput vs thread count (dup ratio 50%)", rows))
	return csvWriteResults("fig9", rows)
}

func fig10() error {
	spec := workload.Small(n(2500), 0.5)
	configs := []harness.FSConfig{
		{Mode: denova.ModeImmediate},
		{Mode: denova.ModeDelayed, N: 50 * time.Millisecond, M: 400},
		{Mode: denova.ModeDelayed, N: 150 * time.Millisecond, M: 1200},
		{Mode: denova.ModeDelayed, N: 250 * time.Millisecond, M: 2000},
	}
	var rows []harness.LingerResult
	for _, cfg := range configs {
		res, err := harness.RunLinger(cfg, spec, writeOpts())
		if err != nil {
			return err
		}
		rows = append(rows, res)
	}
	fmt.Print(harness.FormatLinger(rows))
	return csvLinger("fig10", rows)
}

func fig11() error {
	type cellKey struct {
		mode denova.Mode
		wl   string
	}
	specs := []workload.Spec{workload.Small(n(2000), 0.5), workload.Large(n(150), 0.5)}
	modes := []denova.Mode{denova.ModeNone, denova.ModeImmediate}
	writes := map[cellKey][]harness.WriteResult{}
	overs := map[cellKey][]harness.WriteResult{}
	for r := 0; r < *reps; r++ {
		for _, spec := range specs {
			for _, m := range modes {
				w, o, err := harness.RunOverwrite(harness.FSConfig{Mode: m}, spec, writeOpts())
				if err != nil {
					return err
				}
				k := cellKey{m, spec.Name}
				writes[k] = append(writes[k], w)
				overs[k] = append(overs[k], o)
			}
		}
	}
	var rows []harness.NormalizedRow
	for _, spec := range specs {
		base := harness.MedianBy(writes[cellKey{denova.ModeNone, spec.Name}], harness.WriteResult.MBps).MBps()
		for _, m := range modes {
			k := cellKey{m, spec.Name}
			rows = append(rows, harness.NormalizedRow{
				Model:     harness.FSConfig{Mode: m}.Label(),
				Workload:  spec.Name,
				Write:     harness.MedianBy(writes[k], harness.WriteResult.MBps).MBps(),
				Overwrite: harness.MedianBy(overs[k], harness.WriteResult.MBps).MBps(),
				Baseline:  base,
			})
		}
	}
	fmt.Print(harness.FormatNormalized(rows))
	return nil
}

func fig12() error {
	fileBytes := int64(n(64)) << 20 // default 64 MB twins (paper: 4 GB)
	type cellKey struct {
		mode  denova.Mode
		mixed bool
	}
	samples := map[cellKey][]harness.ReadResult{}
	for r := 0; r < *reps; r++ {
		for _, m := range []denova.Mode{denova.ModeNone, denova.ModeImmediate} {
			for _, mixed := range []bool{false, true} {
				res, err := harness.RunRead(harness.FSConfig{Mode: m}, fileBytes, mixed, writeOpts())
				if err != nil {
					return err
				}
				k := cellKey{m, mixed}
				samples[k] = append(samples[k], res)
			}
		}
	}
	var rows []harness.ReadResult
	for _, m := range []denova.Mode{denova.ModeNone, denova.ModeImmediate} {
		for _, mixed := range []bool{false, true} {
			rows = append(rows, harness.MedianBy(samples[cellKey{m, mixed}], harness.ReadResult.MBps))
		}
	}
	fmt.Print(harness.FormatReads(rows))
	return csvReads("fig12", rows)
}

func model() error {
	fmt.Print(harness.FormatModel(harness.ValidateModel([]float64{0, 0.25, 0.5, 0.75, 0.9, 0.99}, n(500), prof())))
	return nil
}

func ablations() error {
	re, err := harness.RunReorderAblation(n(2000))
	if err != nil {
		return err
	}
	dp, err := harness.RunDeletePointerAblation(n(2000), prof())
	if err != nil {
		return err
	}
	es, err := harness.RunEntrySizeAblation(n(1000))
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatAblations(re, dp, es))
	return nil
}

// overhead reproduces the §III metadata-cost comparison.
func overhead() error {
	var rows []harness.OverheadReport
	for _, cfg := range harness.StandardOverheadPolicies() {
		rep, err := harness.MeasureOverhead(cfg, workload.Small(n(2500), 0.5), writeOpts())
		if err != nil {
			return err
		}
		rows = append(rows, rep)
	}
	fmt.Print(harness.FormatOverheads(rows))
	return nil
}

// wear reproduces the §II endurance trade-off.
func wear() error {
	var rows []harness.WearResult
	for _, cfg := range []harness.FSConfig{
		{Mode: denova.ModeNone},
		{Mode: denova.ModeInline},
		{Mode: denova.ModeImmediate},
	} {
		for _, ratio := range []float64{0, 0.5} {
			res, err := harness.MeasureWear(cfg, workload.Small(n(2000), ratio), writeOpts())
			if err != nil {
				return err
			}
			rows = append(rows, res)
		}
	}
	fmt.Print(harness.FormatWear(rows))
	return nil
}

// space reports the storage-savings headline across duplicate ratios.
func space() error {
	var rows []harness.WriteResult
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		res, _, err := harness.RunWrite(harness.FSConfig{Mode: denova.ModeImmediate}, workload.Small(n(3000), ratio), writeOpts())
		if err != nil {
			return err
		}
		rows = append(rows, res)
	}
	fmt.Print(harness.FormatWriteResults("Storage space savings vs duplicate ratio (DeNOVA-Immediate)", rows))
	return nil
}
