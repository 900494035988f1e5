// Command benchmark is the repository's performance benchmark: five
// long-running workloads replayed against denova through its public
// functions, reporting end-to-end metrics from a measured pass with tracing
// off and per-layer metrics from that pass's counters plus a serialised,
// traced pass. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run -C benchmark . -workload fileserver -seed 1 -seconds 10 -trace 0
//	go run -C benchmark . compare baseline/ref-a.json baseline/ref-b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// run is one workload run as the report file keeps it.
type run struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// host describes where a report was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	OSArch     string `json:"os_arch"`
}

// report is the file -out accumulates: every run appends itself.
type report struct {
	Host host  `json:"host"`
	Runs []run `json:"runs"`
}

func thisHost() host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	return host{runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0), gogc, runtime.GOOS + "/" + runtime.GOARCH}
}

// result is the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed, added to each profile's own")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, with the serialised traced pass")
	out := flag.String("out", "out", "directory for report.json and the span files")
	quick := flag.Bool("quick", false, "small devices and short fixed phases (tests)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	todo := specs
	if *workloadName != "all" {
		s, err := findSpec(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		todo = []spec{*s}
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, setups: 3}
	ok := true
	for i := range todo {
		r, res, err := runWorkload(&todo[i], o, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if err := appendReport(*out, r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printRun(r, res)
		ok = ok && r.Correct
		// One workload's garbage must not be the next one's GC load.
		debug.FreeOSMemory()
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload: the measured pass, and with traced also
// the serialised pass and the simulator's host-cost probe. The traced
// variant halves the measured phase so that both kinds of run take about
// as long.
func runWorkload(s *spec, o options, traced bool, outDir string) (run, result, error) {
	r := run{Workload: s.name, Seed: o.seed, Seconds: o.seconds}
	mo := o
	if traced {
		r.Trace = 1
		mo.seconds /= 2
		mo.setups = 1
	}
	m, err := mainPass(s, mo)
	if err != nil {
		return r, result{}, err
	}
	if !m.digestChecked {
		r.Notes = append(r.Notes, "trace digest not checked: only -seed 1 is pinned")
	}
	r.Attempted, r.Failed = m.attempted, m.failed
	errs := m.errs
	r.EndToEnd = endToEnd(m)
	defs, shown := endToEndDefs, r.EndToEnd
	if traced {
		r.Notes = append(r.Notes, "end_to_end comes from a half-length measured phase")
		t, err := tracedPass(s, o)
		if err != nil {
			return r, result{}, err
		}
		r.Attempted += t.attempted
		r.Failed += t.failed
		errs = append(errs, t.errs...)
		if t.simOver > 0 {
			r.Failed += t.simOver
			errs = append(errs, fmt.Errorf("%d pmem.sim spans exceed their call span", t.simOver))
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return r, result{}, err
		}
		if err := writeSpans(outDir, s, o, t); err != nil {
			return r, result{}, err
		}
		r.PerLayer = perLayer(m, t, measureHostCost(int(10_000*o.seconds)))
		defs, shown = perLayerDefs, r.PerLayer
	}
	for _, err := range errs {
		r.Notes = append(r.Notes, "FAILED: "+err.Error())
	}
	r.Correct = r.Failed == 0
	metrics, err := named(defs, shown)
	if err != nil {
		return r, result{}, err
	}
	return r, result{r.Correct, r.Attempted, r.Failed, metrics}, nil
}

// printRun prints every metric by name with its unit, then the result line.
func printRun(r run, res result) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("%-36s %16.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats and strings always encodes
	}
	fmt.Println(string(line))
}

func loadReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// appendReport adds one run to <dir>/report.json.
func appendReport(dir string, r run) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "report.json")
	rep, err := loadReport(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rep.Host = thisHost()
	rep.Runs = append(rep.Runs, r)
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
