package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json compare needs: which way each
// end-to-end metric is better and how much worse it may get.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchSpec(path string) (benchSpec, error) {
	var bs benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return bs, err
	}
	if err := json.Unmarshal(b, &bs); err != nil {
		return bs, fmt.Errorf("%s: %w", path, err)
	}
	return bs, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method), so that a spread printed here is the one the driver sees. One
// value is its own three quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// side is one report's view of one workload x metric cell.
type side struct {
	median, spread float64 // spread = (q3-q1)/median
	n              int
}

func cell(rep report, workload, metric string) side {
	var vals []float64
	for _, r := range rep.Runs {
		if x, ok := r.EndToEnd[metric]; ok && r.Workload == workload && r.Trace == 0 {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return side{}
	}
	q1, q2, q3 := quartiles(vals)
	return side{median: q2, spread: ratio(q3-q1, q2), n: len(vals)}
}

// verdict compares b with its base a.
func verdict(a, b side, higherBetter bool, bound float64) string {
	// The share of a's median by which b is worse; negative when better.
	worsening := ratio(b.median-a.median, a.median)
	if higherBetter {
		worsening = -worsening
	}
	switch {
	case a.n == 0 || b.n == 0:
		return "missing"
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	case max(a.spread, b.spread) > bound:
		// The runs of one side disagree by more than the bound, so "no
		// change" cannot be told from a change of that size.
		return "unresolved"
	}
	return "unchanged"
}

func failShare(rep report, workload string) float64 {
	var failed, attempted int64
	for _, r := range rep.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// compareMain implements `benchmark compare <a.json> <b.json>`: a is the
// base. It exits 1 when any metric is worse or any fail share rose.
func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fl.String("spec", "../BENCHMARK.json", "the benchmark definition holding the bounds")
	fl.Parse(args)
	if fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] <a.json> <b.json>")
		return 2
	}
	bs, err := loadBenchSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var reps [2]report
	for i := range reps {
		if reps[i], err = loadReport(fl.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	bad := compareReports(os.Stdout, bs, reps[0], reps[1])
	if bad > 0 {
		return 1
	}
	return 0
}

// compareReports prints one row per workload x end-to-end metric and
// returns how many rows are worse, counting a rise in fail share as one.
func compareReports(w io.Writer, bs benchSpec, a, b report) (bad int) {
	fmt.Fprintf(w, "%-20s %-22s %14s %14s  %-22s %7s %7s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict")
	for _, wl := range bs.Workloads {
		for _, m := range bs.EndToEnd {
			sa, sb := cell(a, wl.Name, m.Name), cell(b, wl.Name, m.Name)
			v := verdict(sa, sb, m.Better == "higher", m.Bound)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-22s %14.4f %14.4f  %-22s %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, sa.median, sb.median,
				fmt.Sprintf("%.4f of %.4g %s", ratio(sb.median, sa.median), sa.median, m.Unit),
				100*max(sa.spread, sb.spread), 100*m.Bound, v)
		}
		fa, fb := failShare(a, wl.Name), failShare(b, wl.Name)
		v := "unchanged"
		if fb > fa {
			v = "worse"
			bad++
		}
		fmt.Fprintf(w, "%-20s %-22s %14.6f %14.6f  %-22s %7s %7s  %s\n",
			wl.Name, "fail_share", fa, fb, "", "", "any", v)
	}
	return bad
}
