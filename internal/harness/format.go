package harness

import (
	"bytes"
	"fmt"
	"text/tabwriter"
	"time"
)

// Plain-text report rendering for cmd/denova-bench. Each Format* function
// renders one paper artifact in the same rows/series the paper reports.

func table(fn func(w *tabwriter.Writer)) string {
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return buf.String()
}

func us(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e3) }

// FormatTable1 renders the device latency profiles (Table I).
func FormatTable1(rows []DeviceProfileRow) string {
	return "Table I — memory device latency profiles (per 64 B cache line)\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Device\tConfigured Read\tConfigured Write\tMeasured Read\tMeasured Persist")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\n",
					r.Profile.Name, r.Profile.ReadPerLine, r.Profile.WritePerLine,
					r.MeasuredRead.Round(time.Nanosecond), r.MeasuredWrite.Round(time.Nanosecond))
			}
		})
}

// FormatFig2 renders the T_f vs T_w proportion per write size (Fig. 2).
func FormatFig2(rows []TfTwResult) string {
	return "Fig. 2 — fingerprinting time (T_f) vs device write time (T_w)\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Write size\tT_w (us)\tT_f (us)\tT_f share\tT_f/T_w")
			for _, r := range rows {
				ratio := float64(r.Tf) / float64(r.Tw)
				fmt.Fprintf(w, "%dK\t%s\t%s\t%.0f%%\t%.1fx\n",
					r.WriteSize/1024, us(r.Tw), us(r.Tf), r.TfShare()*100, ratio)
			}
		})
}

// FormatTable4 renders the write/dedup latency breakdown (Table IV).
func FormatTable4(rows []LatencyBreakdown) string {
	return "Table IV — file write latency and deduplication latency\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "File size\tWrite latency (us)\tDedupe: other ops (us)\tDedupe: FP time (us)\tDedupe/Write")
			for _, r := range rows {
				fmt.Fprintf(w, "%dK\t%s\t%s\t%s\t%.1fx\n",
					r.FileSize/1024, us(r.WriteLatency), us(r.OtherOps), us(r.FPTime),
					float64(r.DedupeLatency())/float64(r.WriteLatency))
			}
		})
}

// FormatWriteResults renders Fig. 8 / Fig. 9 style series.
func FormatWriteResults(title string, rows []WriteResult) string {
	return title + "\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Model\tWorkload\tDup\tThreads\tMB/s\tSavings\tDrain")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%s\t%.0f%%\t%d\t%.1f\t%.0f%%\t%v\n",
					r.Model, r.Workload, r.DupRatio*100, r.Threads, r.MBps(),
					r.Savings*100, r.DrainTime.Round(time.Millisecond))
			}
		})
}

// NormalizedRow is one Fig. 11 cell.
type NormalizedRow struct {
	Model     string
	Workload  string
	Write     float64 // MB/s
	Overwrite float64 // MB/s
	Baseline  float64 // MB/s (baseline NOVA write)
}

// FormatNormalized renders Fig. 11: write vs overwrite normalized to the
// baseline write throughput.
func FormatNormalized(rows []NormalizedRow) string {
	return "Fig. 11 — normalized write/overwrite throughput (baseline NOVA write = 1.0)\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Model\tWorkload\tWrite (norm)\tOverwrite (norm)")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Model, r.Workload, r.Write/r.Baseline, r.Overwrite/r.Baseline)
			}
		})
}

// FormatLinger renders Fig. 10 as quantiles of the lingering-time CDF.
func FormatLinger(rows []LingerResult) string {
	qs := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}
	return "Fig. 10 — CDF of DWQ node lingering time\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprint(w, "Model\tnodes")
			for _, q := range qs {
				fmt.Fprintf(w, "\tp%.0f", q*100)
			}
			fmt.Fprintln(w)
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%d", r.Model, r.CDF.Len())
				for _, q := range qs {
					fmt.Fprintf(w, "\t%v", r.CDF.Quantile(q).Round(time.Microsecond))
				}
				fmt.Fprintln(w)
			}
		})
}

// FormatReads renders Fig. 12.
func FormatReads(rows []ReadResult) string {
	return "Fig. 12 — read throughput on duplicate files\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Model\tScenario\tMB/s")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%s\t%.1f\n", r.Model, r.Scenario, r.MBps())
			}
		})
}

// FormatModel renders the Eq. (1)–(5) validation.
func FormatModel(rows []ModelValidation) string {
	return "Model validation — Eq. (3): α·T_w < T_f and Eq. (5): α·T_w < T_fw + α·T_f\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "α\tα·T_w (us)\tT_f (us)\tT_fw+α·T_f (us)\tEq3 holds\tEq5 holds")
			for _, r := range rows {
				fmt.Fprintf(w, "%.2f\t%s\t%s\t%s\t%v\t%v\n",
					r.Alpha, us(r.LHS), us(r.RHS), us(r.AdapRHS), r.Eq3Holds(), r.Eq5Holds())
			}
		})
}

// FormatAblations renders the design-choice ablations.
func FormatAblations(re ReorderAblation, dp DeletePointerAblation, es EntrySizeAblation) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "Ablation — IAA reordering (Zipf duplicate popularity)\n")
	fmt.Fprintf(&buf, "  avg chain walk, reorder ON:  %.2f entries (%d reorders)\n", re.AvgWalkOn, re.ReordersOn)
	fmt.Fprintf(&buf, "  avg chain walk, reorder OFF: %.2f entries\n\n", re.AvgWalkOff)
	fmt.Fprintf(&buf, "Ablation — delete pointer vs re-fingerprinting at reclaim\n")
	fmt.Fprintf(&buf, "  delete pointer:   %v/decrement, %.2f NVM line reads, %.2f flushed lines\n", dp.ViaDeletePtr, dp.DecRefReads, dp.DecRefFlushed)
	fmt.Fprintf(&buf, "    last reference: %.2f NVM line reads, %.2f flushed lines (entry removed)\n", dp.RemoveReads, dp.RemoveFlushed)
	fmt.Fprintf(&buf, "  re-fingerprint:   %v/op, %d NVM line reads (resolution only)\n\n", dp.ViaReFingerprt, dp.NVMReadsReFP)
	fmt.Fprintf(&buf, "Ablation — FACT entry fits one cache line\n")
	fmt.Fprintf(&buf, "  flushes/dedup txn @64B entries:  %.2f\n", es.FlushesPerTxn64B)
	fmt.Fprintf(&buf, "  flushes/dedup txn @128B entries: %.2f (computed)\n", es.FlushesPerTxn128B)
	return buf.String()
}
