// Latency: reproduce Figure 3 — the same random-read workload at
// three file sizes yields three completely different latency
// distributions: unimodal-fast (fits in memory), bimodal (half
// cached), unimodal-slow (disk). A mean summarizes none of them.
package main

import (
	"fmt"
	"log"
	"os"

	fsbench "repro"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	sizes := []struct {
		label string
		bytes int64
	}{
		{"(a) 64 MB file — fits in cache", 64 << 20},
		{"(b) 1024 MB file — twice the cache", 1024 << 20},
		{"(c) 25 GB file — far beyond cache", 25 << 30},
	}
	for _, sz := range sizes {
		stack := fsbench.PaperStack()
		exp := &fsbench.Experiment{
			Name:          sz.label,
			Stack:         stack,
			Workload:      fsbench.RandomRead(sz.bytes, 2<<10, 1),
			Runs:          1,
			Duration:      60 * fsbench.Second,
			MeasureWindow: 30 * fsbench.Second,
			Seed:          3,
			Kinds:         []fsbench.OpKind{workload.OpReadRand},
		}
		res, err := exp.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := report.Histogram(os.Stdout, sz.label, res.Hist); err != nil {
			log.Fatal(err)
		}
		mean := res.Hist.Mean()
		p50 := res.Hist.Quantile(fsbench.P50)
		fmt.Printf("  mean=%.0fns p50<=%dns modes=%v bimodal=%v\n",
			mean, p50, res.Hist.Modes(0.05), res.Flags.Bimodal)
		if res.Flags.Bimodal {
			fmt.Println("  ! the mean falls between the peaks and describes NO actual operation")
		}
	}
	fmt.Println("\npaper: \"the working set size impacts reported latency significantly,")
	fmt.Println("spanning over 3 orders of magnitude\" — compare the (a) and (c) peaks above.")
}
